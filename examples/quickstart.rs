//! Quickstart: deploy a token, run the paper's Example 1, and watch the
//! consensus number move with the state.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tokensync::core::analysis::{consensus_number_bounds, enabled_spenders, sync_level};
use tokensync::core::erc20::Erc20State;
use tokensync::spec::{AccountId, ProcessId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three participants — Alice deploys the contract with supply 10.
    let alice = ProcessId::new(0);
    let bob = ProcessId::new(1);
    let charlie = ProcessId::new(2);
    let (a_alice, a_bob, a_charlie) = (AccountId::new(0), AccountId::new(1), AccountId::new(2));

    let mut token = Erc20State::with_deployer(3, alice, 10);
    println!(
        "deployed: {} holds the full supply of {}",
        a_alice,
        token.total_supply()
    );
    println!("  synchronization: {}", consensus_number_bounds(&token));

    // Alice pays Bob 3 — plain payments don't change the level.
    token.transfer(alice, a_bob, 3)?;
    println!("\nAlice → Bob: 3 tokens");
    println!("  synchronization: {}", consensus_number_bounds(&token));

    // Bob approves Charlie for 5: Bob's account now has two enabled
    // spenders, and the object got strictly stronger.
    token.approve(bob, charlie, 5)?;
    println!("\nBob approves Charlie for 5");
    println!(
        "  enabled spenders of {}: {:?}",
        a_bob,
        enabled_spenders(&token, a_bob)
    );
    println!("  synchronization: {}", consensus_number_bounds(&token));

    // Charlie overdraws — FALSE, nothing changes (Example 1, q3).
    let err = token
        .transfer_from(charlie, a_bob, a_charlie, 5)
        .unwrap_err();
    println!("\nCharlie tries to move 5 from Bob: rejected ({err})");

    // Charlie moves 1 to Alice (Example 1, q4).
    token.transfer_from(charlie, a_bob, a_alice, 1)?;
    println!("Charlie moves 1 from Bob to Alice");
    println!(
        "  balances: [{}, {}, {}], Charlie's remaining allowance: {}",
        token.balance(a_alice),
        token.balance(a_bob),
        token.balance(a_charlie),
        token.allowance(a_bob, charlie),
    );

    // Where could consensus be run right now, and among whom?
    let (k, witness) = sync_level(&token);
    match witness {
        Some(w) => println!(
            "\nthe state is in S_{k}: account {} can decide consensus among {:?}",
            w.account, w.participants
        ),
        None => println!("\nno synchronization state available (level {k})"),
    }
    Ok(())
}
