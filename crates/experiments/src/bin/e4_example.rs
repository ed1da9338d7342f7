//! **E4 — Example 1 of the paper, replayed step by step.**
//!
//! Alice deploys with supply 10; transfers 3 to Bob; Bob approves Charlie
//! for 5; Charlie's transferFrom of 5 fails on Bob's balance; Charlie's
//! transferFrom of 1 to Alice succeeds. The printed states must match
//! q0–q4 of the paper.

use tokensync_core::analysis::consensus_number_bounds;
use tokensync_core::erc20::Erc20State;
use tokensync_spec::{AccountId, ProcessId};

fn show(state: &Erc20State, label: &str) {
    let a = |i: usize| AccountId::new(i);
    println!(
        "{label}: balances[aA,aB,aC] = [{}, {}, {}], allowances[aB][C] = {}, {}",
        state.balance(a(0)),
        state.balance(a(1)),
        state.balance(a(2)),
        state.allowance(a(1), ProcessId::new(2)),
        consensus_number_bounds(state),
    );
}

fn main() {
    println!("E4: Example 1 (Alice, Bob, Charlie)\n");
    let alice = ProcessId::new(0);
    let bob = ProcessId::new(1);
    let charlie = ProcessId::new(2);
    let (a_bob, a_alice, a_charlie) = (AccountId::new(1), AccountId::new(0), AccountId::new(2));

    let mut token = Erc20State::with_deployer(3, alice, 10);
    show(&token, "q0");
    assert_eq!(token.balance(a_alice), 10);

    token.transfer(alice, a_bob, 3).expect("q1 transfer");
    show(&token, "q1");
    assert_eq!((token.balance(a_alice), token.balance(a_bob)), (7, 3));

    token.approve(bob, charlie, 5).expect("q2 approve");
    show(&token, "q2");
    assert_eq!(token.allowance(a_bob, charlie), 5);

    let err = token
        .transfer_from(charlie, a_bob, a_charlie, 5)
        .expect_err("q3 must fail: Bob's balance is 3 < 5");
    println!("q3: transferFrom(aB, aC, 5) → FALSE ({err}); state unchanged");
    assert_eq!(token.balance(a_bob), 3);
    assert_eq!(token.allowance(a_bob, charlie), 5);

    token
        .transfer_from(charlie, a_bob, a_alice, 1)
        .expect("q4 transferFrom");
    show(&token, "q4");
    assert_eq!((token.balance(a_alice), token.balance(a_bob)), (8, 2));
    assert_eq!(token.allowance(a_bob, charlie), 4);

    println!("\nresult: trace matches the paper exactly (q0 → q4).");
    println!(
        "note the CN column: approving Charlie raised Bob's account to two \
         enabled spenders — the consensus number moved from 1 to 2 mid-run."
    );
}
