//! Algorithm 1 live: five threads reach consensus *through an ERC20
//! token*, no consensus primitive in sight.
//!
//! The owner funds an account, approves four spenders with pairwise-
//! exceeding allowances (putting the state into `S_5`), and the five
//! participants race: exactly one withdrawal succeeds and everyone adopts
//! the winner's proposal.
//!
//! ```sh
//! cargo run --example token_race
//! ```

use std::sync::Arc;

use tokensync::core::setup::{pairwise_exceeding_allowances, prepare_sync_state};
use tokensync::core::shared::{ConcurrentToken, SharedErc20};
use tokensync::core::token_consensus::TokenConsensus;
use tokensync::spec::{AccountId, ProcessId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const K: usize = 5;
    let owner = ProcessId::new(0);
    let token = SharedErc20::deploy(K + 1, owner, 100);

    // The (non-wait-free) preparation: the owner approves k-1 spenders.
    let spenders: Vec<ProcessId> = (1..K).map(ProcessId::new).collect();
    let allowances = pairwise_exceeding_allowances(K, 100);
    let witness = prepare_sync_state(&token, owner, &spenders, &allowances)?;
    println!(
        "synchronization state reached: account {} with balance {} and spenders {:?}",
        witness.account,
        witness.balance,
        &witness.participants[1..]
    );

    let consensus: Arc<TokenConsensus<SharedErc20, String>> =
        Arc::new(TokenConsensus::new(token, witness, AccountId::new(K)));

    let proposals = ["red", "green", "blue", "amber", "violet"];
    let mut decisions = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let consensus = Arc::clone(&consensus);
                s.spawn(move || {
                    let mine = proposals[i].to_string();
                    let decided = consensus.propose(ProcessId::new(i), mine.clone());
                    (i, mine, decided)
                })
            })
            .collect();
        for h in handles {
            decisions.push(h.join().expect("proposer"));
        }
    });

    decisions.sort_by_key(|(i, _, _)| *i);
    for (i, mine, decided) in &decisions {
        println!("p{i} proposed {mine:8} → decided {decided}");
    }
    let first = &decisions[0].2;
    assert!(decisions.iter().all(|(_, _, d)| d == first), "agreement!");
    println!(
        "\nall {} processes agree on {:?} — decided by racing token withdrawals \
         (balance left on the account: {})",
        K,
        first,
        consensus.token().balance_of(AccountId::new(0)),
    );
    Ok(())
}
