//! **E1 — Theorem 2 (lower bound), Algorithm 1.**
//!
//! Part 1: exhaustive model checking — every interleaving (and crash
//! pattern) of Algorithm 1 for k = 1..4, in both race modes, satisfies
//! agreement, validity and wait-freedom.
//!
//! Part 2: threaded stress — the real (thread-based) `TokenConsensus`
//! object run under contention for larger k; all runs must agree on a
//! valid value.

use std::collections::HashSet;
use std::sync::Arc;

use tokensync_core::setup::sync_state_fixture;
use tokensync_core::shared::SharedErc20;
use tokensync_core::token_consensus::{RaceMode, TokenConsensus};
use tokensync_experiments::Table;
use tokensync_mc::protocols::TokenRace;
use tokensync_mc::{Explorer, Outcome};
use tokensync_spec::{AccountId, ProcessId};

fn outcome_str(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Verified => "verified",
        Outcome::Violated(_) => "VIOLATED",
        Outcome::Exhausted => "exhausted",
    }
}

fn main() {
    println!("E1: consensus from a token in a synchronization state (Theorem 2)");

    let mut t = Table::new(&["k", "mode", "configs", "transitions", "outcome"]);
    for k in 1..=4 {
        for (mode, name) in [
            (RaceMode::Generalized, "generalized"),
            (RaceMode::Verbatim, "verbatim"),
        ] {
            let protocol = TokenRace::in_sync_state_with_mode(k, mode);
            let report = Explorer::new(&protocol).run();
            t.row_owned(vec![
                k.to_string(),
                name.to_string(),
                report.stats.configs.to_string(),
                report.stats.transitions.to_string(),
                outcome_str(&report.outcome).to_string(),
            ]);
            assert!(
                matches!(report.outcome, Outcome::Verified),
                "k={k} {name}: {:?}",
                report.outcome
            );
        }
    }
    t.print("exhaustive check of Algorithm 1 (all interleavings, all crash patterns)");

    let mut t = Table::new(&["k", "runs", "distinct decisions/run", "violations"]);
    for k in [2usize, 4, 8, 16, 32] {
        let runs = 200;
        let mut violations = 0;
        for round in 0..runs {
            let (state, witness) = sync_state_fixture(k, k + 1, 64 + round as u64);
            let consensus: Arc<TokenConsensus<SharedErc20, usize>> =
                Arc::new(TokenConsensus::with_mode(
                    SharedErc20::from_state(state),
                    witness,
                    AccountId::new(k),
                    RaceMode::Generalized,
                ));
            let mut decisions = Vec::new();
            crossbeam::scope(|s| {
                let handles: Vec<_> = (0..k)
                    .map(|i| {
                        let c = Arc::clone(&consensus);
                        s.spawn(move |_| c.propose(ProcessId::new(i), i))
                    })
                    .collect();
                for h in handles {
                    decisions.push(h.join().expect("proposer panicked"));
                }
            })
            .expect("scope");
            let distinct: HashSet<_> = decisions.iter().copied().collect();
            if distinct.len() != 1 || decisions[0] >= k {
                violations += 1;
            }
        }
        t.row_owned(vec![
            k.to_string(),
            runs.to_string(),
            "1".to_string(),
            violations.to_string(),
        ]);
        assert_eq!(violations, 0, "k={k}");
    }
    t.print("threaded stress of TokenConsensus (agreement + validity)");

    println!("\nresult: CN(T_q) ≥ k for every checked q ∈ S_k — Theorem 2 reproduced.");
}
