//! Cross-crate integration: the full consensus stack.
//!
//! Wires `setup` → `SharedErc20` → `TokenConsensus` (Algorithm 1) and
//! cross-checks against the other consensus constructions in the
//! workspace (`AtConsensus`, `CasConsensus`) and against the universal
//! construction wrapping the ERC20 spec.

use std::collections::HashSet;
use std::sync::Arc;

use tokensync::consensus::{CasConsensus, Consensus, Universal};
use tokensync::core::erc20::{Erc20Op, Erc20Spec};
use tokensync::core::setup::{pairwise_exceeding_allowances, prepare_sync_state};
use tokensync::core::shared::{ConcurrentToken, SharedErc20};
use tokensync::core::token_consensus::TokenConsensus;
use tokensync::kat::AtConsensus;
use tokensync::spec::{AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// Runs `k` threads through `propose` and asserts agreement + validity,
/// returning the decided value.
fn assert_consensus<F>(k: usize, propose: F) -> usize
where
    F: Fn(ProcessId, usize) -> usize + Sync,
{
    let mut decisions = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..k)
            .map(|i| {
                let propose = &propose;
                s.spawn(move || propose(p(i), i))
            })
            .collect();
        for h in handles {
            decisions.push(h.join().expect("proposer panicked"));
        }
    });
    let distinct: HashSet<_> = decisions.iter().copied().collect();
    assert_eq!(distinct.len(), 1, "disagreement: {decisions:?}");
    assert!(decisions[0] < k, "invalid decision {}", decisions[0]);
    decisions[0]
}

#[test]
fn live_token_prepared_and_raced_end_to_end() {
    for k in [2usize, 3, 5, 8] {
        let owner = p(0);
        let token = SharedErc20::deploy(k + 1, owner, 1000);
        // Move some funds around first: a real token with history.
        token.transfer(owner, a(1), 100).unwrap();
        token.transfer(p(1), a(0), 40).unwrap();

        let spenders: Vec<ProcessId> = (1..k).map(p).collect();
        let balance = token.balance_of(a(0));
        let allowances = pairwise_exceeding_allowances(k, balance);
        let witness = prepare_sync_state(&token, owner, &spenders, &allowances).unwrap();
        assert_eq!(witness.k(), k);

        let consensus: Arc<TokenConsensus<SharedErc20, usize>> =
            Arc::new(TokenConsensus::new(token, witness, a(k)));
        assert_consensus(k, |proc, v| consensus.propose(proc, v));
        // The race consumed the synchronization state: funds moved out.
        assert!(consensus.token().balance_of(a(0)) < balance);
    }
}

#[test]
fn all_constructions_agree_with_themselves() {
    for k in [2usize, 4, 8] {
        let kat: Arc<AtConsensus<usize>> = Arc::new(AtConsensus::new(k));
        assert_consensus(k, |proc, v| kat.propose(proc, v));

        let cas: Arc<CasConsensus<usize>> = Arc::new(CasConsensus::new(k));
        assert_consensus(k, |proc, v| cas.propose(proc, v));
    }
}

#[test]
fn token_consensus_is_a_consensus_object() {
    // TokenConsensus implements the Consensus trait: use it behind dyn.
    let (state, witness) = tokensync::core::setup::sync_state_fixture(3, 4, 12);
    let consensus: Arc<dyn Consensus<usize>> = Arc::new(TokenConsensus::new(
        SharedErc20::from_state(state),
        witness,
        a(3),
    ));
    assert_eq!(consensus.peek(), None);
    let d = consensus.propose(p(2), 2);
    assert_eq!(d, 2);
    assert_eq!(consensus.peek(), Some(2));
    assert_eq!(consensus.propose(p(0), 0), 2);
}

#[test]
fn universal_construction_hosts_the_token() {
    // Consensus is universal (Section 3.1): a token driven through the
    // universal construction behaves exactly like the sequential token.
    let n = 3;
    let spec = Erc20Spec::deployed(n, p(0), 30);
    let mut oracle = spec.initial_state();
    let universal = Arc::new(Universal::new(spec.clone(), n));

    let script: Vec<(ProcessId, Erc20Op)> = vec![
        (p(0), Erc20Op::Transfer { to: a(1), value: 9 }),
        (
            p(1),
            Erc20Op::Approve {
                spender: p(2),
                value: 6,
            },
        ),
        (
            p(2),
            Erc20Op::TransferFrom {
                from: a(1),
                to: a(2),
                value: 6,
            },
        ),
        (p(2), Erc20Op::BalanceOf { account: a(2) }),
        (p(0), Erc20Op::TotalSupply),
    ];
    for (caller, op) in script {
        let expected = spec.apply(&mut oracle, caller, &op);
        let got = universal.perform(caller, op);
        assert_eq!(got, expected);
    }
    assert_eq!(universal.snapshot(), oracle);
}

#[test]
fn universal_token_is_consistent_under_contention() {
    let n = 4;
    let spec = Erc20Spec::new(tokensync::core::erc20::Erc20State::from_balances(vec![
        100;
        4
    ]));
    let universal = Arc::new(Universal::new(spec, n));
    std::thread::scope(|s| {
        for t in 0..n {
            let universal = Arc::clone(&universal);
            s.spawn(move || {
                for i in 0..50 {
                    universal.perform(
                        p(t),
                        Erc20Op::Transfer {
                            to: a((t + i) % n),
                            value: 1,
                        },
                    );
                }
            });
        }
    });
    assert_eq!(universal.snapshot().total_supply(), 400);
    assert_eq!(universal.log_len(), n * 50);
}
