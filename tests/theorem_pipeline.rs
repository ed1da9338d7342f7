//! Cross-crate integration: analysis fixtures feed the model checker.
//!
//! The `core::analysis` predicates claim which states support consensus
//! among how many processes; the `mc` explorer *checks* those claims
//! exhaustively. This test wires the two crates together so the
//! predicates and the checker can never drift apart.

use tokensync::core::analysis::{
    consensus_number_bounds, is_sync_state_for, partition_index, unique_transfers,
};
use tokensync::core::erc20::Erc20State;
use tokensync::core::token_consensus::RaceMode;
use tokensync::mc::enumerate::enumerate_states;
use tokensync::mc::protocols::TokenRace;
use tokensync::mc::{Explorer, Outcome};
use tokensync::spec::{AccountId, ProcessId};

fn a(i: usize) -> AccountId {
    AccountId::new(i)
}
fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Builds a race state on account 0 with the given balance and allowances
/// for p1.., plus a destination account.
fn race_state(balance: u64, allowances: &[u64]) -> Erc20State {
    let participants = allowances.len() + 1;
    let mut balances = vec![0; participants + 1];
    balances[0] = balance;
    let mut q = Erc20State::from_balances(balances);
    for (i, &al) in allowances.iter().enumerate() {
        q.set_allowance(a(0), p(i + 1), al);
    }
    q
}

#[test]
fn analysis_predicts_explorer_outcomes() {
    // (balance, allowances, U expected)
    let cases: &[(u64, &[u64], bool)] = &[
        (2, &[2, 2], true),  // classic S_3 fixture
        (2, &[1, 1], false), // 1 + 1 = 2 not > 2: U fails
        (3, &[2, 2], true),  // 2 + 2 > 3
        (4, &[2, 2], false), // 2 + 2 = 4 not > 4
        (1, &[1, 1], true),  // 1 + 1 > 1
    ];
    for &(balance, allowances, expect_u) in cases {
        let state = race_state(balance, allowances);
        let u = unique_transfers(&state, a(0));
        assert_eq!(u, expect_u, "U({balance}, {allowances:?})");

        let participants = allowances.len() + 1;
        let protocol = TokenRace::from_state(state.clone(), participants, RaceMode::Generalized);
        let report = Explorer::new(&protocol).run();
        if expect_u {
            assert!(
                matches!(report.outcome, Outcome::Verified),
                "U holds but the race failed: balance {balance}, {allowances:?}: {:?}",
                report.outcome
            );
        } else {
            assert!(
                report.violation().is_some(),
                "U fails but the race verified: balance {balance}, {allowances:?}"
            );
        }
    }
}

#[test]
fn exact_bound_states_sampled_from_enumeration_verify() {
    // Sample small enumerated states whose bounds are exact with k = 2 and
    // whose witness is account 0 with owner p0: the race must verify.
    let mut checked = 0;
    for state in enumerate_states(2, 2, 2) {
        let bounds = consensus_number_bounds(&state);
        if bounds.exact() != Some(2) || !unique_transfers(&state, a(0)) {
            continue;
        }
        if state.allowance(a(0), p(1)) == 0 {
            continue; // witness is the other account; the fixture below
                      // runs the race on account 0 only.
        }
        // Embed into a 3-account universe (destination account needed).
        let mut embedded =
            Erc20State::from_balances(vec![state.balance(a(0)), state.balance(a(1)), 0]);
        embedded.set_allowance(a(0), p(1), state.allowance(a(0), p(1)));
        let protocol = TokenRace::from_state(embedded, 2, RaceMode::Generalized);
        let report = Explorer::new(&protocol).run();
        assert!(
            matches!(report.outcome, Outcome::Verified),
            "state {state:?} claimed CN = 2 but the race failed: {:?}",
            report.outcome
        );
        checked += 1;
        if checked >= 40 {
            break;
        }
    }
    assert!(checked >= 10, "enumeration produced too few usable states");
}

#[test]
fn partition_index_matches_sync_state_membership() {
    for state in enumerate_states(2, 2, 2) {
        let k = partition_index(&state);
        assert!((1..=2).contains(&k));
        // S_j membership needs an account with exactly j spenders.
        for j in 1..=2 {
            if is_sync_state_for(&state, j) {
                assert!(k >= j);
            }
        }
        let bounds = consensus_number_bounds(&state);
        assert!(bounds.lower >= 1 && bounds.lower <= bounds.upper && bounds.upper == k);
    }
}

#[test]
fn preparing_sync_state_changes_explorer_verdict() {
    // From q0 (CN = 1), running Algorithm 1 among 2 processes fails; after
    // the owner's approve (equation (12)), it verifies — the dynamic jump
    // the paper is about, observed end to end.
    let mut state = Erc20State::from_balances(vec![2, 0, 0]);
    let before = TokenRace::from_state(state.clone(), 2, RaceMode::Generalized);
    assert!(
        Explorer::new(&before).run().violation().is_some(),
        "2-process race from a Q_1 state must fail"
    );

    state.approve(p(0), p(1), 2).unwrap(); // the approve of equation (12)
    assert_eq!(partition_index(&state), 2);
    let after = TokenRace::from_state(state, 2, RaceMode::Generalized);
    assert!(matches!(
        Explorer::new(&after).run().outcome,
        Outcome::Verified
    ));
}
