//! Property-based tests of the model-checking machinery itself.

use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::token_consensus::RaceMode;
use tokensync_mc::commute::{classify_pair, explain_conflict, PairClass};
use tokensync_mc::enumerate::enumerate_states;
use tokensync_mc::protocols::TokenRace;
use tokensync_mc::{Explorer, Outcome};
use tokensync_spec::{AccountId, ProcessId};

fn arb_state() -> impl Strategy<Value = Erc20State> {
    (
        proptest::collection::vec(0u64..4, 3),
        proptest::collection::vec(0u64..4, 9),
    )
        .prop_map(|(balances, allowances)| {
            let mut state = Erc20State::from_balances(balances);
            for (idx, v) in allowances.into_iter().enumerate() {
                state.set_allowance(AccountId::new(idx / 3), ProcessId::new(idx % 3), v);
            }
            state
        })
}

fn arb_op() -> impl Strategy<Value = Erc20Op> {
    prop_oneof![
        (0..3usize, 0u64..4).prop_map(|(to, value)| Erc20Op::Transfer {
            to: AccountId::new(to),
            value
        }),
        (0..3usize, 0..3usize, 0u64..4).prop_map(|(from, to, value)| Erc20Op::TransferFrom {
            from: AccountId::new(from),
            to: AccountId::new(to),
            value
        }),
        (0..3usize, 0u64..4).prop_map(|(spender, value)| Erc20Op::Approve {
            spender: ProcessId::new(spender),
            value
        }),
        (0..3usize).prop_map(|a| Erc20Op::BalanceOf {
            account: AccountId::new(a)
        }),
    ]
}

proptest! {
    /// Pair classification is symmetric: swapping the operands never
    /// changes the verdict.
    #[test]
    fn classification_is_symmetric(
        state in arb_state(),
        o1 in arb_op(),
        o2 in arb_op(),
        p1 in 0..3usize,
        p2 in 0..3usize,
    ) {
        prop_assume!(p1 != p2);
        let spec = Erc20Spec::new(Erc20State::new(0));
        let (p1, p2) = (ProcessId::new(p1), ProcessId::new(p2));
        let forward = classify_pair(&spec, &state, (p1, &o1), (p2, &o2));
        let backward = classify_pair(&spec, &state, (p2, &o2), (p1, &o1));
        prop_assert_eq!(forward, backward);
    }

    /// Every conflict found on random states fits the paper's catalog —
    /// the randomized companion of the exhaustive sweep in `commute`.
    #[test]
    fn conflicts_always_catalogued(
        state in arb_state(),
        o1 in arb_op(),
        o2 in arb_op(),
        p1 in 0..3usize,
        p2 in 0..3usize,
    ) {
        prop_assume!(p1 != p2);
        let spec = Erc20Spec::new(Erc20State::new(0));
        let (p1, p2) = (ProcessId::new(p1), ProcessId::new(p2));
        if classify_pair(&spec, &state, (p1, &o1), (p2, &o2)) == PairClass::Conflict {
            prop_assert!(
                explain_conflict((p1, &o1), (p2, &o2)).is_some(),
                "unexplained conflict: {:?} vs {:?} at {:?}",
                o1, o2, state
            );
        }
    }
}

#[test]
fn explorer_agrees_with_u_predicate_on_enumerated_two_spender_states() {
    // For every enumerated state where account 0 has owner + one spender
    // enabled, the 2-process race verifies iff U holds there (balance
    // positive) — the analysis and the checker agree pointwise.
    let mut verified = 0;
    let mut refuted = 0;
    for state in enumerate_states(2, 1, 1) {
        let spender_enabled = state.balance(AccountId::new(0)) > 0
            && state.allowance(AccountId::new(0), ProcessId::new(1)) > 0;
        if !spender_enabled {
            continue;
        }
        // Embed with a destination account.
        let mut embedded = Erc20State::from_balances(vec![
            state.balance(AccountId::new(0)),
            state.balance(AccountId::new(1)),
            0,
        ]);
        embedded.set_allowance(
            AccountId::new(0),
            ProcessId::new(1),
            state.allowance(AccountId::new(0), ProcessId::new(1)),
        );
        let protocol = TokenRace::from_state(embedded, 2, RaceMode::Generalized);
        match Explorer::new(&protocol).run().outcome {
            Outcome::Verified => verified += 1,
            _ => refuted += 1,
        }
    }
    assert!(verified > 0);
    assert_eq!(refuted, 0, "U holds on all these states; races must verify");
}
