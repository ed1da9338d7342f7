//! Property-based test suites (proptest) over the core invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync::core::analysis::{
    consensus_number_bounds, enabled_spenders, partition_index, unique_transfers,
};
use tokensync::core::emulation::{within_restriction, RestrictedErc20Spec, RestrictedToken};
use tokensync::core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync::core::shared::{CoarseErc20, ConcurrentObject, SharedErc20};
use tokensync::spec::{check_linearizable, AccountId, History, ObjectType, ProcessId};

const N: usize = 4;

fn arb_op() -> impl Strategy<Value = Erc20Op> {
    prop_oneof![
        (0..N, 0u64..6).prop_map(|(to, value)| Erc20Op::Transfer {
            to: AccountId::new(to),
            value
        }),
        (0..N, 0..N, 0u64..6).prop_map(|(from, to, value)| Erc20Op::TransferFrom {
            from: AccountId::new(from),
            to: AccountId::new(to),
            value
        }),
        (0..N, 0u64..6).prop_map(|(spender, value)| Erc20Op::Approve {
            spender: ProcessId::new(spender),
            value
        }),
        (0..N).prop_map(|account| Erc20Op::BalanceOf {
            account: AccountId::new(account)
        }),
        (0..N, 0..N).prop_map(|(account, spender)| Erc20Op::Allowance {
            account: AccountId::new(account),
            spender: ProcessId::new(spender)
        }),
        Just(Erc20Op::TotalSupply),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<(usize, Erc20Op)>> {
    vec((0..N, arb_op()), 0..60)
}

proptest! {
    /// Supply conservation: no operation sequence mints or burns.
    #[test]
    fn supply_is_invariant(script in arb_script(), supply in 0u64..1000) {
        let spec = Erc20Spec::deployed(N, ProcessId::new(0), supply);
        let mut state = spec.initial_state();
        for (caller, op) in &script {
            spec.apply(&mut state, ProcessId::new(*caller), op);
            prop_assert_eq!(state.total_supply(), supply);
        }
    }

    /// σ_q invariants: the owner is always enabled; zero balance means
    /// owner-only; the partition index is the max spender count and the
    /// CN bounds bracket it.
    #[test]
    fn sigma_and_bounds_invariants(script in arb_script(), supply in 0u64..100) {
        let spec = Erc20Spec::deployed(N, ProcessId::new(0), supply);
        let mut state = spec.initial_state();
        for (caller, op) in &script {
            spec.apply(&mut state, ProcessId::new(*caller), op);
        }
        let mut max_sigma = 0;
        for i in 0..N {
            let account = AccountId::new(i);
            let sigma = enabled_spenders(&state, account);
            prop_assert!(sigma.contains(&account.owner()));
            if state.balance(account) == 0 {
                prop_assert_eq!(sigma.len(), 1);
            }
            max_sigma = max_sigma.max(sigma.len());
        }
        prop_assert_eq!(partition_index(&state), max_sigma.max(1));
        let bounds = consensus_number_bounds(&state);
        prop_assert!(1 <= bounds.lower && bounds.lower <= bounds.upper);
        prop_assert_eq!(bounds.upper, partition_index(&state));
    }

    /// U implies positive balance and pairwise-exceeding allowances.
    #[test]
    fn u_predicate_definition(script in arb_script(), supply in 1u64..100) {
        let spec = Erc20Spec::deployed(N, ProcessId::new(0), supply);
        let mut state = spec.initial_state();
        for (caller, op) in &script {
            spec.apply(&mut state, ProcessId::new(*caller), op);
        }
        for i in 0..N {
            let account = AccountId::new(i);
            if unique_transfers(&state, account) {
                let balance = state.balance(account);
                prop_assert!(balance > 0);
                let spenders: Vec<ProcessId> = enabled_spenders(&state, account)
                    .into_iter()
                    .filter(|p| *p != account.owner())
                    .collect();
                if spenders.len() >= 2 {
                    for (x, px) in spenders.iter().enumerate() {
                        for py in &spenders[x + 1..] {
                            prop_assert!(
                                state.allowance(account, *px)
                                    + state.allowance(account, *py)
                                    > balance
                            );
                        }
                    }
                }
            }
        }
    }

    /// Both concurrent implementations replay any script exactly like the
    /// sequential specification.
    #[test]
    fn concurrent_tokens_match_spec_sequentially(script in arb_script()) {
        let initial = Erc20State::from_balances(vec![25; N]);
        let spec = Erc20Spec::new(initial.clone());
        let coarse = CoarseErc20::from_state(initial.clone());
        let fine = SharedErc20::from_state(initial);
        let mut oracle = spec.initial_state();
        for (caller, op) in &script {
            let caller = ProcessId::new(*caller);
            let expected = spec.apply(&mut oracle, caller, op);
            prop_assert_eq!(coarse.apply(caller, op), expected);
            prop_assert_eq!(fine.apply(caller, op), expected);
        }
        prop_assert_eq!(coarse.snapshot(), oracle.clone());
        prop_assert_eq!(fine.snapshot(), oracle);
    }

    /// Algorithm 2: the emulation tracks its sequential spec on any
    /// script, and every reachable state stays within Q_k.
    #[test]
    fn restricted_token_matches_spec(script in arb_script(), k in 1usize..4) {
        let initial = Erc20State::from_balances(vec![25; N]);
        let spec = RestrictedErc20Spec::new(k, initial.clone());
        let token = RestrictedToken::new(k, initial);
        let mut oracle = spec.initial_state();
        for (caller, op) in &script {
            let caller = ProcessId::new(*caller);
            let expected = spec.apply(&mut oracle, caller, op);
            prop_assert_eq!(token.apply(caller, op), expected);
            prop_assert!(within_restriction(&oracle, k));
        }
        prop_assert_eq!(token.snapshot(), oracle);
    }

    /// The linearizability checker accepts every sequential history…
    #[test]
    fn checker_accepts_sequential_histories(script in arb_script()) {
        let script = &script[..script.len().min(30)];
        let spec = Erc20Spec::new(Erc20State::from_balances(vec![9; N]));
        let mut state = spec.initial_state();
        let mut history = History::new();
        for (caller, op) in script {
            let caller = ProcessId::new(*caller);
            let id = history.invoke(caller, op.clone());
            let resp = spec.apply(&mut state, caller, op);
            history.ret(id, resp);
        }
        prop_assert!(check_linearizable(&spec, &spec.initial_state(), &history).is_ok());
    }

    /// …and rejects a history whose recorded balance read was corrupted.
    #[test]
    fn checker_rejects_corrupted_reads(balance in 1u64..50, bogus in 51u64..99) {
        let spec = Erc20Spec::new(Erc20State::from_balances(vec![balance, 0]));
        let mut history = History::new();
        let id = history.invoke(
            ProcessId::new(0),
            Erc20Op::BalanceOf { account: AccountId::new(0) },
        );
        history.ret(id, tokensync::core::erc20::Erc20Resp::Amount(bogus));
        prop_assert!(check_linearizable(&spec, &spec.initial_state(), &history).is_err());
    }
}
