//! Property-based linearizability of [`ShardedErc20`].
//!
//! Mirrors the recorded-history stress tests in `shared::tests`, but lets
//! proptest drive the degrees of freedom the fixed-seed tests pin down:
//! the initial state (balances and outstanding approvals), the stripe
//! count (1 — coarse-degenerate — through more shards than accounts), and
//! the per-thread operation scripts. Every recorded concurrent history
//! must linearize against the sequential `Erc20Spec` from the same
//! initial state.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ConcurrentToken, ShardedErc20};
use tokensync_spec::{check_linearizable, AccountId, ObjectType, ProcessId, Recorder};

const N: usize = 4;

fn arb_op() -> impl Strategy<Value = Erc20Op> {
    prop_oneof![
        (0..N, 0u64..4).prop_map(|(to, value)| Erc20Op::Transfer {
            to: AccountId::new(to),
            value
        }),
        (0..N, 0..N, 0u64..4).prop_map(|(from, to, value)| Erc20Op::TransferFrom {
            from: AccountId::new(from),
            to: AccountId::new(to),
            value,
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
            spender: ProcessId::new(spender),
        }),
        Just(Erc20Op::TotalSupply),
    ]
}

proptest! {
    /// Concurrent histories recorded against a sharded token linearize,
    /// for arbitrary initial states and stripe counts.
    #[test]
    fn sharded_histories_linearize(
        balances in vec(0u64..10, N),
        approvals in vec((0..N, 0..N, 1u64..6), 0..5),
        shard_exp in 0u32..4, // 1, 2, 4 or 8 shards over 4 accounts
        scripts in vec(vec(arb_op(), 1..7), 2..4),
    ) {
        let mut initial = Erc20State::from_balances(balances);
        for &(a, p, v) in &approvals {
            initial.set_allowance(AccountId::new(a), ProcessId::new(p), v);
        }
        let token = ShardedErc20::with_shards(initial.clone(), 1 << shard_exp);
        let recorder: Arc<Recorder<Erc20Op, Erc20Resp>> = Arc::new(Recorder::new());
        std::thread::scope(|s| {
            for (t, script) in scripts.iter().enumerate() {
                let recorder = Arc::clone(&recorder);
                let token = &token;
                s.spawn(move || {
                    let caller = ProcessId::new(t);
                    for op in script {
                        let id = recorder.invoke(caller, op.clone());
                        let resp = token.apply(caller, op);
                        recorder.ret(id, resp);
                    }
                });
            }
        });
        let history = Arc::try_unwrap(recorder)
            .expect("all recorder handles dropped")
            .into_history();
        let spec = Erc20Spec::new(initial);
        let result = check_linearizable(&spec, &spec.initial_state(), &history);
        prop_assert!(result.is_ok(), "history not linearizable: {:?}", result.err());
    }

    /// Supply conservation under concurrency, the cheap global invariant:
    /// whatever interleaving the scheduler produces, no op mints or burns.
    #[test]
    fn sharded_conserves_supply(
        balances in vec(0u64..50, N),
        shard_exp in 0u32..4,
        scripts in vec(vec(arb_op(), 1..40), 2..5),
    ) {
        let supply: u64 = balances.iter().sum();
        let token = Arc::new(ShardedErc20::with_shards(
            Erc20State::from_balances(balances),
            1 << shard_exp,
        ));
        std::thread::scope(|s| {
            for (t, script) in scripts.iter().enumerate() {
                let token = Arc::clone(&token);
                s.spawn(move || {
                    for op in script {
                        token.apply(ProcessId::new(t), op);
                    }
                });
            }
        });
        prop_assert_eq!(token.total_supply(), supply);
        prop_assert_eq!(token.snapshot().total_supply(), supply);
    }
}
