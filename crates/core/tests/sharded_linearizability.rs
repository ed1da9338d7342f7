//! Property-based linearizability of [`ShardedErc20`] and
//! [`ShardedErc1155`].
//!
//! Mirrors the recorded-history stress tests in `shared::tests`, but lets
//! proptest drive the degrees of freedom the fixed-seed tests pin down:
//! the initial state (balances and outstanding approvals) and the
//! per-thread operation scripts. Every recorded concurrent history
//! must linearize against the sequential `Erc20Spec` (`Erc1155Spec`)
//! from the same initial state.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ConcurrentToken, ShardedErc20};
use tokensync_core::standards::erc1155::{
    Erc1155Op, Erc1155Spec, Erc1155State, ShardedErc1155, TypeId,
};
use tokensync_spec::{check_linearizable, AccountId, History, ObjectType, ProcessId, Recorder};

const N: usize = 4;
/// Token types of the ERC1155 cases.
const TYPES: usize = 3;

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

/// ERC1155 ops over `N` accounts and `TYPES` types; batches of up to
/// four rows may repeat a type id.
fn arb_1155_op() -> impl Strategy<Value = Erc1155Op> {
    prop_oneof![
        (0..N, 0..N, 0..TYPES, 0u64..4).prop_map(|(from, to, t, value)| Erc1155Op::Transfer {
            from: AccountId::new(from),
            to: AccountId::new(to),
            type_id: TypeId::new(t),
            value,
        }),
        (0..N, 0..N, vec((0..TYPES, 0u64..4), 0..5)).prop_map(|(from, to, rows)| {
            Erc1155Op::BatchTransfer {
                from: AccountId::new(from),
                to: AccountId::new(to),
                entries: rows.into_iter().map(|(t, v)| (TypeId::new(t), v)).collect(),
            }
        }),
        (0..N, 0..2usize).prop_map(|(operator, on)| Erc1155Op::SetApprovalForAll {
            operator: ProcessId::new(operator),
            on: on == 1,
        }),
        (0..N, 0..TYPES).prop_map(|(account, t)| Erc1155Op::BalanceOf {
            account: AccountId::new(account),
            type_id: TypeId::new(t),
        }),
        (0..TYPES).prop_map(|t| Erc1155Op::TotalSupply {
            type_id: TypeId::new(t)
        }),
    ]
}

/// Runs each script on its own thread against `object`, caller `t` for
/// script `t`, and returns the recorded history.
fn record<T: ConcurrentObject>(object: &T, scripts: &[Vec<T::Op>]) -> History<T::Op, T::Resp> {
    let recorder: Arc<Recorder<T::Op, T::Resp>> = Arc::new(Recorder::new());
    std::thread::scope(|s| {
        for (t, script) in scripts.iter().enumerate() {
            let recorder = Arc::clone(&recorder);
            s.spawn(move || {
                let caller = ProcessId::new(t);
                for op in script {
                    let id = recorder.invoke(caller, op.clone());
                    let resp = object.apply(caller, op);
                    recorder.ret(id, resp);
                }
            });
        }
    });
    Arc::try_unwrap(recorder)
        .expect("all recorder handles dropped")
        .into_history()
}

proptest! {
    /// Concurrent histories recorded against a sharded token linearize,
    /// for arbitrary initial states.
    #[test]
    fn sharded_histories_linearize(
        balances in vec(0u64..10, N),
        approvals in vec((0..N, 0..N, 1u64..6), 0..5),
        scripts in vec(vec(arb_op(), 1..7), 2..4),
    ) {
        let mut initial = Erc20State::from_balances(balances);
        for &(a, p, v) in &approvals {
            initial.set_allowance(AccountId::new(a), ProcessId::new(p), v);
        }
        let token = ShardedErc20::from_state(initial.clone());
        let history = record(&token, &scripts);
        let spec = Erc20Spec::new(initial);
        let result = check_linearizable(&spec, &spec.initial_state(), &history);
        prop_assert!(result.is_ok(), "history not linearizable: {:?}", result.err());
    }

    /// The same for ERC1155 over `N` accounts × `TYPES` types: random
    /// balances (zeros included) and operator pairs, 2–3
    /// threads of 1–6 ops. The live balances must still sum to every
    /// type's supply afterwards.
    #[test]
    fn sharded_1155_histories_linearize(
        balances in vec(vec(0u64..4, TYPES), N),
        operators in vec((0..N, 0..N), 0..4),
        scripts in vec(vec(arb_1155_op(), 1..7), 2..4),
    ) {
        let mut initial = Erc1155State::deploy(N, ProcessId::new(0), &[0; TYPES]);
        for (a, row) in balances.iter().enumerate() {
            for (t, &v) in row.iter().enumerate() {
                initial.set_balance(AccountId::new(a), TypeId::new(t), v);
            }
        }
        for &(h, o) in operators.iter().filter(|(h, o)| h != o) {
            initial.set_operator(AccountId::new(h), ProcessId::new(o), true);
        }
        let multi = ShardedErc1155::from_state(initial.clone());
        let history = record(&multi, &scripts);
        let supplies: Vec<_> = (0..TYPES).map(|t| initial.total_supply(TypeId::new(t))).collect();
        let spec = Erc1155Spec::new(initial);
        let result = check_linearizable(&spec, &spec.initial_state(), &history);
        prop_assert!(result.is_ok(), "history not linearizable: {:?}", result.err());
        prop_assert_eq!(multi.audit_supplies(), supplies);
    }

    /// Supply conservation under concurrency, the cheap global invariant:
    /// whatever interleaving the scheduler produces, no op mints or burns.
    #[test]
    fn sharded_conserves_supply(
        balances in vec(0u64..50, N),
        scripts in vec(vec(arb_op(), 1..40), 2..5),
    ) {
        let supply: u64 = balances.iter().sum();
        let token = Arc::new(ShardedErc20::from_state(Erc20State::from_balances(balances)));
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
