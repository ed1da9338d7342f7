//! Linearizable concurrent implementations of the ERC20 token object.
//!
//! The paper's model assumes processes access the token as a linearizable
//! shared object. Two implementations are provided behind the
//! [`ConcurrentToken`] interface:
//!
//! * [`ShardedErc20`] — one lock over the whole state, with incremental
//!   snapshots; the object the serving path runs. That path has one
//!   writer per object (one engine thread applies every op, the store
//!   drains at the batch seal on the same thread, and each replica
//!   applies to its own object), so it scales out by objects, not by
//!   locks inside one object.
//! * [`SharedErc20`] — per-account locks acquired in ascending index order;
//!   disjoint accounts proceed in parallel. This is the implementation the
//!   consensus constructions run on.
//!
//! Both are differentially tested against the sequential specification
//! ([`Erc20Spec`](crate::erc20::Erc20Spec) over
//! [`Erc20State`](crate::erc20::Erc20State)) and checked for
//! linearizability with recorded histories.

mod fine;
mod interface;
pub(crate) mod marks;
mod sharded;

pub use fine::SharedErc20;
pub use interface::{apply_erc20, ConcurrentObject, ConcurrentToken};
pub use sharded::ShardedErc20;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tokensync_spec::{check_linearizable, AccountId, ObjectType, ProcessId, Recorder};

    use crate::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};

    use super::*;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn random_op(rng: &mut StdRng, n: usize) -> Erc20Op {
        match rng.gen_range(0..6) {
            0 => Erc20Op::Transfer {
                to: a(rng.gen_range(0..n)),
                value: rng.gen_range(0..4),
            },
            1 => Erc20Op::TransferFrom {
                from: a(rng.gen_range(0..n)),
                to: a(rng.gen_range(0..n)),
                value: rng.gen_range(0..4),
            },
            2 => Erc20Op::Approve {
                spender: p(rng.gen_range(0..n)),
                value: rng.gen_range(0..6),
            },
            3 => Erc20Op::BalanceOf {
                account: a(rng.gen_range(0..n)),
            },
            4 => Erc20Op::Allowance {
                account: a(rng.gen_range(0..n)),
                spender: p(rng.gen_range(0..n)),
            },
            _ => Erc20Op::TotalSupply,
        }
    }

    /// Runs `threads` worker threads of random operations against `token`,
    /// recording the history, and checks it linearizes against the
    /// sequential specification.
    fn linearizability_stress<T: ConcurrentToken>(token: &T, initial: Erc20State, seed: u64) {
        let threads = 3;
        let ops_per_thread = 6; // 18 ops total: comfortably within checker range
        let recorder: Arc<Recorder<Erc20Op, Erc20Resp>> = Arc::new(Recorder::new());
        std::thread::scope(|s| {
            for t in 0..threads {
                let recorder = Arc::clone(&recorder);
                let token = &token;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed + t as u64);
                    for _ in 0..ops_per_thread {
                        let op = random_op(&mut rng, token.accounts());
                        let id = recorder.invoke(p(t), op.clone());
                        let resp = token.apply(p(t), &op);
                        recorder.ret(id, resp);
                    }
                });
            }
        });
        let history = Arc::try_unwrap(recorder).unwrap().into_history();
        let spec = Erc20Spec::new(initial);
        check_linearizable(&spec, &spec.initial_state(), &history)
            .unwrap_or_else(|e| panic!("history not linearizable: {e}"));
    }

    fn seeded_initial() -> Erc20State {
        let mut q = Erc20State::from_balances(vec![8, 5, 3]);
        q.set_allowance(a(0), p(1), 4);
        q.set_allowance(a(1), p(2), 4);
        q
    }

    #[test]
    fn fine_token_linearizable_under_stress() {
        for seed in 0..8 {
            let initial = seeded_initial();
            let token = SharedErc20::from_state(initial.clone());
            linearizability_stress(&token, initial, seed * 100 + 7);
        }
    }

    #[test]
    fn sharded_token_linearizable_under_stress() {
        for seed in 0..8 {
            let initial = seeded_initial();
            let token = ShardedErc20::from_state(initial.clone());
            linearizability_stress(&token, initial, seed * 100 + 13);
        }
    }

    #[test]
    fn implementations_agree_on_sequential_script() {
        let initial = seeded_initial();
        let fine = SharedErc20::from_state(initial.clone());
        let sharded = ShardedErc20::from_state(initial.clone());
        let mut oracle = initial;
        let spec = Erc20Spec::new(Erc20State::new(0));
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..300 {
            let caller = p(rng.gen_range(0..3));
            let op = random_op(&mut rng, 3);
            let expected = spec.apply(&mut oracle, caller, &op);
            assert_eq!(fine.apply(caller, &op), expected, "fine diverged on {op:?}");
            assert_eq!(
                sharded.apply(caller, &op),
                expected,
                "sharded diverged on {op:?}"
            );
        }
        assert_eq!(fine.snapshot(), oracle);
        assert_eq!(sharded.snapshot(), oracle);
    }

    #[test]
    fn supply_conserved_under_heavy_concurrency() {
        let token = Arc::new(SharedErc20::from_state(Erc20State::from_balances(vec![
            100, 100, 100, 100,
        ])));
        std::thread::scope(|s| {
            for t in 0..4 {
                let token = Arc::clone(&token);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for _ in 0..500 {
                        let op = random_op(&mut rng, 4);
                        token.apply(p(t), &op);
                    }
                });
            }
        });
        assert_eq!(token.total_supply(), 400);
    }
}
