//! Linearizable concurrent implementations of the ERC20 token object.
//!
//! The paper's model assumes processes access the token as a linearizable
//! shared object. Three implementations are provided behind the
//! [`ConcurrentToken`] interface:
//!
//! * [`CoarseErc20`] — one global lock; the obviously correct baseline.
//! * [`SharedErc20`] — per-account locks acquired in ascending index order;
//!   disjoint accounts proceed in parallel. This is the implementation the
//!   consensus constructions run on.
//! * [`ShardedErc20`] — accounts lock-striped across `min(n, 4 × cores)`
//!   shards with a lock-free cached `totalSupply`; the fast path for
//!   million-account deployments, where a mutex per account and
//!   all-account global reads stop scaling.
//!
//! All are differentially tested against the sequential
//! [`Erc20Token`](crate::erc20::Erc20Token) and checked for
//! linearizability with recorded histories.

mod coarse;
mod fine;
mod interface;
mod sharded;
pub(crate) mod striped;

pub use coarse::CoarseErc20;
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
        crossbeam::scope(|s| {
            for t in 0..threads {
                let recorder = Arc::clone(&recorder);
                let token = &token;
                s.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(seed + t as u64);
                    for _ in 0..ops_per_thread {
                        let op = random_op(&mut rng, token.accounts());
                        let id = recorder.invoke(p(t), op.clone());
                        let resp = token.apply(p(t), &op);
                        recorder.ret(id, resp);
                    }
                });
            }
        })
        .unwrap();
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
    fn coarse_token_linearizable_under_stress() {
        for seed in 0..8 {
            let initial = seeded_initial();
            let token = CoarseErc20::from_state(initial.clone());
            linearizability_stress(&token, initial, seed * 100);
        }
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
        // Stripe counts below, at, and above the account count, so the
        // same-shard two-account path and the cross-shard path both race.
        for (seed, shards) in (0..8).zip([1, 2, 2, 4, 4, 8, 8, 16].into_iter().cycle()) {
            let initial = seeded_initial();
            let token = ShardedErc20::with_shards(initial.clone(), shards);
            linearizability_stress(&token, initial, seed * 100 + 13);
        }
    }

    #[test]
    fn implementations_agree_on_sequential_script() {
        let initial = seeded_initial();
        let coarse = CoarseErc20::from_state(initial.clone());
        let fine = SharedErc20::from_state(initial.clone());
        let sharded = ShardedErc20::with_shards(initial.clone(), 2);
        let mut oracle = initial;
        let spec = Erc20Spec::new(Erc20State::new(0));
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..300 {
            let caller = p(rng.gen_range(0..3));
            let op = random_op(&mut rng, 3);
            let expected = spec.apply(&mut oracle, caller, &op);
            assert_eq!(
                coarse.apply(caller, &op),
                expected,
                "coarse diverged on {op:?}"
            );
            assert_eq!(fine.apply(caller, &op), expected, "fine diverged on {op:?}");
            assert_eq!(
                sharded.apply(caller, &op),
                expected,
                "sharded diverged on {op:?}"
            );
        }
        assert_eq!(coarse.state_snapshot(), oracle);
        assert_eq!(fine.state_snapshot(), oracle);
        assert_eq!(sharded.state_snapshot(), oracle);
    }

    #[test]
    fn supply_conserved_under_heavy_concurrency() {
        let token = Arc::new(SharedErc20::from_state(Erc20State::from_balances(vec![
            100, 100, 100, 100,
        ])));
        crossbeam::scope(|s| {
            for t in 0..4 {
                let token = Arc::clone(&token);
                s.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for _ in 0..500 {
                        let op = random_op(&mut rng, 4);
                        token.apply(p(t), &op);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(token.total_supply(), 400);
    }
}
