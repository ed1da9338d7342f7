//! Deterministic ERC20 operation workloads shared by the bench targets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_spec::{AccountId, ProcessId};

/// Uniform draw from `0..n` excluding `not` (requires `n >= 2`): sample
/// the `n - 1` admissible values and shift past the hole.
fn distinct_from(rng: &mut StdRng, n: usize, not: usize) -> usize {
    let raw = rng.gen_range(0..n - 1);
    if raw >= not {
        raw + 1
    } else {
        raw
    }
}

/// The shared op mix: ~60% transfers, ~20% approvals, ~20% transferFroms,
/// amounts 0..4, with accounts drawn by `pick`.
///
/// Degenerate pairs are excluded (for `n >= 2`): a `Transfer` never names
/// the caller's own account (a self-transfer is a no-op that flatters
/// throughput numbers) and a `TransferFrom` never has `from == to` (the
/// same no-op through the allowance path).
fn op_from_mix(
    rng: &mut StdRng,
    n: usize,
    caller: ProcessId,
    mut pick: impl FnMut(&mut StdRng) -> usize,
) -> Erc20Op {
    match rng.gen_range(0..10) {
        0..=5 => {
            let mut to = pick(rng);
            if n >= 2 && to == caller.index() {
                to = distinct_from(rng, n, caller.index());
            }
            Erc20Op::Transfer {
                to: AccountId::new(to),
                value: rng.gen_range(0..4),
            }
        }
        6..=7 => Erc20Op::Approve {
            spender: ProcessId::new(pick(rng)),
            value: rng.gen_range(0..8),
        },
        _ => {
            let from = pick(rng);
            let mut to = pick(rng);
            if n >= 2 && to == from {
                to = distinct_from(rng, n, from);
            }
            Erc20Op::TransferFrom {
                from: AccountId::new(from),
                to: AccountId::new(to),
                value: rng.gen_range(0..4),
            }
        }
    }
}

/// A deterministic mixed ERC20 workload over uniformly random accounts:
/// ~60% transfers, ~20% approvals, ~20% transferFroms, amounts 0..4.
pub fn mixed_ops(n: usize, ops: usize, seed: u64) -> Vec<(ProcessId, Erc20Op)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let caller = ProcessId::new(rng.gen_range(0..n));
            let op = op_from_mix(&mut rng, n, caller, |rng| rng.gen_range(0..n));
            (caller, op)
        })
        .collect()
}

/// The same op mix as [`mixed_ops`] with callers and accounts drawn from a
/// [`ZipfSampler`] — hot-account traffic, the contention profile real
/// token deployments exhibit (a few exchange/contract accounts absorb most
/// transfers). Account 0 is the hottest.
pub fn zipf_ops(n: usize, ops: usize, seed: u64, theta: f64) -> Vec<(ProcessId, Erc20Op)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(n, theta);
    (0..ops)
        .map(|_| {
            let caller = ProcessId::new(zipf.sample(&mut rng));
            let op = op_from_mix(&mut rng, n, caller, |rng| zipf.sample(rng));
            (caller, op)
        })
        .collect()
}

/// A Zipfian rank sampler over `0..n` (rank 0 most popular) with skew
/// `theta ∈ [0, 1)`; `theta = 0` degenerates to uniform and `theta ≈ 0.99`
/// is the classic hot-spot workload.
///
/// Uses the Gray–Sundstrom formula popularized by YCSB's
/// `ZipfianGenerator`: after an `O(n)` precomputation of the generalized
/// harmonic number `ζ(n, θ)`, each sample is `O(1)` — no CDF table, so a
/// million-account sampler costs three floats, not megabytes.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must lie in [0, 1)");
        let zeta =
            |count: usize| -> f64 { (1..=count).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draws one rank in `0..n`, rank 0 most probable.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        // 53 uniform bits -> f64 in [0, 1).
        let u = rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        rank.min(self.n - 1)
    }
}

/// A starting state with every account funded and a few allowances set.
pub fn funded_state(n: usize) -> Erc20State {
    let mut state = Erc20State::from_balances(vec![1000; n]);
    for i in 0..n {
        state.set_allowance(AccountId::new(i), ProcessId::new((i + 1) % n), 500);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(mixed_ops(4, 32, 5), mixed_ops(4, 32, 5));
        assert_eq!(zipf_ops(16, 64, 5, 0.9), zipf_ops(16, 64, 5, 0.9));
    }

    #[test]
    fn funded_state_has_allowances() {
        let s = funded_state(3);
        assert_eq!(s.total_supply(), 3000);
        assert_eq!(s.allowance(AccountId::new(2), ProcessId::new(0)), 500);
    }

    #[test]
    fn no_self_transfers_or_degenerate_transfer_froms() {
        for (caller, op) in mixed_ops(8, 4000, 11)
            .into_iter()
            .chain(zipf_ops(8, 4000, 11, 0.99))
        {
            match op {
                Erc20Op::Transfer { to, .. } => {
                    assert_ne!(to, caller.own_account(), "self-transfer generated");
                }
                Erc20Op::TransferFrom { from, to, .. } => {
                    assert_ne!(from, to, "degenerate transferFrom generated");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut rng = StdRng::seed_from_u64(3);
        let zipf = ZipfSampler::new(1000, 0.99);
        let mut counts = [0usize; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 dominates any cold rank by an order of magnitude, and the
        // top 1% of ranks absorbs over a third of a theta=0.99 stream.
        assert!(counts[0] > 20 * counts[500].max(1));
        let head: usize = counts[..10].iter().sum();
        assert!(head > 6_000, "head too cold: {head}");
        // Every sample stays in range (the formula clamps the tail).
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(9);
        let zipf = ZipfSampler::new(4, 0.0);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1500..2500).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn single_account_workload_does_not_panic() {
        // n = 1 cannot avoid degenerate pairs; it must still generate.
        let ops = mixed_ops(1, 50, 2);
        assert_eq!(ops.len(), 50);
    }
}
