//! Seeded inputs: every workload's starting state and op script, made
//! here from `--seed` and nothing else. The product only ever sees the
//! generated ops.
//!
//! Self-contained on purpose (its own generator, no shared workload
//! module): a later change to another bench's generators must not move
//! this benchmark's inputs.
//!
//! Every serving script is built so that **no operation fails**: each
//! mutating op returns `TRUE` in every linearization the pipeline may
//! pick (balances and allowances are far larger than the script can
//! spend), so the generator can state each op's expected response up
//! front and the drivers can check replies without a shadow execution.

use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155Resp, Erc1155State, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, Erc721Resp, Erc721State, TokenId};
use tokensync_spec::{AccountId, ProcessId};

/// SplitMix64: small, fast, and good enough to decorrelate streams
/// seeded with consecutive integers.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from the other generators' streams
    /// by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = Self(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// ranges used here).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Zipfian rank sampler over `0..n`, rank 0 most popular, skew
/// `theta ∈ [0, 1)` — the Gray et al. closed form YCSB uses: `O(n)` to
/// build, `O(1)` per draw.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A sampler over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `theta` is outside `[0, 1)`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 2 && (0.0..1.0).contains(&theta));
        let zeta = |count: usize| (1..=count).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// One rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        rank.min(self.n - 1)
    }
}

/// A script and, op for op, the response the sequential oracle gives —
/// in any order the pipeline may commit it (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Script<Op, Resp> {
    /// `(caller, op)` in submission order.
    pub ops: Vec<(ProcessId, Op)>,
    /// `expect[i]` answers `ops[i]`.
    pub expect: Vec<Resp>,
}

impl<Op, Resp> Script<Op, Resp> {
    fn with_capacity(ops: usize) -> Self {
        Self {
            ops: Vec::with_capacity(ops),
            expect: Vec::with_capacity(ops),
        }
    }

    fn push(&mut self, caller: usize, op: Op, expect: Resp) {
        self.ops.push((ProcessId::new(caller), op));
        self.expect.push(expect);
    }
}

/// How a script is dealt to `conns` connections: connection `c` sends
/// ops `c, c + conns, c + 2·conns, …` — **interleaved**, never
/// contiguous halves. With contiguous halves both connections would
/// spend from the same cyclic run of sources at the same time and no
/// batch would commute (a sizing probe measured bypass 0.35 instead of
/// 1.00 that way).
pub fn interleaved(len: usize, conns: usize, conn: usize) -> impl Iterator<Item = usize> {
    (conn..len).step_by(conns.max(1))
}

/// Balance every account of the serving workloads starts with.
const FUNDS: u64 = 1_000_000;

/// `tcp_disjoint` / `replica_quorum` state: `n` funded ERC20 accounts.
pub fn erc20_funded(n: usize) -> Erc20State {
    Erc20State::from_balances(vec![FUNDS; n])
}

/// Owner-disjoint ERC20 transfers: op `i` is spent by source `i mod
/// n/2` (first half) into a sink of the second half, so any run of up
/// to `n/2` consecutive ops has distinct sources, only credits its
/// sinks, and sources ∩ sinks = ∅ — the paper's no-synchronization
/// regime. The seed picks the sink pairing and the amounts.
pub fn erc20_disjoint(n: usize, ops: usize, seed: u64) -> Script<Erc20Op, Erc20Resp> {
    assert!(n >= 2);
    let mut rng = Rng::new(seed, 1);
    let half = n / 2;
    let shift = rng.below(half);
    let mut script = Script::with_capacity(ops);
    for i in 0..ops {
        let src = i % half;
        let op = Erc20Op::Transfer {
            to: AccountId::new(half + (src + shift) % half),
            value: 1 + rng.below(2) as u64,
        };
        script.push(src, op, Erc20Resp::Bool(true));
    }
    script
}

/// `tcp_durable_1155` state: every account holds [`FUNDS`] of each of
/// `types` token types.
pub fn erc1155_funded(n: usize, types: usize) -> Erc1155State {
    let mut state = Erc1155State::deploy(n, ProcessId::new(0), &vec![0; types]);
    for t in 0..types {
        for a in 0..n {
            state.set_balance(AccountId::new(a), TypeId::new(t), FUNDS);
        }
    }
    state
}

/// ERC1155 `BatchTransfer`s of 1–4 type rows by the source's owner.
/// Sources stripe over the first half of the accounts and sinks are
/// drawn from the second, except `hot_percent`% of the batches, which
/// all drain **account 0** and therefore must serialize.
pub fn erc1155_batches(
    n: usize,
    types: usize,
    ops: usize,
    seed: u64,
    hot_percent: usize,
) -> Script<Erc1155Op, Erc1155Resp> {
    assert!(n >= 4 && types > 0 && hot_percent <= 100);
    let mut rng = Rng::new(seed, 2);
    let half = n / 2;
    let mut script = Script::with_capacity(ops);
    for i in 0..ops {
        let from = if rng.below(100) < hot_percent {
            0
        } else {
            i % half
        };
        let rows = 1 + rng.below(4.min(types));
        let first = rng.below(types);
        let op = Erc1155Op::BatchTransfer {
            from: AccountId::new(from),
            to: AccountId::new(half + rng.below(n - half)),
            entries: (0..rows)
                .map(|r| (TypeId::new((first + r) % types), 1 + rng.below(2) as u64))
                .collect(),
        };
        script.push(from, op, Erc1155Resp::TRUE);
    }
    script
}

/// Allowance each hot-row spender starts with and every re-`approve`
/// restores at least: more than a script can spend.
const HOT_ALLOWANCE: u64 = 1 << 40;

/// `embed_hotrow` state: `n` funded accounts, account 0 rich enough to
/// be drained all script long, and spenders `1..=k` enabled on its
/// allowance row — a state in the paper's class `Q_{k+1}`.
pub fn hot_row_state(n: usize, k: usize) -> Erc20State {
    assert!(k + 1 < n);
    let mut balances = vec![FUNDS; n];
    balances[0] = 1 << 50;
    let mut state = Erc20State::from_balances(balances);
    for spender in 1..=k {
        state.set_allowance(AccountId::new(0), ProcessId::new(spender), HOT_ALLOWANCE);
    }
    state
}

/// The hot allowance row: 70% `transferFrom`s by the `k` spenders
/// racing on account 0, 10% re-`approve`s of that row by its owner (the
/// race of the paper's Theorem 3), 20% cold transfers among the
/// accounts behind the row.
pub fn hot_row(n: usize, ops: usize, seed: u64, k: usize) -> Script<Erc20Op, Erc20Resp> {
    assert!(k >= 1 && k + 2 < n);
    let mut rng = Rng::new(seed, 3);
    let cold = n - k - 1;
    let mut script = Script::with_capacity(ops);
    for _ in 0..ops {
        let (caller, op) = match rng.below(10) {
            0..=6 => (
                1 + rng.below(k),
                Erc20Op::TransferFrom {
                    from: AccountId::new(0),
                    to: AccountId::new(1 + rng.below(n - 1)),
                    value: 1 + rng.below(2) as u64,
                },
            ),
            7 => (
                0,
                Erc20Op::Approve {
                    spender: ProcessId::new(1 + rng.below(k)),
                    value: HOT_ALLOWANCE + rng.below(1 << 20) as u64,
                },
            ),
            _ => {
                let src = k + 1 + rng.below(cold);
                let hop = 1 + rng.below(cold - 1);
                (
                    src,
                    Erc20Op::Transfer {
                        to: AccountId::new(k + 1 + (src - k - 1 + hop) % cold),
                        value: 1 + rng.below(2) as u64,
                    },
                )
            }
        };
        script.push(caller, op, Erc20Resp::Bool(true));
    }
    script
}

/// `embed_disjoint721` state: `tokens` ids, all minted, token `t` owned
/// by process `t mod processes`.
pub fn erc721_minted(processes: usize, tokens: usize) -> Erc721State {
    Erc721State::minted_round_robin(processes, tokens, tokens)
}

/// ERC721 reads beside writes, all commuting: 70% `TransferFrom`s that
/// cycle over token ids `[0, tokens/2)` — so any run of up to `tokens/2`
/// consecutive ops moves distinct tokens — each issued by the token's
/// current owner (tracked here) to a *different* process, so the token
/// cell is its whole footprint; 30% `OwnerOf` reads over
/// `[tokens/2, tokens)`, which no transfer ever touches.
pub fn erc721_disjoint(
    processes: usize,
    tokens: usize,
    ops: usize,
    seed: u64,
) -> Script<Erc721Op, Erc721Resp> {
    assert!(processes >= 2 && tokens >= 2);
    let mut rng = Rng::new(seed, 4);
    let half = tokens / 2;
    let mut owner: Vec<usize> = (0..half).map(|t| t % processes).collect();
    let mut moved = 0usize;
    let mut script = Script::with_capacity(ops);
    for _ in 0..ops {
        if rng.below(10) < 7 {
            let token = moved % half;
            moved += 1;
            let from = owner[token];
            let to = (from + 1 + rng.below(processes - 1)) % processes;
            owner[token] = to;
            let op = Erc721Op::TransferFrom {
                from: ProcessId::new(from),
                to: ProcessId::new(to),
                token: TokenId::new(token),
            };
            script.push(from, op, Erc721Resp::TRUE);
        } else {
            let token = half + rng.below(tokens - half);
            let op = Erc721Op::OwnerOf {
                token: TokenId::new(token),
            };
            let holder = Some(ProcessId::new(token % processes));
            script.push(rng.below(processes), op, Erc721Resp::Process(holder));
        }
    }
    script
}

/// `recover_1m` state: `n` funded accounts, each approving its right
/// neighbour for [`FUNDS`].
pub fn erc20_mixed_state(n: usize) -> Erc20State {
    let mut state = erc20_funded(n);
    for i in 0..n {
        state.set_allowance(AccountId::new(i), ProcessId::new((i + 1) % n), FUNDS);
    }
    state
}

/// The log `recover_1m` replays: 60% transfers, 20% approvals, 20%
/// `transferFrom`s (each by the source's approved right neighbour),
/// accounts Zipf-distributed with account 0 hottest, so the replay
/// partitioner meets real conflict chains: same-source spends, credits
/// into spenders, approvals racing `transferFrom`s on one allowance
/// row. Amounts stay tiny against [`FUNDS`] and approvals never lower an
/// allowance below it, so every op still answers `TRUE` in any order.
pub fn zipf_mixed(n: usize, ops: usize, seed: u64, theta: f64) -> Script<Erc20Op, Erc20Resp> {
    let mut rng = Rng::new(seed, 5);
    let zipf = Zipf::new(n, theta);
    // A different account: hop a uniform non-zero distance around the ring.
    let other = |rng: &mut Rng, not: usize| (not + 1 + rng.below(n - 1)) % n;
    let mut script = Script::with_capacity(ops);
    for _ in 0..ops {
        let (caller, op) = match rng.below(10) {
            0..=5 => {
                let caller = zipf.sample(&mut rng);
                let mut to = zipf.sample(&mut rng);
                if to == caller {
                    to = other(&mut rng, caller);
                }
                let op = Erc20Op::Transfer {
                    to: AccountId::new(to),
                    value: rng.below(4) as u64,
                };
                (caller, op)
            }
            6..=7 => {
                let caller = zipf.sample(&mut rng);
                // Half re-approve the neighbour `transferFrom`s spend
                // through, half approve someone arbitrary.
                let spender = if rng.below(2) == 0 {
                    (caller + 1) % n
                } else {
                    zipf.sample(&mut rng)
                };
                let op = Erc20Op::Approve {
                    spender: ProcessId::new(spender),
                    value: FUNDS + rng.below(8) as u64,
                };
                (caller, op)
            }
            _ => {
                let from = zipf.sample(&mut rng);
                let mut to = zipf.sample(&mut rng);
                if to == from {
                    to = other(&mut rng, from);
                }
                let op = Erc20Op::TransferFrom {
                    from: AccountId::new(from),
                    to: AccountId::new(to),
                    value: rng.below(4) as u64,
                };
                ((from + 1) % n, op)
            }
        };
        script.push(caller, op, Erc20Resp::Bool(true));
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokensync_core::erc20::Erc20Spec;
    use tokensync_core::standards::erc1155::Erc1155Spec;
    use tokensync_core::standards::erc721::Erc721Spec;
    use tokensync_pipeline::Scheduler;
    use tokensync_spec::ObjectType;

    /// The benchmark's batch size: `BatchConfig::default().max_ops`.
    const WINDOW: usize = 1024;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        assert_eq!(erc20_disjoint(64, 500, 7), erc20_disjoint(64, 500, 7));
        assert_ne!(erc20_disjoint(64, 500, 7), erc20_disjoint(64, 500, 8));
        assert_eq!(
            erc1155_batches(64, 8, 500, 7, 5),
            erc1155_batches(64, 8, 500, 7, 5)
        );
        assert_ne!(
            erc1155_batches(64, 8, 500, 7, 5),
            erc1155_batches(64, 8, 500, 8, 5)
        );
        assert_eq!(hot_row(64, 500, 7, 8), hot_row(64, 500, 7, 8));
        assert_ne!(hot_row(64, 500, 7, 8), hot_row(64, 500, 8, 8));
        assert_eq!(
            erc721_disjoint(16, 64, 500, 7),
            erc721_disjoint(16, 64, 500, 7)
        );
        assert_ne!(
            erc721_disjoint(16, 64, 500, 7),
            erc721_disjoint(16, 64, 500, 8)
        );
        assert_eq!(zipf_mixed(64, 500, 7, 0.6), zipf_mixed(64, 500, 7, 0.6));
        assert_ne!(zipf_mixed(64, 500, 7, 0.6), zipf_mixed(64, 500, 8, 0.6));
    }

    /// The sequential oracle, run over the script in submission order,
    /// answers exactly what the generator promised.
    fn oracle_agrees<S: ObjectType>(spec: &S, script: &Script<S::Op, S::Resp>) {
        let mut state = spec.initial_state();
        for (i, (caller, op)) in script.ops.iter().enumerate() {
            let resp = spec.apply(&mut state, *caller, op);
            assert_eq!(resp, script.expect[i], "op {i}: {op:?}");
        }
    }

    #[test]
    fn expected_responses_are_the_oracles() {
        oracle_agrees(
            &Erc20Spec::new(erc20_funded(64)),
            &erc20_disjoint(64, 5_000, 3),
        );
        oracle_agrees(
            &Erc1155Spec::new(erc1155_funded(64, 8)),
            &erc1155_batches(64, 8, 5_000, 3, 5),
        );
        oracle_agrees(
            &Erc20Spec::new(hot_row_state(64, 8)),
            &hot_row(64, 5_000, 3, 8),
        );
        oracle_agrees(
            &Erc721Spec::new(erc721_minted(16, 64)),
            &erc721_disjoint(16, 64, 5_000, 3),
        );
        // Few accounts: the hot ones are hit thousands of times.
        oracle_agrees(
            &Erc20Spec::new(erc20_mixed_state(64)),
            &zipf_mixed(64, 50_000, 3, 0.6),
        );
    }

    /// Every batch the engine can cut from two interleaved connections:
    /// a run of connection 0's ops plus a run of connection 1's, the
    /// two runs `skew` ops apart in the script (the connections drift by
    /// at most their windows, 1024 ops together).
    fn two_connection_batches<Op: Clone>(
        ops: &[(ProcessId, Op)],
        skew: usize,
    ) -> Vec<Vec<(ProcessId, Op)>> {
        let even: Vec<usize> = interleaved(ops.len(), 2, 0).collect();
        let odd: Vec<usize> = interleaved(ops.len(), 2, 1).collect();
        let per_conn = WINDOW / 2;
        (0..even.len().min(odd.len()) - per_conn - skew)
            .step_by(per_conn)
            .map(|at| {
                let run = |conn: &[usize], from: usize| {
                    conn[from..from + per_conn]
                        .iter()
                        .map(|&i| ops[i].clone())
                        .collect::<Vec<_>>()
                };
                let mut batch = run(&even, at);
                batch.extend(run(&odd, at + skew));
                batch
            })
            .collect()
    }

    #[test]
    fn disjoint_scripts_commute_in_every_window_and_across_connections() {
        let mut scheduler = Scheduler::new();
        let erc20 = erc20_disjoint(100_000, 40_000, 11).ops;
        let erc721 = erc721_disjoint(4096, 200_000, 40_000, 11).ops;
        for window in erc20.chunks(WINDOW) {
            assert!(scheduler.batch_commutes(window));
        }
        for window in erc721.chunks(WINDOW) {
            assert!(scheduler.batch_commutes(window));
        }
        for skew in [0, 1, 511, 1024, 4096] {
            for batch in two_connection_batches(&erc20, skew) {
                assert!(scheduler.batch_commutes(&batch), "erc20 skew {skew}");
            }
            for batch in two_connection_batches(&erc721, skew) {
                assert!(scheduler.batch_commutes(&batch), "erc721 skew {skew}");
            }
        }
    }

    #[test]
    fn contended_scripts_do_not_commute() {
        let mut scheduler = Scheduler::new();
        let hot = hot_row(1_000, 4 * WINDOW, 5, 8).ops;
        assert!(hot.chunks(WINDOW).all(|w| !scheduler.batch_commutes(w)));
        let batches = erc1155_batches(100_000, 8, 4 * WINDOW, 5, 5).ops;
        assert!(batches.chunks(WINDOW).all(|w| !scheduler.batch_commutes(w)));
        // Without the hot 5% the same generator is owner-disjoint.
        let calm = erc1155_batches(100_000, 8, 4 * WINDOW, 5, 0).ops;
        assert!(calm.chunks(WINDOW).all(|w| scheduler.batch_commutes(w)));
    }

    #[test]
    fn hot_row_mix_and_shape() {
        let (n, k) = (1_000, 8);
        let script = hot_row(n, 20_000, 9, k);
        let (mut spends, mut approves, mut cold) = (0, 0, 0);
        for (caller, op) in &script.ops {
            match *op {
                Erc20Op::TransferFrom { from, to, .. } => {
                    assert!(from.index() == 0 && to.index() != 0);
                    assert!((1..=k).contains(&caller.index()));
                    spends += 1;
                }
                Erc20Op::Approve { spender, .. } => {
                    assert!(caller.index() == 0 && (1..=k).contains(&spender.index()));
                    approves += 1;
                }
                Erc20Op::Transfer { to, .. } => {
                    assert!(caller.index() > k && to.index() > k);
                    assert_ne!(to.index(), caller.index(), "self-transfer");
                    cold += 1;
                }
                ref other => panic!("unexpected {other:?}"),
            }
        }
        assert!((13_500..14_500).contains(&spends), "{spends}");
        assert!((1_700..2_300).contains(&approves), "{approves}");
        assert!((3_700..4_300).contains(&cold), "{cold}");
    }

    #[test]
    fn erc721_transfers_never_target_their_sender() {
        for (caller, op) in erc721_disjoint(16, 64, 5_000, 2).ops {
            if let Erc721Op::TransferFrom { from, to, token } = op {
                assert_eq!(caller, from, "only the owner moves a token");
                assert_ne!(from, to, "self-transfer");
                assert!(token.index() < 32);
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1_000, 0.6);
        let mut rng = Rng::new(1, 99);
        let mut counts = vec![0usize; 1_000];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > 10 * counts[500].max(1),
            "{} vs {}",
            counts[0],
            counts[500]
        );
        let log = zipf_mixed(1_000, 5_000, 4, 0.6);
        let mut scheduler = Scheduler::new();
        assert!(log.ops.chunks(WINDOW).all(|w| !scheduler.batch_commutes(w)));
        for (caller, op) in &log.ops {
            match *op {
                Erc20Op::Transfer { to, .. } => assert_ne!(to, caller.own_account()),
                Erc20Op::TransferFrom { from, to, .. } => assert_ne!(from, to),
                _ => {}
            }
        }
    }
}
