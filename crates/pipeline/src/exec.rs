//! Wave execution: a scoped worker pool applying one batch's schedule to
//! any [`ConcurrentObject`].
//!
//! Waves execute in order; within a wave the ops are split across up to
//! [`ExecConfig::workers`] scoped threads. Because a wave is pairwise
//! commuting (the scheduler's invariant), *any* thread interleaving
//! produces the same responses and the same post-wave state — the
//! executor needs no synchronization beyond the object's own
//! linearizability, and the result is deterministic even though the
//! execution is parallel. The executor is standard-agnostic: it drives
//! `T::apply` for whatever op alphabet the object serves. Waves too
//! narrow to amortize a thread spawn run inline
//! ([`ExecConfig::min_ops_per_worker`]); the serial lane always runs
//! inline, in submission order.
//!
//! **Wave fusion.** Consecutive waves wide enough for the pool are
//! *fused*: the pool is spawned once for the whole run of waves and the
//! workers rendezvous on a [`Barrier`] at each wave boundary instead of
//! being joined and respawned. The wave-order contract is unchanged —
//! every op of wave `w` completes before any op of wave `w+1` starts
//! (the barrier is exactly the old join point) — but a multi-wave batch
//! pays one thread-spawn per run instead of one per wave.
//!
//! **Bypass execution.** [`execute_unordered`] is the adaptive-bypass
//! fast path: for a batch the scheduler's probe has certified pairwise
//! commuting, it applies the ops with *no* wave structure at all —
//! chunked across the pool, no ordering between chunks — which is sound
//! for exactly the same reason a wave is: commuting neighbors can be
//! exchanged freely, so any interleaving linearizes in submission order.

use std::sync::Barrier;

use tokensync_core::shared::ConcurrentObject;
use tokensync_spec::ProcessId;

use crate::schedule::Schedule;

/// Worker-pool sizing.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Maximum threads per wave.
    pub workers: usize,
    /// A wave shorter than `workers × min_ops_per_worker` runs inline —
    /// spawning threads for a handful of ops costs more than it buys.
    pub min_ops_per_worker: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |c| c.get()),
            min_ops_per_worker: 32,
        }
    }
}

/// Executes `schedule` over `ops` against `token`; returns the responses
/// indexed like `ops`.
///
/// # Panics
///
/// Propagates panics from worker threads (a panicking object is a bug,
/// not a recoverable condition).
pub fn execute<T: ConcurrentObject + ?Sized>(
    token: &T,
    ops: &[(ProcessId, T::Op)],
    schedule: &Schedule,
    cfg: &ExecConfig,
) -> Vec<T::Resp> {
    debug_assert_eq!(schedule.ops(), ops.len());
    // `None` placeholder; every scheduled index is filled below.
    let mut responses: Vec<Option<T::Resp>> = vec![None; ops.len()];
    let workers = cfg.workers.max(1);
    let wide =
        |wave: &Vec<usize>| workers > 1 && wave.len() >= workers * cfg.min_ops_per_worker.max(1);
    let mut w = 0;
    while w < schedule.waves.len() {
        if !wide(&schedule.waves[w]) {
            for &idx in &schedule.waves[w] {
                let (caller, op) = &ops[idx];
                responses[idx] = Some(token.apply(*caller, op));
            }
            w += 1;
            continue;
        }
        // Fuse the maximal run of pool-worthy waves: one spawn, a
        // barrier per internal wave boundary.
        let mut end = w + 1;
        while end < schedule.waves.len() && wide(&schedule.waves[end]) {
            end += 1;
        }
        for (idx, resp) in execute_fused(token, ops, &schedule.waves[w..end], workers) {
            responses[idx] = Some(resp);
        }
        w = end;
    }
    for &idx in &schedule.serial {
        let (caller, op) = &ops[idx];
        responses[idx] = Some(token.apply(*caller, op));
    }
    responses
        .into_iter()
        .map(|r| r.expect("every scheduled index executed"))
        .collect()
}

/// Executes a fused run of waves on one scoped pool: worker `k` takes
/// the `k`-th chunk of every wave, and all workers rendezvous on a
/// barrier between waves, so the cross-wave ordering contract is exactly
/// what per-wave join gave — without respawning the pool.
fn execute_fused<T: ConcurrentObject + ?Sized>(
    token: &T,
    ops: &[(ProcessId, T::Op)],
    run: &[Vec<usize>],
    workers: usize,
) -> Vec<(usize, T::Resp)> {
    let barrier = Barrier::new(workers);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rendezvous = Rendezvous {
                        barrier,
                        left: run.len() - 1,
                    };
                    let mut out: Vec<(usize, T::Resp)> = Vec::new();
                    for wave in run {
                        let chunk = wave.len().div_ceil(workers);
                        let lo = (k * chunk).min(wave.len());
                        let hi = ((k + 1) * chunk).min(wave.len());
                        for &idx in &wave[lo..hi] {
                            let (caller, op) = &ops[idx];
                            out.push((idx, token.apply(*caller, op)));
                        }
                        // The fusion point: the barrier replaces the old
                        // spawn/join edge between consecutive waves.
                        rendezvous.wait();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wave worker panicked"))
            .collect::<Vec<_>>()
    });
    parts.into_iter().flatten().collect()
}

/// One worker's remaining wave-boundary rendezvous in a fused run.
/// Dropping it makes every rendezvous not yet made, so a worker that
/// unwinds mid-run still releases its siblings, and the scope can join
/// them and re-raise the panic instead of hanging.
struct Rendezvous<'a> {
    barrier: &'a Barrier,
    left: usize,
}

impl Rendezvous<'_> {
    /// Waits at the next wave boundary; a no-op after the last wave.
    fn wait(&mut self) {
        if self.left > 0 {
            self.left -= 1;
            self.barrier.wait();
        }
    }
}

impl Drop for Rendezvous<'_> {
    fn drop(&mut self) {
        while self.left > 0 {
            self.wait();
        }
    }
}

/// Executes a batch the scheduler's probe certified pairwise commuting,
/// with no wave structure: ops are chunked contiguously across the pool
/// and applied with no cross-chunk ordering. Responses come back in
/// submission-index order, and — because every pair commutes — they are
/// exactly the responses the submission-order sequential execution
/// produces, at every state. Batches too small for the pool run inline.
///
/// This is the adaptive-bypass fast path; calling it on a batch with a
/// conflicting pair forfeits that guarantee, which is why the engine
/// only reaches it behind [`Scheduler::batch_commutes`].
///
/// [`Scheduler::batch_commutes`]: crate::schedule::Scheduler::batch_commutes
///
/// # Panics
///
/// Propagates panics from worker threads (a panicking object is a bug,
/// not a recoverable condition).
pub fn execute_unordered<T: ConcurrentObject + ?Sized>(
    token: &T,
    ops: &[(ProcessId, T::Op)],
    cfg: &ExecConfig,
) -> Vec<T::Resp> {
    let workers = cfg.workers.max(1);
    if workers == 1 || ops.len() < workers * cfg.min_ops_per_worker.max(1) {
        return ops.iter().map(|(c, op)| token.apply(*c, op)).collect();
    }
    let chunk = ops.len().div_ceil(workers);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(c, op)| token.apply(*c, op))
                        .collect::<Vec<T::Resp>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bypass worker panicked"))
            .collect::<Vec<_>>()
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScheduleConfig};
    use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
    use tokensync_core::shared::ShardedErc20;
    use tokensync_core::standards::erc721::{
        Erc721Op, Erc721Resp, Erc721State, ShardedErc721, TokenId,
    };
    use tokensync_spec::AccountId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    fn run(ops: &[(ProcessId, Erc20Op)], workers: usize, min: usize) -> (Vec<Erc20Resp>, u64) {
        let n = 64;
        let token = ShardedErc20::from_state(Erc20State::from_balances(vec![10; n]));
        let s = schedule(ops, &ScheduleConfig::default());
        let responses = execute(
            &token,
            ops,
            &s,
            &ExecConfig {
                workers,
                min_ops_per_worker: min,
            },
        );
        (responses, token.snapshot().total_supply())
    }

    #[test]
    fn parallel_and_inline_paths_agree() {
        let ops: Vec<(ProcessId, Erc20Op)> = (0..32)
            .map(|i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(32 + i),
                        value: (i as u64) % 4,
                    },
                )
            })
            .collect();
        let (inline, s1) = run(&ops, 1, 1);
        let (parallel, s2) = run(&ops, 4, 1);
        assert_eq!(inline, parallel, "wave determinism broken");
        assert_eq!(s1, s2);
        assert_eq!(s1, 640);
    }

    #[test]
    fn narrow_waves_run_inline_without_changing_results() {
        let ops = vec![
            (p(0), Erc20Op::Transfer { to: a(1), value: 3 }),
            (
                p(0),
                Erc20Op::Transfer {
                    to: a(1),
                    value: 20, // fails after the first debit (10 - 3 < 20)
                },
            ),
        ];
        let (resps, supply) = run(&ops, 8, 64);
        assert_eq!(resps, vec![Erc20Resp::TRUE, Erc20Resp::FALSE]);
        assert_eq!(supply, 640);
    }

    #[test]
    fn fused_wave_runs_agree_with_inline_execution() {
        // Two full-width conflicting rounds: every source repeats, so the
        // schedule has two consecutive waves of 16 ops each. With
        // workers=4/min=1 both waves are pool-worthy and fuse under one
        // scope (barrier at the boundary); the responses and final state
        // must equal the single-threaded execution's.
        let round = |r: u64| {
            (0..16).map(move |i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(32 + i),
                        value: 6 + r, // second round: 7 > 10 - 6 fails
                    },
                )
            })
        };
        let ops: Vec<(ProcessId, Erc20Op)> = round(0).chain(round(1)).collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 2, "rounds must stack into two waves");
        let (inline, s1) = run(&ops, 1, 1);
        let (fused, s2) = run(&ops, 4, 1);
        assert_eq!(inline, fused, "fused run diverged from inline");
        assert_eq!(s1, s2);
        // Round 1 succeeds, round 2 fails (insufficient funds): the
        // barrier kept wave order, otherwise some round-2 op could win.
        assert!(inline[..16].iter().all(|r| *r == Erc20Resp::TRUE));
        assert!(inline[16..].iter().all(|r| *r == Erc20Resp::FALSE));
    }

    #[test]
    fn unordered_execution_matches_sequential_on_commuting_batches() {
        let ops: Vec<(ProcessId, Erc20Op)> = (0..24)
            .map(|i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(32 + i),
                        value: (i as u64) % 5,
                    },
                )
            })
            .collect();
        let token = ShardedErc20::from_state(Erc20State::from_balances(vec![10; 64]));
        let inline = execute_unordered(
            &token,
            &ops,
            &ExecConfig {
                workers: 1,
                min_ops_per_worker: 1,
            },
        );
        let token2 = ShardedErc20::from_state(Erc20State::from_balances(vec![10; 64]));
        let parallel = execute_unordered(
            &token2,
            &ops,
            &ExecConfig {
                workers: 4,
                min_ops_per_worker: 1,
            },
        );
        assert_eq!(inline, parallel);
        assert_eq!(token.snapshot(), token2.snapshot());
    }

    #[test]
    fn executes_nft_waves_in_parallel() {
        // The same executor, a different standard: owner-disjoint NFT
        // transfers land in one wave and run across workers.
        let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(16, 64, 16));
        let ops: Vec<(ProcessId, Erc721Op)> = (0..16)
            .map(|i| {
                (
                    p(i),
                    Erc721Op::TransferFrom {
                        from: p(i),
                        to: p((i + 1) % 16),
                        token: TokenId::new(i),
                    },
                )
            })
            .collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1);
        let resps = execute(
            &nft,
            &ops,
            &s,
            &ExecConfig {
                workers: 4,
                min_ops_per_worker: 1,
            },
        );
        assert!(resps.iter().all(|r| *r == Erc721Resp::TRUE));
        let snap = nft.snapshot();
        for i in 0..16 {
            assert_eq!(snap.owner_of(TokenId::new(i)), Some(p((i + 1) % 16)));
        }
    }
}
