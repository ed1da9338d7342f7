//! Conflict analysis and wave scheduling: greedy graph coloring of a
//! batch's conflict graph — generic over every footprinted standard.
//!
//! Each operation's [`Footprint`] is computed once (into a reused inline
//! buffer, so the hot loop performs no steady-state allocation); a
//! per-[`Cell`](tokensync_core::analysis::Cell) registry tracks the
//! highest wave of every earlier
//! operation that touched the cell in each [`Access`] mode, so the whole
//! batch schedules in `O(ops × footprint)` — no quadratic pairwise
//! comparison. The wave assigned to an operation is one more than the
//! highest wave of any earlier conflicting operation: the classic greedy
//! coloring, which on the *precedence-closed* conflict graph of a batch
//! is exactly "earliest wave that preserves submission order between
//! conflicting ops".
//!
//! The registry itself is built for the throughput path: a [`Scheduler`]
//! owns an open-addressing table keyed by interned, pre-hashed
//! [`CellKey`]s (no SipHash, no per-lookup variant comparison) whose
//! slots are invalidated by bumping a generation stamp — clearing between
//! batches is `O(1)` and the registry allocates nothing in steady state.
//!
//! **The engine runs the schedule as a conflict monitor.** One thread
//! applies every batch in submission order, so waves add no
//! concurrency; the plan reorders nothing and only states how much of
//! the batch commuted (the [`PipelineStats`] wave, serial and bypass
//! counters). [`Scheduler::batch_commutes`] reads the same plan: a
//! batch pairwise commutes iff every op lands in wave 0.
//!
//! [`PipelineStats`]: crate::engine::PipelineStats
//!
//! The mode pairs consulted mirror [`Access::commutes_with`] exactly —
//! an update conflicts with every earlier access of its cell, a credit
//! with earlier updates and reads, a read with earlier updates and
//! credits — so the registry shortcut computes the same relation as the
//! pairwise [`Footprint::conflicts_with`]
//! (`waves_agree_with_pairwise_conflicts` in the tests cross-checks the
//! two on random ERC20 batches).
//!
//! Operations pushed past [`ScheduleConfig::max_parallel_waves`] by
//! conflicts (a hot allowance row with `k` contending spenders degenerates
//! to one op per wave) are funneled into the **serial lane**: they execute
//! sequentially, in submission order, after all waves. Any later operation
//! conflicting with a serial-lane op joins the serial lane too, so the
//! cross-lane order is still the submission order — the scheduler never
//! reorders conflicting operations, only commuting ones.

use tokensync_core::analysis::{Access, CellKey, Footprint, FootprintedOp};
use tokensync_spec::ProcessId;

/// Scheduling policy.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleConfig {
    /// Conflict chains longer than this spill into the serial lane
    /// (past it, each further wave would hold a handful of ops; the lane
    /// keeps them in submission order without wave bookkeeping).
    pub max_parallel_waves: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        Self {
            max_parallel_waves: 8,
        }
    }
}

/// The conflict plan of one batch: conflict-free commuting waves plus the
/// deterministic serial lane. Indices refer to positions in the batch's
/// op vector.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Wave `w` holds pairwise non-conflicting ops; waves execute in
    /// order, each in index order (any order within a wave would give
    /// the same responses and state).
    pub waves: Vec<Vec<usize>>,
    /// Ops executed sequentially after all waves, in submission order.
    pub serial: Vec<usize>,
    /// Conflict signals observed against the cell registry while
    /// scheduling — a cheap contention proxy (0 iff the batch is fully
    /// commuting), not an exact conflict-edge count.
    pub conflicts: usize,
}

impl Schedule {
    /// Total scheduled operations.
    pub fn ops(&self) -> usize {
        self.waves.iter().map(Vec::len).sum::<usize>() + self.serial.len()
    }

    /// Ops placed in commuting waves (not the serial lane).
    pub fn parallel_ops(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }

    /// Mean ops per commuting wave — the batch's exploitable parallelism.
    /// Greater than 1 exactly when some wave holds concurrent work.
    pub fn wave_parallelism(&self) -> f64 {
        if self.waves.is_empty() {
            return 0.0;
        }
        self.parallel_ops() as f64 / self.waves.len() as f64
    }

    /// The linearization order this plan stands for: waves in order
    /// (each internally in submission order), then the serial lane. The
    /// engine commits in submission order instead; this stays for
    /// [`execute`](crate::exec::execute) and
    /// [`append_batch`](crate::commit::CommitLog::append_batch), which
    /// only the frozen `stack` benchmark calls, and ROADMAP item 1(g)
    /// deletes it.
    pub fn commit_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.waves
            .iter()
            .flat_map(|w| w.iter().copied())
            .chain(self.serial.iter().copied())
    }
}

/// Per-cell registry entry: highest wave of an earlier op in each access
/// mode (`NONE` = no such op yet). `u32` waves keep a table slot in one
/// cache line; a batch can't reach 2³² waves (`max_parallel_waves` caps
/// them far lower).
#[derive(Clone, Copy, Debug)]
struct CellWaves {
    update: u32,
    credit: u32,
    read: u32,
}

/// Sentinel for "no earlier access": below every real wave.
const NONE: u32 = u32::MAX; // NONE.wrapping_add(1) == 0

impl Default for CellWaves {
    fn default() -> Self {
        Self {
            update: NONE,
            credit: NONE,
            read: NONE,
        }
    }
}

/// An open-addressing hash table keyed by pre-hashed [`CellKey`]s, with
/// generation-stamped slots: [`reset`](CellTable::reset) invalidates
/// every entry in `O(1)` by bumping the generation, so the table's
/// allocation is reused across batches. Linear probing over a
/// power-of-two slot array kept at most half full; the pre-computed key
/// hash is the bucket index, so a lookup costs one multiply-free probe
/// chain and no hashing.
#[derive(Debug)]
struct CellTable {
    slots: Vec<CellSlot>,
    mask: usize,
    gen: u32,
    live: usize,
}

#[derive(Clone, Copy, Debug)]
struct CellSlot {
    key: u128,
    gen: u32,
    value: CellWaves,
}

impl CellTable {
    fn new() -> Self {
        // 2048 slots cover a default 1024-op batch of ≤1-cell footprints
        // without growing; wider footprints double a few times early and
        // then stay put.
        Self::with_slots(2048)
    }

    fn with_slots(slots: usize) -> Self {
        let n = slots.next_power_of_two();
        Self {
            slots: vec![
                CellSlot {
                    key: 0,
                    gen: 0,
                    value: CellWaves::default(),
                };
                n
            ],
            mask: n - 1,
            gen: 1,
            live: 0,
        }
    }

    /// Invalidates every entry without touching the slots.
    fn reset(&mut self) {
        self.live = 0;
        if self.gen == u32::MAX {
            // Generation wrap (once per 2³² batches): re-stamp eagerly so
            // stale entries can never alias the restarted counter.
            for slot in &mut self.slots {
                slot.gen = 0;
            }
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Makes room for `more` new entries, so the next `more`
    /// [`slot`](CellTable::slot) calls move no slot.
    fn reserve(&mut self, more: usize) {
        while (self.live + more) * 2 > self.slots.len() {
            self.grow();
        }
    }

    /// The index of `key`'s slot, inserting an empty entry if absent:
    /// one probe chain serves both the lookup and the registration.
    /// Call [`reserve`](CellTable::reserve) first.
    fn slot(&mut self, key: CellKey) -> usize {
        let mut i = key.hash() as usize & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.gen != self.gen {
                self.live += 1;
                *slot = CellSlot {
                    key: key.packed(),
                    gen: self.gen,
                    value: CellWaves::default(),
                };
                return i;
            }
            if slot.key == key.packed() {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles the slot array, re-inserting this generation's entries.
    fn grow(&mut self) {
        let live: Vec<CellSlot> = self
            .slots
            .iter()
            .filter(|s| s.gen == self.gen)
            .copied()
            .collect();
        let n = self.slots.len() * 2;
        self.slots = vec![
            CellSlot {
                key: 0,
                gen: 0,
                value: CellWaves::default(),
            };
            n
        ];
        self.mask = n - 1;
        for old in live {
            // Re-derive the bucket from the stored key's hash: keys are
            // packed cells, so re-hashing is the same mix `Cell::key`
            // used. Probe linearly to the first free slot.
            let mut i = rehash(old.key) as usize & self.mask;
            while self.slots[i].gen == self.gen {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = old;
        }
    }
}

/// Recomputes a packed key's bucket hash (only needed on table growth —
/// steady-state lookups use the pre-computed [`CellKey::hash`]).
fn rehash(packed: u128) -> u64 {
    // Must match `Cell::key`'s mix exactly; cheapest way is through the
    // same public surface.
    let lo = packed as u64;
    let hi = (packed >> 64) as u64;
    let mut z = lo ^ hi ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A reusable scheduling context: owns the per-cell registry and the
/// footprint and slot buffers, so batch after batch schedules without
/// growing any of them. The engine keeps one per serving loop;
/// [`schedule`] wraps a throwaway one for one-shot callers.
#[derive(Debug)]
pub struct Scheduler {
    cells: CellTable,
    fp: Footprint,
    /// The registry slot of each of the current op's footprint cells.
    at: Vec<usize>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// A scheduler with a freshly allocated (empty) registry.
    pub fn new() -> Self {
        Self {
            cells: CellTable::new(),
            fp: Footprint::new(),
            at: Vec::new(),
        }
    }

    /// Assigns every op of `ops` a wave (or the serial lane) such that
    /// conflicting ops keep their submission order across waves and
    /// within the serial lane, while commuting ops share waves. Works for
    /// any footprinted op alphabet — ERC20, ERC721, ERC1155 traffic all
    /// schedule through this one method.
    pub fn schedule<Op: FootprintedOp>(
        &mut self,
        ops: &[(ProcessId, Op)],
        cfg: &ScheduleConfig,
    ) -> Schedule {
        let serial_wave = u32::try_from(cfg.max_parallel_waves.max(1)).unwrap_or(NONE - 1);
        self.cells.reset();
        let mut out = Schedule::default();
        for (idx, (caller, op)) in ops.iter().enumerate() {
            self.fp.clear();
            op.footprint_into(*caller, &mut self.fp);
            self.cells.reserve(self.fp.len());
            self.at.clear();
            // Highest wave of any earlier conflicting op (NONE if none).
            // This op's own cells register only below, so a cell it
            // charges twice is no conflict.
            let mut floor = NONE;
            let mut hits = 0usize;
            for (cell, access) in self.fp.iter() {
                let at = self.cells.slot(cell.key());
                self.at.push(at);
                let w = self.cells.slots[at].value;
                let mut bump = |wave: u32| {
                    if wave != NONE {
                        hits += 1;
                        if floor == NONE || wave > floor {
                            floor = wave;
                        }
                    }
                };
                // An earlier access conflicts unless it commutes with
                // ours: exactly the Access::commutes_with table.
                match access {
                    Access::Update => {
                        bump(w.update);
                        bump(w.credit);
                        bump(w.read);
                    }
                    Access::Credit => {
                        bump(w.update);
                        bump(w.read);
                    }
                    Access::Read => {
                        bump(w.update);
                        bump(w.credit);
                    }
                }
            }
            out.conflicts += hits;
            // One past the floor; serial ops saturate at the serial wave
            // so everything conflicting with them lands serial too.
            let wave = floor.wrapping_add(1).min(serial_wave);
            if wave < serial_wave {
                let wave = wave as usize;
                if out.waves.is_empty() {
                    // Wave 0 takes every op of a commuting batch.
                    out.waves.push(Vec::with_capacity(ops.len()));
                }
                if out.waves.len() <= wave {
                    out.waves.resize(wave + 1, Vec::new());
                }
                out.waves[wave].push(idx);
            } else {
                out.serial.push(idx);
            }
            // Register this op's own accesses at its assigned wave.
            for ((_, access), &at) in self.fp.iter().zip(&self.at) {
                let entry = &mut self.cells.slots[at].value;
                let slot = match access {
                    Access::Update => &mut entry.update,
                    Access::Credit => &mut entry.credit,
                    Access::Read => &mut entry.read,
                };
                if *slot == NONE || wave > *slot {
                    *slot = wave;
                }
            }
        }
        out
    }

    /// Whether `ops` pairwise commute (no cell touched by two ops in
    /// non-commuting modes), read off one [`schedule`](Self::schedule):
    /// every op in wave 0 and an empty serial lane. Intra-op repeats
    /// (one op charging a cell twice, e.g. an ERC1155 batch naming a
    /// type twice) are not conflicts.
    pub fn batch_commutes<Op: FootprintedOp>(&mut self, ops: &[(ProcessId, Op)]) -> bool {
        let plan = self.schedule(ops, &ScheduleConfig::default());
        plan.waves.len() <= 1 && plan.serial.is_empty()
    }
}

/// One-shot form of [`Scheduler::schedule`] over a throwaway context —
/// the convenience entry point tests and small callers use; the engine
/// itself retains a [`Scheduler`] so its registries persist across
/// batches.
pub fn schedule<Op: FootprintedOp>(ops: &[(ProcessId, Op)], cfg: &ScheduleConfig) -> Schedule {
    Scheduler::new().schedule(ops, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tokensync_core::analysis::footprints_conflict;
    use tokensync_core::erc20::Erc20Op;
    use tokensync_core::standards::erc1155::{Erc1155Op, TypeId};
    use tokensync_core::standards::erc721::{Erc721Op, TokenId};
    use tokensync_spec::AccountId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    fn transfer(caller: usize, to: usize, value: u64) -> (ProcessId, Erc20Op) {
        (p(caller), Erc20Op::Transfer { to: a(to), value })
    }

    fn spend(caller: usize, from: usize, to: usize) -> (ProcessId, Erc20Op) {
        (
            p(caller),
            Erc20Op::TransferFrom {
                from: a(from),
                to: a(to),
                value: 1,
            },
        )
    }

    #[test]
    fn disjoint_transfers_share_one_wave() {
        let ops: Vec<_> = (0..8).map(|i| transfer(i, 8 + i, 1)).collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1);
        assert_eq!(s.waves[0].len(), 8);
        assert!(s.serial.is_empty());
        assert_eq!(s.conflicts, 0);
        assert!(s.wave_parallelism() > 1.0);
    }

    #[test]
    fn same_source_chain_gets_one_wave_each() {
        // Three withdrawals from account 0 must keep submission order.
        let ops = vec![spend(1, 0, 1), spend(2, 0, 2), spend(3, 0, 3)];
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 3);
        for (w, wave) in s.waves.iter().enumerate() {
            assert_eq!(wave, &vec![w]);
        }
    }

    #[test]
    fn long_conflict_chains_spill_into_the_serial_lane() {
        let cfg = ScheduleConfig {
            max_parallel_waves: 2,
        };
        let ops: Vec<_> = (1..8).map(|i| spend(i, 0, i)).collect();
        let s = schedule(&ops, &cfg);
        assert_eq!(s.waves.len(), 2);
        assert_eq!(s.serial, vec![2, 3, 4, 5, 6]);
        // Submission order survives lane routing end to end.
        let order: Vec<usize> = s.commit_order().collect();
        assert_eq!(order, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn op_conflicting_with_a_serial_op_goes_serial() {
        let cfg = ScheduleConfig {
            max_parallel_waves: 1,
        };
        // Chain on account 0 fills wave 0 then spills; an unrelated
        // transfer still rides wave 0; a late op on account 0 must not
        // jump the spilled ones.
        let ops = vec![
            spend(1, 0, 1),    // wave 0
            spend(2, 0, 2),    // serial (chain)
            transfer(5, 6, 1), // wave 0 (commutes with everything here)
            spend(3, 0, 3),    // serial, after idx 1
        ];
        let s = schedule(&ops, &cfg);
        assert_eq!(s.waves[0], vec![0, 2]);
        assert_eq!(s.serial, vec![1, 3]);
    }

    #[test]
    fn hot_sink_credits_stay_parallel() {
        // Distinct owners all paying one exchange account: commuting
        // credits, one wave.
        let ops: Vec<_> = (1..9).map(|i| transfer(i, 0, 1)).collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1);
        assert_eq!(s.waves[0].len(), 8);
    }

    #[test]
    fn owner_disjoint_nft_transfers_share_one_wave() {
        // The §6 regime: transfers of distinct tokens by their owners
        // commute; two claims on one token serialize.
        let mv = |caller: usize, token: usize| {
            (
                p(caller),
                Erc721Op::TransferFrom {
                    from: p(caller),
                    to: p(7),
                    token: TokenId::new(token),
                },
            )
        };
        let ops: Vec<_> = (0..6).map(|i| mv(i, i)).collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1);
        assert_eq!(s.waves[0].len(), 6);
        // A second claim on token 0 lands one wave later.
        let mut contended = ops;
        contended.push(mv(3, 0));
        let s = schedule(&contended, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 2);
        assert_eq!(s.waves[1], vec![6]);
    }

    #[test]
    fn erc1155_batches_schedule_by_cell_intersection() {
        let batch = |caller: usize, from: usize, to: usize, types: &[usize]| {
            (
                p(caller),
                Erc1155Op::BatchTransfer {
                    from: a(from),
                    to: a(to),
                    entries: types.iter().map(|&t| (TypeId::new(t), 1)).collect(),
                },
            )
        };
        // Account-disjoint batches (even over the same types) commute on
        // the source side and merely co-credit the sinks.
        let ops = vec![
            batch(0, 0, 8, &[0, 1]),
            batch(1, 1, 8, &[0, 1]),
            batch(2, 2, 8, &[0, 1]),
            batch(0, 0, 9, &[1]), // intersects op 0's source cells
        ];
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves[0], vec![0, 1, 2]);
        assert_eq!(s.waves[1], vec![3]);
    }

    #[test]
    fn probe_agrees_with_pairwise_conflicts() {
        // batch_commutes must answer exactly "no conflicting pair".
        let mut rng = 0xA5A5_5A5A_0F0F_F0F0u64;
        let mut next = move |m: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng as usize) % m
        };
        let mut scheduler = Scheduler::new();
        let mut commuting_seen = false;
        let mut conflicting_seen = false;
        for _ in 0..200 {
            let n = 8;
            let ops: Vec<(ProcessId, Erc20Op)> = (0..6)
                .map(|_| match next(3) {
                    0 => transfer(next(n), n + next(n), next(3) as u64),
                    1 => spend(next(n), next(n), n + next(n)),
                    _ => (
                        p(next(n)),
                        Erc20Op::Approve {
                            spender: p(next(n)),
                            value: next(5) as u64,
                        },
                    ),
                })
                .collect();
            let pairwise_clean = (0..ops.len()).all(|x| {
                (x + 1..ops.len())
                    .all(|y| !footprints_conflict((ops[x].0, &ops[x].1), (ops[y].0, &ops[y].1)))
            });
            assert_eq!(
                scheduler.batch_commutes(&ops),
                pairwise_clean,
                "probe disagrees with the pairwise relation on {ops:?}"
            );
            commuting_seen |= pairwise_clean;
            conflicting_seen |= !pairwise_clean;
        }
        assert!(
            commuting_seen && conflicting_seen,
            "both outcomes exercised"
        );
    }

    #[test]
    fn probe_ignores_intra_op_repeats() {
        use tokensync_core::standards::erc1155::{Erc1155Op, TypeId};
        // One op naming the same type twice collides only with itself —
        // not a conflict. Two such ops from different accounts commute.
        let dup = |caller: usize, from: usize| {
            (
                p(caller),
                Erc1155Op::BatchTransfer {
                    from: a(from),
                    to: a(9),
                    entries: vec![(TypeId::new(0), 1), (TypeId::new(0), 2)],
                },
            )
        };
        let mut s = Scheduler::new();
        assert!(s.batch_commutes(&[dup(0, 0), dup(1, 1)]));
        // Same source account: update/update, a real conflict.
        assert!(!s.batch_commutes(&[dup(0, 0), dup(1, 0)]));
    }

    #[test]
    fn reused_scheduler_matches_fresh_schedules() {
        // The generation-stamped registry must not leak state across
        // batches: a retained Scheduler and a throwaway one agree on a
        // sequence of batches (including a table-growth-forcing one).
        let mut retained = Scheduler::new();
        let cfg = ScheduleConfig {
            max_parallel_waves: 3,
        };
        let batches: Vec<Vec<(ProcessId, Erc20Op)>> = vec![
            (0..2048).map(|i| transfer(i, 4096 + i, 1)).collect(), // grows the table
            (1..9).map(|i| spend(i, 0, i)).collect(),
            (0..8).map(|i| transfer(i, 8 + i, 1)).collect(),
        ];
        for ops in &batches {
            let a = retained.schedule(ops, &cfg);
            let b = schedule(ops, &cfg);
            assert_eq!(a.waves, b.waves);
            assert_eq!(a.serial, b.serial);
            assert_eq!(a.conflicts, b.conflicts);
            // The probe sees the same batches without cross-talk either.
            assert_eq!(
                retained.batch_commutes(ops),
                Scheduler::new().batch_commutes(ops)
            );
        }
    }

    #[test]
    fn waves_agree_with_pairwise_conflicts() {
        // The registry shortcut must equal the quadratic ground truth:
        // ops sharing a wave never conflict, and conflicting pairs appear
        // in commit order matching submission order.
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move |m: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng as usize) % m
        };
        for _ in 0..50 {
            let n = 6;
            let ops: Vec<(ProcessId, Erc20Op)> = (0..24)
                .map(|_| match next(4) {
                    0 => transfer(next(n), next(n), next(3) as u64),
                    1 => spend(next(n), next(n), next(n)),
                    2 => (
                        p(next(n)),
                        Erc20Op::Approve {
                            spender: p(next(n)),
                            value: next(5) as u64,
                        },
                    ),
                    _ => (
                        p(next(n)),
                        Erc20Op::BalanceOf {
                            account: a(next(n)),
                        },
                    ),
                })
                .collect();
            let s = schedule(
                &ops,
                &ScheduleConfig {
                    max_parallel_waves: 3,
                },
            );
            assert_eq!(s.ops(), ops.len());
            for wave in &s.waves {
                for (i, &x) in wave.iter().enumerate() {
                    for &y in &wave[i + 1..] {
                        assert!(
                            !footprints_conflict((ops[x].0, &ops[x].1), (ops[y].0, &ops[y].1)),
                            "conflicting ops {x} and {y} share a wave"
                        );
                    }
                }
            }
            // Conflicting pairs keep submission order in commit order.
            let pos: HashMap<usize, usize> =
                s.commit_order().enumerate().map(|(c, i)| (i, c)).collect();
            for x in 0..ops.len() {
                for y in x + 1..ops.len() {
                    if footprints_conflict((ops[x].0, &ops[x].1), (ops[y].0, &ops[y].1)) {
                        assert!(pos[&x] < pos[&y], "conflicting pair ({x}, {y}) reordered");
                    }
                }
            }
        }
    }
}
