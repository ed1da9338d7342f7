//! The consensus race of Algorithm 1 and its adaptations, written once as a
//! deterministic step machine.
//!
//! Mover `i` **publishes** its proposal in register `R[i]`, **fires** one
//! decisive operation on the token, and **scans**: it issues reads until
//! one names the winner, and decides the winner's register. Only the
//! decisive part differs between Algorithm 1, the `k`-AT drain and the
//! Section 6 races, and that part is a [`Race`].
//!
//! The machine runs over a [`RaceEnv`]: the token through `apply`, the
//! registers through `write`/`read`. One [`step`] is one access to the
//! environment, the granularity at which the wait-free adversary
//! interleaves processes, so the model checker (an explicit state) and
//! threads (a live object) run the same code.

use crate::ids::ProcessId;

/// The decisive part of one consensus race: which operation mover `i`
/// fires, which read scan position `j` issues, and how its response names
/// the winner.
///
/// Implementations must guarantee that once any fire has taken effect the
/// scan names one winner and keeps naming it, and that the winner's own
/// fire has started (so its register holds its proposal).
pub trait Race {
    /// The token's operation alphabet.
    type Op;
    /// The token's response alphabet.
    type Resp;

    /// The number of movers.
    fn movers(&self) -> usize;

    /// The process that runs as mover `i`; by default `p_i`.
    fn process(&self, i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// The decisive operation mover `i` fires.
    fn fire(&self, i: usize) -> Self::Op;

    /// What scan position `j` does.
    fn scan(&self, j: usize) -> Scan<Self::Op>;

    /// The winner named by the response to position `j`'s read, or `None`
    /// to go on to position `j + 1`.
    fn judge(&self, j: usize, resp: &Self::Resp) -> Option<usize>;
}

/// One position of the scan.
#[derive(Debug)]
pub enum Scan<Op> {
    /// Issue this read and ask [`Race::judge`].
    Read(Op),
    /// Every other mover has lost, so `winner` won. A mover whose own fire
    /// has landed or lost knows this without a read and decides in the
    /// same step. A bystander that has not fired ([`peek`]) issues `check`
    /// instead and asks [`Race::judge`].
    Inferred {
        /// The mover that won if the scan got here.
        winner: usize,
        /// The read that confirms it for a bystander.
        check: Op,
    },
    /// The scan names nobody: the race is unresolved, or broken.
    End,
}

/// Where the race runs: the token and the proposal registers `R[0..k)`.
pub trait RaceEnv<Op, Resp> {
    /// The proposal type.
    type Value;

    /// Applies `op` to the token as `process`.
    fn apply(&mut self, process: ProcessId, op: &Op) -> Resp;

    /// Writes `value` to register `R[i]`.
    fn write(&mut self, i: usize, value: Self::Value);

    /// Reads register `R[i]` (`None`: never written).
    fn read(&mut self, i: usize) -> Option<Self::Value>;
}

/// A mover's program counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pc {
    /// Next: write the proposal to `R[i]`.
    Publish,
    /// Next: fire the decisive operation.
    Fire,
    /// Next: scan position `j`.
    Scan(usize),
}

/// Runs one step of mover `i` at `pc`: one access to `env`.
///
/// Returns `None` while the mover has more steps to take, and
/// `Some(decision)` once it decides. The decision is the winner's register,
/// read in the step that finds the winner; it is `None` (`⊥`) if that
/// register was never written or the scan named nobody.
pub fn step<R, E>(
    race: &R,
    env: &mut E,
    i: usize,
    pc: &mut Pc,
    value: &E::Value,
) -> Option<Option<E::Value>>
where
    R: Race + ?Sized,
    E: RaceEnv<R::Op, R::Resp> + ?Sized,
    E::Value: Clone,
{
    match *pc {
        Pc::Publish => {
            env.write(i, value.clone());
            *pc = Pc::Fire;
            None
        }
        Pc::Fire => {
            env.apply(race.process(i), &race.fire(i));
            *pc = Pc::Scan(0);
            None
        }
        Pc::Scan(j) => {
            let winner = match race.scan(j) {
                Scan::Read(op) => race.judge(j, &env.apply(race.process(i), &op)),
                Scan::Inferred { winner, .. } => Some(winner),
                Scan::End => return Some(None),
            };
            match winner {
                Some(w) => Some(env.read(w)),
                None => {
                    *pc = Pc::Scan(j + 1);
                    None
                }
            }
        }
    }
}

/// Runs mover `i`'s whole race with proposal `value`: publish, fire, scan.
/// Returns the decision, `None` for `⊥`.
pub fn propose<R, E>(race: &R, env: &mut E, i: usize, value: E::Value) -> Option<E::Value>
where
    R: Race + ?Sized,
    E: RaceEnv<R::Op, R::Resp> + ?Sized,
    E::Value: Clone,
{
    let mut pc = Pc::Publish;
    loop {
        if let Some(decision) = step(race, env, i, &mut pc, &value) {
            return decision;
        }
    }
}

/// The decided value as a bystander sees it, without firing: `None` until
/// some fire has taken effect. Reads as mover 0's process.
pub fn peek<R, E>(race: &R, env: &mut E) -> Option<E::Value>
where
    R: Race + ?Sized,
    E: RaceEnv<R::Op, R::Resp> + ?Sized,
{
    let observer = race.process(0);
    let mut j = 0;
    loop {
        let read = match race.scan(j) {
            Scan::Read(op) | Scan::Inferred { check: op, .. } => op,
            Scan::End => return None,
        };
        if let Some(w) = race.judge(j, &env.apply(observer, &read)) {
            return env.read(w);
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The minimal race: movers claim a one-shot slot, and reading the
    /// slot names the winner.
    struct Slot;

    impl Race for Slot {
        type Op = Option<usize>; // Some(i): claim for i; None: read
        type Resp = Option<usize>;
        fn movers(&self) -> usize {
            3
        }
        fn fire(&self, i: usize) -> Option<usize> {
            Some(i)
        }
        fn scan(&self, j: usize) -> Scan<Option<usize>> {
            if j == 0 {
                Scan::Read(None)
            } else {
                Scan::End
            }
        }
        fn judge(&self, _j: usize, resp: &Option<usize>) -> Option<usize> {
            *resp
        }
    }

    #[derive(Default)]
    struct Env {
        slot: Option<usize>,
        regs: [Option<&'static str>; 3],
    }

    impl RaceEnv<Option<usize>, Option<usize>> for Env {
        type Value = &'static str;
        fn apply(&mut self, _p: ProcessId, op: &Option<usize>) -> Option<usize> {
            if self.slot.is_none() {
                self.slot = *op;
            }
            self.slot
        }
        fn write(&mut self, i: usize, v: &'static str) {
            self.regs[i] = Some(v);
        }
        fn read(&mut self, i: usize) -> Option<&'static str> {
            self.regs[i]
        }
    }

    #[test]
    fn first_fire_decides() {
        let mut env = Env::default();
        assert_eq!(peek(&Slot, &mut env), None);
        // Interleaved: both publish, mover 2 fires first, then mover 0.
        let (mut pc0, mut pc2) = (Pc::Publish, Pc::Publish);
        assert_eq!(step(&Slot, &mut env, 0, &mut pc0, &"zero"), None);
        assert_eq!(step(&Slot, &mut env, 2, &mut pc2, &"two"), None);
        assert_eq!(peek(&Slot, &mut env), None, "published is not fired");
        assert_eq!(step(&Slot, &mut env, 2, &mut pc2, &"two"), None);
        assert_eq!(step(&Slot, &mut env, 0, &mut pc0, &"zero"), None);
        assert_eq!(pc0, Pc::Scan(0));
        assert_eq!(
            step(&Slot, &mut env, 0, &mut pc0, &"zero"),
            Some(Some("two"))
        );
        assert_eq!(propose(&Slot, &mut env, 1, "one"), Some("two"));
        assert_eq!(peek(&Slot, &mut env), Some("two"));
    }

    #[test]
    fn unwritten_winner_and_empty_scan_decide_bottom() {
        let mut env = Env {
            slot: Some(1),
            ..Env::default()
        };
        assert_eq!(propose(&Slot, &mut env, 0, "zero"), None, "R[1] unwritten");
        let mut pc = Pc::Scan(1);
        assert_eq!(step(&Slot, &mut env, 0, &mut pc, &"zero"), Some(None));
    }
}
