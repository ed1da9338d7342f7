//! Concrete protocols for the model checker.
//!
//! * [`TokenRace`] — Algorithm 1 of the paper as a step machine over an
//!   explicit ERC20 state, with constructors for every scenario of the
//!   evaluation: genuine synchronization states (verified), overreach
//!   beyond the state's level (violations found — the Theorem 3
//!   counterexamples), `U`-violated allowances (disagreement), and
//!   oversized allowances (the verbatim-algorithm validity gap).
//! * [`AtRace`] — consensus among the owners of a `k`-shared asset
//!   transfer account (Guerraoui et al.'s lower bound), verified on the
//!   same machinery.
//! * [`Erc777Race`] and [`Erc721Race`] — the Section 6 adaptations: the
//!   full-balance `operatorSend` drain and the one-NFT `transferFrom`
//!   race, verified on the standards' own sequential states.
//! * [`MinRegisters`] — a doomed register-only consensus attempt,
//!   exhibiting the FLP-grounded fact that registers cannot solve
//!   2-process consensus.
//!
//! The four races are [`RaceProtocol`]s: the step machine of
//! `tokensync_spec::race` over the decisive parts the threaded consensus
//! objects run (`Algorithm1`, `Drain`, `NftRace`), on explicit states.

mod alg1;
mod at_race;
mod registers_only;
mod standards_race;

pub use alg1::TokenRace;
pub use at_race::AtRace;
pub use registers_only::MinRegisters;
pub use standards_race::{Erc721Race, Erc777Race};

use tokensync_spec::race::{self, Pc, Race, RaceEnv, Scan};
use tokensync_spec::{ObjectType, ProcessId};

use crate::protocol::{Protocol, Step};

/// Sentinel decided for `⊥`: a register read before being written, or a
/// scan that names nobody. The validity checker flags it because no
/// process proposes it.
pub(crate) const BOTTOM: u64 = u64::MAX;

/// A consensus race under the checker: the step machine over the decisive
/// part `R`, with `O`'s explicit state and the proposal registers as
/// `Shared`. Process `p_i` is mover `i`, proposes `i + 1`, and decides
/// `⊥` as `u64::MAX`.
#[derive(Clone, Debug)]
pub struct RaceProtocol<R, O> {
    race: R,
    object: O,
    /// Describes `p`'s fire.
    fire: fn(ProcessId) -> String,
    /// Describes `p`'s read at scan position `j`.
    read: fn(ProcessId, usize) -> String,
}

impl<R, O> Protocol for RaceProtocol<R, O>
where
    R: Race,
    O: ObjectType<Op = R::Op, Resp = R::Resp>,
{
    type Shared = (O::State, Vec<Option<u64>>);
    type Local = Pc;

    fn processes(&self) -> usize {
        self.race.movers()
    }

    fn initial_shared(&self) -> Self::Shared {
        (self.object.initial_state(), vec![None; self.processes()])
    }

    fn initial_local(&self, _p: ProcessId) -> Pc {
        Pc::Publish
    }

    fn proposal(&self, p: ProcessId) -> u64 {
        p.index() as u64 + 1
    }

    fn step(&self, shared: &mut Self::Shared, pc: &mut Pc, p: ProcessId) -> Step {
        let (state, registers) = shared;
        let mut env = Explicit {
            object: &self.object,
            state,
            registers,
        };
        match race::step(&self.race, &mut env, p.index(), pc, &self.proposal(p)) {
            None => Step::Continue,
            Some(decision) => Step::Decided(decision.unwrap_or(BOTTOM)),
        }
    }

    fn describe_step(&self, _shared: &Self::Shared, pc: &Pc, p: ProcessId) -> String {
        match *pc {
            Pc::Publish => format!("{p}: write R[{}]", p.index()),
            Pc::Fire => (self.fire)(p),
            Pc::Scan(j) => match self.race.scan(j) {
                Scan::Inferred { winner, .. } => format!("{p}: read R[{winner}] and decide"),
                _ => (self.read)(p, j),
            },
        }
    }

    fn step_bound(&self) -> usize {
        self.processes() + 3
    }
}

/// The checker's environment: an explicit object state and the registers.
struct Explicit<'a, O: ObjectType> {
    object: &'a O,
    state: &'a mut O::State,
    registers: &'a mut Vec<Option<u64>>,
}

impl<O: ObjectType> RaceEnv<O::Op, O::Resp> for Explicit<'_, O> {
    type Value = u64;

    fn apply(&mut self, process: ProcessId, op: &O::Op) -> O::Resp {
        self.object.apply(self.state, process, op)
    }

    fn write(&mut self, i: usize, value: u64) {
        self.registers[i] = Some(value);
    }

    fn read(&mut self, i: usize) -> Option<u64> {
        self.registers[i]
    }
}
