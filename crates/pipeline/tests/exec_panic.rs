//! A panicking object must surface its panic from [`execute`], not hang it.
//!
//! `execute` applies a multi-wave batch on the calling thread; a panic
//! in one op must unwind out of it rather than leave the caller waiting
//! on work that never finishes. The probe runs `execute` on its own
//! thread and waits with a timeout, so a hang fails the test instead of
//! stalling the suite.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::Duration;

use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_pipeline::schedule::schedule;
use tokensync_pipeline::{execute, ExecConfig, ScheduleConfig};
use tokensync_spec::{AccountId, ProcessId};

/// The value whose transfer makes [`Faulty::apply`] panic.
const POISON: u64 = 13;

/// An ERC20 object that panics on one op and serves every other op.
struct Faulty(ShardedErc20);

impl ConcurrentObject for Faulty {
    type Op = Erc20Op;
    type Resp = Erc20Resp;
    type State = Erc20State;

    fn apply(&self, process: ProcessId, op: &Erc20Op) -> Erc20Resp {
        if let Erc20Op::Transfer { value: POISON, .. } = op {
            panic!("poisoned transfer");
        }
        self.0.apply(process, op)
    }
    fn snapshot(&self) -> Erc20State {
        self.0.snapshot()
    }
}

#[test]
fn panicking_op_surfaces_from_execute() {
    // Every source sends twice, so the schedule stacks two waves of 16.
    // The poisoned op sits in the first wave.
    let round = |r: u64| {
        (0..16).map(move |i| {
            let value = if r == 0 && i == 3 { POISON } else { 1 };
            (
                ProcessId::new(i),
                Erc20Op::Transfer {
                    to: AccountId::new(32 + i),
                    value,
                },
            )
        })
    };
    let ops: Vec<(ProcessId, Erc20Op)> = round(0).chain(round(1)).collect();
    let plan = schedule(&ops, &ScheduleConfig::default());
    assert_eq!(plan.waves.len(), 2, "rounds must stack into two waves");
    let cfg = ExecConfig::default();
    let token = Faulty(ShardedErc20::from_state(Erc20State::from_balances(vec![
        10;
        64
    ])));

    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let result =
            std::panic::catch_unwind(AssertUnwindSafe(|| execute(&token, &ops, &plan, &cfg)));
        let _ = done.send(result.is_err());
    });
    assert_eq!(
        outcome.recv_timeout(Duration::from_secs(10)),
        Ok(true),
        "execute must re-raise the op's panic within 10 s"
    );
}
