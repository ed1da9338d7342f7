//! Thread harness shared by the bench targets.

use std::sync::Arc;

use tokensync_core::shared::ConcurrentObject;
use tokensync_spec::ProcessId;

/// Splits `workload` into `threads` contiguous chunks and applies each
/// chunk on its own thread against `token` — any standard's object,
/// blocking until all finish.
///
/// # Panics
///
/// Panics (propagated) if a worker thread panics.
pub fn run_split<T: ConcurrentObject>(
    token: &Arc<T>,
    workload: &[(ProcessId, T::Op)],
    threads: usize,
) {
    let chunk = workload.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in workload.chunks(chunk) {
            let token = Arc::clone(token);
            s.spawn(move || {
                for (caller, op) in part {
                    token.apply(*caller, op);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{funded_state, mixed_ops};
    use tokensync_core::shared::{ConcurrentToken, ShardedErc20};

    #[test]
    fn applies_every_op_once() {
        let n = 4;
        let token = Arc::new(ShardedErc20::from_state(funded_state(n)));
        let workload = mixed_ops(n, 100, 9);
        run_split(&token, &workload, 3);
        // Supply conservation: each op applied atomically, none dropped
        // into a torn state.
        assert_eq!(token.total_supply(), (n as u64) * 1000);
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        let token = Arc::new(ShardedErc20::from_state(funded_state(2)));
        run_split(&token, &[], 4); // empty workload
        let workload = mixed_ops(2, 3, 1);
        run_split(&token, &workload, 8); // more threads than ops
    }
}
