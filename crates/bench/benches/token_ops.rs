//! **B1 — token implementation throughput.**
//!
//! Compares the three ways to host a linearizable ERC20 object: one global
//! lock (`CoarseErc20`), per-account locks (`SharedErc20`), and the
//! consensus-backed universal construction (`Universal<Erc20Spec>` — the
//! "run everything through consensus" blockchain baseline). Expected
//! shape: fine-grained ≥ coarse ≫ universal, with the gap widening as
//! threads are added — the parallelism the paper says total ordering
//! wastes.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tokensync_bench::workloads::{funded_state, mixed_ops};
use tokensync_consensus::Universal;
use tokensync_core::erc20::Erc20Spec;
use tokensync_core::shared::{CoarseErc20, ConcurrentObject, ConcurrentToken, SharedErc20};

const N_ACCOUNTS: usize = 16;
const OPS_PER_THREAD: usize = 256;

fn run_threads<T: ConcurrentToken>(token: &Arc<T>, threads: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let token = Arc::clone(token);
            s.spawn(move || {
                for (caller, op) in mixed_ops(N_ACCOUNTS, OPS_PER_THREAD, t as u64) {
                    token.apply(caller, &op);
                }
            });
        }
    });
}

fn bench_token_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("token_ops");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for threads in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        group.bench_with_input(
            BenchmarkId::new("coarse", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let token = Arc::new(CoarseErc20::from_state(funded_state(N_ACCOUNTS)));
                    run_threads(&token, threads);
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fine", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let token = Arc::new(SharedErc20::from_state(funded_state(N_ACCOUNTS)));
                    run_threads(&token, threads);
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("universal", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let spec = Erc20Spec::new(funded_state(N_ACCOUNTS));
                    let obj = Arc::new(Universal::new(spec, threads.max(1)));
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let obj = Arc::clone(&obj);
                            s.spawn(move || {
                                for (_, op) in mixed_ops(N_ACCOUNTS, OPS_PER_THREAD, t as u64) {
                                    obj.perform(tokensync_spec::ProcessId::new(t), op);
                                }
                            });
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_token_ops);
criterion_main!(benches);
