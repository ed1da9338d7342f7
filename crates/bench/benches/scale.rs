//! **B7 — account-count scaling of the concurrent token implementations.**
//!
//! Sweeps the number of accounts under a Zipfian (hot-account) workload
//! and compares the two lock architectures: one lock per account
//! (`SharedErc20`) and one lock over the whole object (`ShardedErc20`,
//! the object the serving path runs, where one engine thread applies
//! every op). Per-account locks let threads on disjoint accounts proceed
//! in parallel but pay a mutex per account; one lock serializes every op
//! and costs one uncontended acquisition when a single thread applies
//! them.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tokensync_bench::harness::run_split;
use tokensync_bench::workloads::{funded_state, zipf_ops};
use tokensync_core::erc20::Erc20Op;
use tokensync_core::shared::{ConcurrentToken, ShardedErc20, SharedErc20};
use tokensync_spec::ProcessId;

const OPS: usize = 2048;
const THREADS: usize = 4;
const THETA: f64 = 0.99;

fn run_threads<T: ConcurrentToken>(token: &Arc<T>, workload: &[(ProcessId, Erc20Op)]) {
    run_split(token, workload, THREADS);
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for n in [16usize, 1024, 16384] {
        let initial = funded_state(n);
        let workload = zipf_ops(n, OPS, 7, THETA);
        group.throughput(Throughput::Elements(OPS as u64));
        group.bench_with_input(BenchmarkId::new("fine", n), &n, |b, _| {
            b.iter(|| {
                let token = Arc::new(SharedErc20::from_state(initial.clone()));
                run_threads(&token, &workload);
            });
        });
        group.bench_with_input(BenchmarkId::new("sharded", n), &n, |b, _| {
            b.iter(|| {
                let token = Arc::new(ShardedErc20::from_state(initial.clone()));
                run_threads(&token, &workload);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
