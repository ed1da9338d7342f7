//! **B2 — consensus-object latency vs k.**
//!
//! One full k-process decision (all proposers racing on threads) for each
//! construction: Algorithm 1 over an ERC20 token (`TokenConsensus`),
//! the k-AT race (`AtConsensus`), hardware CAS (`CasConsensus`), and the
//! ERC777/ERC721 adaptations. Expected shape: all scale gently with k
//! (one object op + a k-scan each); CAS is the floor.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tokensync_consensus::{CasConsensus, Consensus};
use tokensync_core::setup::sync_state_fixture;
use tokensync_core::shared::SharedErc20;
use tokensync_core::standards::erc721::Erc721Consensus;
use tokensync_core::standards::erc777::Erc777Consensus;
use tokensync_core::token_consensus::TokenConsensus;
use tokensync_kat::AtConsensus;
use tokensync_spec::{AccountId, ProcessId};

fn race<F: Fn(ProcessId) -> usize + Sync>(k: usize, propose: F) {
    std::thread::scope(|s| {
        for i in 0..k {
            let propose = &propose;
            s.spawn(move || propose(ProcessId::new(i)));
        }
    });
}

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus_latency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for k in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("token_alg1", k), &k, |b, &k| {
            b.iter(|| {
                let (state, witness) = sync_state_fixture(k, k + 1, 64);
                let cons: Arc<TokenConsensus<SharedErc20, usize>> = Arc::new(TokenConsensus::new(
                    SharedErc20::from_state(state),
                    witness,
                    AccountId::new(k),
                ));
                race(k, |p| cons.propose(p, p.index()));
            });
        });
        group.bench_with_input(BenchmarkId::new("kat", k), &k, |b, &k| {
            b.iter(|| {
                let cons: Arc<AtConsensus<usize>> = Arc::new(AtConsensus::new(k));
                race(k, |p| cons.propose(p, p.index()));
            });
        });
        group.bench_with_input(BenchmarkId::new("cas", k), &k, |b, &k| {
            b.iter(|| {
                let cons: Arc<CasConsensus<usize>> = Arc::new(CasConsensus::new(k));
                race(k, |p| cons.propose(p, p.index()));
            });
        });
        group.bench_with_input(BenchmarkId::new("erc777", k), &k, |b, &k| {
            b.iter(|| {
                let cons: Arc<Erc777Consensus<usize>> = Arc::new(Erc777Consensus::new(k, 64));
                race(k, |p| cons.propose(p, p.index()));
            });
        });
        group.bench_with_input(BenchmarkId::new("erc721", k), &k, |b, &k| {
            b.iter(|| {
                let cons: Arc<Erc721Consensus<usize>> = Arc::new(Erc721Consensus::new(k));
                race(k, |p| cons.propose(p, p.index()));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_consensus);
criterion_main!(benches);
