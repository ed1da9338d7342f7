//! Algorithm 1 over TCP: the third environment of the one race step
//! machine.
//!
//! The model checker runs `Algorithm1` over an explicit state, and
//! `TokenConsensus` runs it on threads over a live token. Here `k` client
//! threads run the same machine, one per participant, against a server
//! fronting a `ShardedErc20` and a `Store`: every token operation of the
//! race is one wire request. Each round races a fresh synchronization
//! state of its own; every round must reach agreement on a proposed value,
//! with acks at commit and with acks at the fsync watermark.

use std::fs;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tokensync::core::analysis::SyncWitness;
use tokensync::core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync::core::shared::{ConcurrentObject, ShardedErc20};
use tokensync::core::token_consensus::{Algorithm1, RaceMode};
use tokensync::kat::Proposals;
use tokensync::obs::Registry;
use tokensync::server::{Client, Reply, Server, ServerConfig};
use tokensync::spec::race::Race;
use tokensync::spec::{AccountId, ProcessId};
use tokensync::store::{recover, Store, StoreConfig};

/// Participants per race.
const K: usize = 4;
/// Races per ack mode: `RACE_ROUNDS` from the environment, 100 by
/// default (CI's deep job raises it).
fn rounds() -> usize {
    std::env::var("RACE_ROUNDS").map_or(100, |rounds| {
        rounds.parse().expect("RACE_ROUNDS is a number of races")
    })
}
/// Balance of each race account; every spender's allowance is `B/2 + 1`.
const B: u64 = 64;

/// One `S_K` block of `K + 1` accounts per round: `a_{r(K+1)}` holds `B`,
/// its `K - 1` spenders may each withdraw `B/2 + 1`, and the block's last
/// account is the destination. Rounds alternate the two race modes.
fn races(rounds: usize) -> (Erc20State, Vec<Algorithm1>) {
    let block = K + 1;
    let mut balances = vec![0; rounds * block];
    for r in 0..rounds {
        balances[r * block] = B;
    }
    let mut genesis = Erc20State::from_balances(balances);
    for r in 0..rounds {
        for i in 1..K {
            let spender = ProcessId::new(r * block + i);
            genesis.set_allowance(AccountId::new(r * block), spender, B / 2 + 1);
        }
    }
    let races = (0..rounds)
        .map(|r| {
            let witness = SyncWitness::for_account(&genesis, AccountId::new(r * block))
                .expect("each block is a synchronization state");
            assert_eq!(witness.k(), K);
            Algorithm1 {
                witness,
                destination: AccountId::new(r * block + K),
                mode: [RaceMode::Generalized, RaceMode::Verbatim][r % 2],
            }
        })
        .collect();
    (genesis, races)
}

/// One token operation as one request, retried while the server is busy.
fn call(client: &mut Client<ShardedErc20>, caller: ProcessId, op: &Erc20Op) -> Erc20Resp {
    loop {
        match client.call(caller, op).expect("the server stays up") {
            Reply::Ok(resp) => return resp,
            Reply::Busy => continue,
            other => panic!("{op:?} answered {other:?}"),
        }
    }
}

fn race_over_tcp(durable_acks: bool) {
    let dir = std::env::temp_dir().join(format!(
        "tokensync-race-over-tcp-{durable_acks}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let rounds = rounds();
    let (genesis, races) = races(rounds);
    let token = Arc::new(ShardedErc20::from_state(genesis.clone()));
    let store: Store<ShardedErc20> = Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    let cfg = ServerConfig {
        durable_acks,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(Arc::clone(&token), store, cfg, &Registry::new()).unwrap();
    let addr = handle.addr();

    let proposals: Vec<Proposals<usize>> = (0..rounds).map(|_| Proposals::new(K)).collect();
    let start = Barrier::new(K);
    let began = Instant::now();
    // decisions[i][r]: what mover i decided in round r.
    let decisions: Vec<Vec<usize>> = std::thread::scope(|s| {
        let movers: Vec<_> = (0..K)
            .map(|i| {
                let (races, proposals, start) = (&races, &proposals, &start);
                s.spawn(move || {
                    let mut client = Client::<ShardedErc20>::connect(addr).unwrap();
                    client
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    (0..rounds)
                        .map(|r| {
                            start.wait();
                            let apply = |p: ProcessId, op: &Erc20Op| call(&mut client, p, op);
                            let value = r * K + i;
                            proposals[r]
                                .propose(&races[r], apply, races[r].process(i), value)
                                .expect("a completed race always exposes a winner")
                        })
                        .collect()
                })
            })
            .collect();
        movers.into_iter().map(|m| m.join().unwrap()).collect()
    });
    let elapsed = began.elapsed();

    let state = token.snapshot();
    for (r, race) in races.iter().enumerate() {
        let decided: Vec<usize> = decisions.iter().map(|d| d[r]).collect();
        assert!(
            decided.iter().all(|d| *d == decided[0]),
            "round {r} ({:?}) disagrees: {decided:?}",
            race.mode
        );
        assert!(
            (r * K..(r + 1) * K).contains(&decided[0]),
            "round {r} decided {} that nobody in it proposed",
            decided[0]
        );
        let winner = decided[0] - r * K;
        let source = race.witness.account;
        assert!(state.balance(source) < B, "round {r}: no withdrawal");
        if winner > 0 {
            let spender = race.witness.participants[winner];
            assert!(state.allowance(source, spender) < B / 2 + 1);
        }
    }
    println!(
        "durable_acks={durable_acks}: {rounds} races of {K} clients over TCP agreed in {elapsed:?}"
    );

    let (_run, store) = handle.finish();
    store.close().unwrap();
    assert_eq!(
        recover::<ShardedErc20>(&dir).unwrap().state,
        token.snapshot()
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn algorithm1_over_tcp_acks_at_commit() {
    race_over_tcp(false);
}

#[test]
fn algorithm1_over_tcp_acks_at_fsync() {
    race_over_tcp(true);
}
