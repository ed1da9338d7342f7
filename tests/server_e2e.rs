//! End-to-end through the facade: the TCP server fronting the durable
//! pipeline stack, across all three standards. The headline lifecycle,
//! with durable acks on:
//!
//! 1. spawn a server over a `Store`-sinked pipeline on an ephemeral
//!    port, drive it with concurrent clients,
//! 2. crash mid-traffic (clients see their connections die; the store is
//!    abandoned without a clean close),
//! 3. recover from disk alone — every response that was **acked** must
//!    be covered by the recovered log (durable acks mean exactly that),
//! 4. re-serve on the recovered object and verify the continuation
//!    against the sequential oracle, response by response.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use tokensync::core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync::core::shared::{ConcurrentObject, ShardedErc20};
use tokensync::core::standards::erc1155::{
    Erc1155Op, Erc1155Resp, Erc1155State, ShardedErc1155, TypeId,
};
use tokensync::core::standards::erc721::{Erc721Op, Erc721State, ShardedErc721, TokenId};
use tokensync::obs::Registry;
use tokensync::server::{Client, Reply, Server, ServerConfig};
use tokensync::spec::{AccountId, ObjectType, ProcessId};
use tokensync::store::{recover, Store, StoreConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tokensync-server-e2e-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn server_config(durable_acks: bool) -> ServerConfig {
    ServerConfig {
        durable_acks,
        ..ServerConfig::default()
    }
}

const ACCOUNTS: usize = 32;

#[test]
fn erc20_crash_mid_traffic_recover_reserve() {
    let dir = scratch("erc20");
    let genesis = Erc20State::from_balances(vec![1_000; ACCOUNTS]);
    let token = Arc::new(ShardedErc20::from_state(genesis.clone()));
    let store: Store<ShardedErc20> = Store::create(&dir, &genesis, StoreConfig::default()).unwrap();

    let handle = Server::spawn(
        Arc::clone(&token),
        store,
        server_config(true),
        &Registry::new(),
    )
    .unwrap();
    let addr = handle.addr();

    // Phase 1: four concurrent clients hammer the server until their
    // connections die under them (the crash). Each records how many Ok
    // acks it collected — with durable acks, every one of those is a
    // promise about the disk.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let Ok(mut client) = Client::<ShardedErc20>::connect(addr) else {
                    return 0u64;
                };
                let _ = client.set_read_timeout(Some(Duration::from_secs(10)));
                let mut acked = 0u64;
                for i in 0..10_000u64 {
                    let caller = ProcessId::new((w * 7 + i as usize) % ACCOUNTS);
                    let op = match i % 3 {
                        0 => Erc20Op::Transfer {
                            to: AccountId::new((w + i as usize + 1) % ACCOUNTS),
                            value: 1,
                        },
                        1 => Erc20Op::BalanceOf {
                            account: AccountId::new(i as usize % ACCOUNTS),
                        },
                        _ => Erc20Op::Approve {
                            spender: ProcessId::new((i as usize + 3) % ACCOUNTS),
                            value: i % 5,
                        },
                    };
                    match client.call(caller, &op) {
                        Ok(Reply::Ok(_)) => acked += 1,
                        Ok(_) => {}      // Busy/Gone: not a durability promise
                        Err(_) => break, // the crash, as the client sees it
                    }
                }
                acked
            })
        })
        .collect();

    // Let real traffic build up, then crash: stop serving and abandon
    // the store without a clean close — recovery gets only what the
    // durability watermark actually covered.
    std::thread::sleep(Duration::from_millis(400));
    let (run, mut store) = handle.finish();
    store.abandon();
    let acked: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(acked > 0, "no traffic was acked before the crash");

    // Recover from disk alone.
    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    // Durable acks: every acked op is in the recovered log. (Acked ops
    // have distinct sequence numbers, each below the recovered
    // next_seq.)
    assert!(
        acked <= recovered.next_seq,
        "{acked} acks but only {} ops recovered",
        recovered.next_seq
    );
    assert!(
        recovered.next_seq <= run.log.len() as u64,
        "recovered more than was committed"
    );
    // The recovered state is exactly the oracle replay of the committed
    // prefix the disk retained.
    let spec = Erc20Spec::new(genesis);
    let mut oracle = spec.initial_state();
    for entry in &run.log.entries()[..recovered.next_seq as usize] {
        let expected = spec.apply(&mut oracle, entry.caller, &entry.op);
        assert_eq!(expected, entry.resp, "divergence at seq {}", entry.seq);
    }
    assert_eq!(recovered.state, oracle);

    // Phase 2: re-serve on the recovered object, same directory. A
    // single sequential client makes the linearization deterministic, so
    // every response is checked against the oracle exactly.
    let token2 = Arc::new(recovered.object);
    let store2: Store<ShardedErc20> = Store::open(&dir, StoreConfig::default()).unwrap();
    let handle2 = Server::spawn(
        Arc::clone(&token2),
        store2,
        server_config(true),
        &Registry::new(),
    )
    .unwrap();
    let mut client = Client::<ShardedErc20>::connect(handle2.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let spec2 = Erc20Spec::new(recovered.state);
    let mut oracle = spec2.initial_state();
    let phase2_ops = 200u64;
    for i in 0..phase2_ops {
        let caller = ProcessId::new(i as usize % ACCOUNTS);
        let op = if i % 4 == 3 {
            Erc20Op::BalanceOf {
                account: AccountId::new(i as usize % ACCOUNTS),
            }
        } else {
            Erc20Op::Transfer {
                to: AccountId::new((i as usize + 9) % ACCOUNTS),
                value: i % 7,
            }
        };
        let expected = spec2.apply(&mut oracle, caller, &op);
        let reply = client.call(caller, &op).unwrap();
        assert_eq!(
            reply,
            Reply::Ok(expected),
            "op {i} diverged from the oracle"
        );
    }
    drop(client);
    let (run2, store2) = handle2.finish();
    assert_eq!(run2.log.len() as u64, phase2_ops);
    store2.close().unwrap();

    // A final recovery sees the whole continued history.
    let final_rec = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(final_rec.next_seq, recovered.next_seq + phase2_ops);
    assert_eq!(final_rec.state, oracle);
    assert_eq!(final_rec.object.snapshot(), token2.snapshot());

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn erc721_served_traffic_survives_restart() {
    let dir = scratch("erc721");
    let genesis = Erc721State::minted_round_robin(16, 512, 64);
    let token = Arc::new(ShardedErc721::from_state(genesis.clone()));
    let store: Store<ShardedErc721> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    let handle = Server::spawn(
        Arc::clone(&token),
        store,
        server_config(false),
        &Registry::new(),
    )
    .unwrap();

    // Two concurrent clients: owner-ring transfers (disjoint tokens, so
    // both streams commit in full) and reads.
    let addr = handle.addr();
    let movers: Vec<_> = (0..2)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::<ShardedErc721>::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut ok = 0u64;
                for i in 0..32u64 {
                    // Token t is owned by process t % 16; transfer it
                    // onward. Worker w owns the tokens with t % 2 == w,
                    // so the workers never contend.
                    let t = (2 * i + w) % 64;
                    let owner = ProcessId::new(t as usize % 16);
                    let op = Erc721Op::TransferFrom {
                        from: owner,
                        to: owner, // self-transfer: repeatable, always valid
                        token: TokenId::new(t as usize),
                    };
                    match c.call(owner, &op).unwrap() {
                        Reply::Ok(_) => ok += 1,
                        other => panic!("transfer {t} answered {other:?}"),
                    }
                }
                ok
            })
        })
        .collect();
    let committed: u64 = movers.into_iter().map(|m| m.join().unwrap()).sum();
    assert_eq!(committed, 64);

    let (run, store) = handle.finish();
    assert_eq!(run.log.len() as u64, committed);
    store.close().unwrap();

    let recovered = recover::<ShardedErc721>(&dir).unwrap();
    assert_eq!(recovered.next_seq, committed);
    assert_eq!(recovered.object.snapshot(), token.snapshot());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn erc1155_batches_stay_atomic_across_restart() {
    let dir = scratch("erc1155");
    let genesis = Erc1155State::deploy(16, ProcessId::new(0), &[10_000; 4]);
    let token = Arc::new(ShardedErc1155::from_state(genesis.clone()));
    let store: Store<ShardedErc1155> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    let handle = Server::spawn(
        Arc::clone(&token),
        store,
        server_config(false),
        &Registry::new(),
    )
    .unwrap();

    let mut c = Client::<ShardedErc1155>::connect(handle.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Deployer fans out multi-type batches; some must fail atomically
    // (insufficient balance in one row rolls back the whole batch).
    let deployer = ProcessId::new(0);
    let mut oks = 0u64;
    for i in 0..40usize {
        let op = Erc1155Op::BatchTransfer {
            from: AccountId::new(0),
            to: AccountId::new(1 + i % 15),
            entries: vec![
                (TypeId::new(i % 4), 50),
                (
                    TypeId::new((i + 1) % 4),
                    if i % 5 == 4 { u64::MAX / 2 } else { 25 },
                ),
            ],
        };
        match c.call(deployer, &op).unwrap() {
            Reply::Ok(Erc1155Resp::Bool(true)) => oks += 1,
            Reply::Ok(Erc1155Resp::Bool(false)) => {} // atomic rollback
            other => panic!("batch {i} answered {other:?}"),
        }
    }
    assert!(oks > 0);
    drop(c);
    let (run, store) = handle.finish();
    assert_eq!(run.log.len(), 40);
    store.close().unwrap();

    let recovered = recover::<ShardedErc1155>(&dir).unwrap();
    assert_eq!(recovered.next_seq, 40);
    let state = recovered.object.snapshot();
    assert_eq!(state, token.snapshot());
    // Supply conservation: atomicity means no partial rows ever leaked.
    for t in 0..4 {
        assert_eq!(state.total_supply(TypeId::new(t)), 10_000);
    }
    fs::remove_dir_all(&dir).unwrap();
}
