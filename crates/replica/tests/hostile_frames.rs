//! A follower fed a malformed `Append` frame — too short for its length
//! prefix, too short for a record head, or of a foreign record kind —
//! drops it without an ack (and without panicking), then replicates
//! normally once real frames arrive.

use std::path::PathBuf;

use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_net::SimNet;
use tokensync_replica::{ReplicaConfig, ReplicaMsg, ReplicaNode};
use tokensync_spec::{AccountId, ProcessId};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tokensync-replica-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn follower_drops_short_and_foreign_frames_without_an_ack() {
    let base = temp_dir("hostile-frames");
    let cfg = ReplicaConfig::default();
    let genesis = Erc20State::from_balances(vec![100; 4]);
    let nodes = vec![
        ReplicaNode::<ShardedErc20>::create_primary(&base.join("node-0"), &genesis, cfg, 2)
            .unwrap(),
        ReplicaNode::<ShardedErc20>::create_follower(&base.join("node-1"), &genesis, cfg, 2)
            .unwrap(),
    ];
    let mut net = SimNet::new(nodes, 5);
    net.run_to_quiescence();

    let mut foreign = vec![0u8; 8]; // length and CRC, never reached
    foreign.push(2); // unknown record kind
    foreign.extend_from_slice(&[0; 20]);
    for frame in [vec![], vec![0; 7], vec![0; 8], vec![0; 8 + 20], foreign] {
        let sent = net.metrics().sent_per_node[1];
        let len = frame.len();
        net.post(
            0,
            1,
            ReplicaMsg::Append {
                epoch: 0,
                first_seq: 0,
                count: 1,
                frame,
            },
        );
        net.run_to_quiescence();
        assert_eq!(
            net.metrics().sent_per_node[1],
            sent,
            "{len}-byte frame acked"
        );
        assert_eq!(net.node(1).next_seq(), 0);
    }

    // Real traffic still replicates.
    let script: Vec<(ProcessId, Erc20Op)> = (0..8)
        .map(|i| {
            let to = AccountId::new((i + 1) % 4);
            (ProcessId::new(i % 4), Erc20Op::Transfer { to, value: 1 })
        })
        .collect();
    net.node_mut(0).serve(&script);
    net.post(0, 0, ReplicaMsg::Pump);
    net.run_to_quiescence();
    assert_eq!(net.node(1).next_seq(), 8);
    assert_eq!(net.node(1).state(), net.node(0).state());
    std::fs::remove_dir_all(&base).unwrap();
}
