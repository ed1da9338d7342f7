//! The Section 7 protocol: synchronization scoped to each account's
//! enabled spenders.
//!
//! The paper's closing proposal: *"consensus only needs to be reached among
//! the largest set `σ_q(a)` of enabled spenders for the same account `a`"*.
//! This protocol realizes that with per-account operation streams:
//!
//! * `transfer` and `approve` mutate only the caller's own account and
//!   allowance row, so the **owner sequences them itself** and reliably
//!   broadcasts the sequenced op — no coordination with anyone
//!   (consensus number 1, exactly like the broadcast payment system).
//! * `transferFrom` conflicts with the other withdrawals from the same
//!   account (the conflicts catalogued in Theorem 3's proof and verified
//!   by `tokensync-mc::commute`), so it is serialized *within the
//!   account's spender group*: the spender hands the command to the
//!   group's sequencer, which orders it into the account's stream.
//!
//! The group sequencer here is the account owner — the simplest correct
//! stand-in for any black-box consensus among `σ_q(a)` (see
//! `docs/paper-map.md`, "Section 7 — protocols"; in a Byzantine
//! deployment this would be a BFT instance among the spender group). The measurable consequences are what the paper
//! predicts: owner operations commit in one broadcast with no extra hop,
//! load spreads across accounts instead of concentrating in one global
//! sequencer, and only `transferFrom` traffic pays a coordination hop.
//!
//! Replica consistency argument (matching the payment system's): all
//! mutations of account `a`'s balance-decreasing side and allowance row
//! are in `a`'s single FIFO stream; credits carried by `deps` only grow
//! balances; so every replica applies every op with the same outcome.

use std::collections::BTreeMap;

use tokensync_core::erc20::Erc20State;
use tokensync_spec::Amount;

use crate::cmd::TokenCmd;
use crate::rb::{Bracha, RbMsg};
use crate::sim::{Context, Node, SimNet};

/// An operation sequenced into one account's stream.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AccountOp {
    /// The account whose stream this op belongs to.
    pub account: usize,
    /// Position in that account's stream (gap-free from 0).
    pub seq: u64,
    /// The process executing the command.
    pub caller: usize,
    /// Caller-local request id (latency accounting).
    pub client_seq: u64,
    /// The command.
    pub cmd: TokenCmd,
    /// Causal dependencies: `deps[a]` = ops of account `a`'s stream the
    /// sequencer had applied when sequencing.
    pub deps: Vec<u64>,
}

/// Messages of the dynamic token protocol.
#[derive(Clone, Debug)]
pub enum DynMsg {
    /// Client request delivered to the caller's own node.
    Client(TokenCmd),
    /// Spender → account-group sequencer (`transferFrom` only).
    Request {
        /// The spender issuing the command.
        caller: usize,
        /// Caller-local request id.
        client_seq: u64,
        /// The command (always a `TransferFrom`).
        cmd: TokenCmd,
    },
    /// Sequencer → spender: the command failed validation.
    Reject {
        /// The caller's request id being rejected.
        client_seq: u64,
    },
    /// Reliable-broadcast traffic.
    Rb(RbMsg<AccountOp>),
}

/// One replica/participant of the dynamic token protocol. Node `i` owns
/// account `i` and sequences its stream.
#[derive(Clone, Debug)]
pub struct DynamicNode {
    rb: Bracha<AccountOp>,
    state: Erc20State,
    /// `applied[a]` = ops of account `a`'s stream applied here.
    applied: Vec<u64>,
    pending: Vec<AccountOp>,
    /// Sequencer state for *this* node's account stream.
    stream_seq: u64,
    /// This node's sequenced-but-not-yet-applied stream ops, in order.
    /// Validation replays them over the replica state so that two quick
    /// commands cannot both claim the same funds before the first one's
    /// broadcast round-trips (outstanding-operation pitfall).
    unapplied_mine: std::collections::VecDeque<(usize, TokenCmd)>,
    next_client_seq: u64,
    outstanding: BTreeMap<u64, u64>,
    /// Commit latencies of this node's own requests (issue → local apply).
    pub latencies: Vec<u64>,
    /// Requests rejected at validation.
    pub rejected: u64,
    applied_ops: u64,
}

impl DynamicNode {
    fn new(n: usize, initial: Erc20State) -> Self {
        Self {
            rb: Bracha::new(n),
            state: initial,
            applied: vec![0; n],
            pending: Vec::new(),
            stream_seq: 0,
            unapplied_mine: std::collections::VecDeque::new(),
            next_client_seq: 0,
            outstanding: BTreeMap::new(),
            latencies: Vec::new(),
            rejected: 0,
            applied_ops: 0,
        }
    }

    /// This replica's token state.
    pub fn state(&self) -> &Erc20State {
        &self.state
    }

    /// Operations applied so far.
    pub fn applied_ops(&self) -> u64 {
        self.applied_ops
    }

    /// Sequences `cmd` into this node's account stream and broadcasts it.
    /// Validation runs against the local replica — the sequencer *is* the
    /// synchronization point of its spender group, so its view of the
    /// account's stream is authoritative.
    fn sequence(
        &mut self,
        caller: usize,
        client_seq: u64,
        cmd: TokenCmd,
        ctx: &mut Context<DynMsg>,
    ) -> bool {
        // Validate against the speculative view: replica state plus this
        // node's sequenced-but-unapplied stream prefix. Replaying the
        // prefix is sound because the stream is FIFO and credits arriving
        // in the meantime only increase balances.
        let mut view = self.state.clone();
        for (c, prior) in &self.unapplied_mine {
            let ok = prior.apply(&mut view, *c);
            debug_assert!(ok, "previously validated stream op must replay");
        }
        if !cmd.valid_on(&view, caller) {
            return false;
        }
        self.unapplied_mine.push_back((caller, cmd));
        let op = AccountOp {
            account: ctx.me(),
            seq: self.stream_seq,
            caller,
            client_seq,
            cmd,
            deps: self.applied.clone(),
        };
        self.stream_seq += 1;
        let mut inner: Context<RbMsg<AccountOp>> = Context::nested(ctx);
        self.rb.broadcast(op, &mut inner);
        for (dst, msg) in inner.take_outbox() {
            ctx.send(dst, DynMsg::Rb(msg));
        }
        true
    }

    fn applicable(&self, op: &AccountOp) -> bool {
        self.applied[op.account] == op.seq
            && op
                .deps
                .iter()
                .enumerate()
                .all(|(a, d)| self.applied[a] >= *d)
    }

    fn drain(&mut self, me: usize, now: u64) {
        loop {
            let Some(pos) = self.pending.iter().position(|op| self.applicable(op)) else {
                return;
            };
            let op = self.pending.swap_remove(pos);
            let ok = op.cmd.apply(&mut self.state, op.caller);
            debug_assert!(
                ok,
                "sequencer-validated op failed at apply: {op:?} — the \
                 per-account stream invariant is broken"
            );
            self.applied[op.account] += 1;
            self.applied_ops += 1;
            if op.account == me {
                let front = self.unapplied_mine.pop_front();
                debug_assert_eq!(
                    front,
                    Some((op.caller, op.cmd)),
                    "stream FIFO mismatch between sequencer and replica"
                );
            }
            if op.caller == me {
                if let Some(issued) = self.outstanding.remove(&op.client_seq) {
                    self.latencies.push(now - issued);
                }
            }
        }
    }
}

impl Node for DynamicNode {
    type Msg = DynMsg;

    fn on_message(&mut self, from: usize, msg: DynMsg, ctx: &mut Context<DynMsg>) {
        match msg {
            DynMsg::Client(cmd) => {
                let client_seq = self.next_client_seq;
                self.next_client_seq += 1;
                self.outstanding.insert(client_seq, ctx.time());
                let me = ctx.me();
                let group = cmd.account(me);
                if group == me {
                    // Own account: sequence locally, no coordination hop.
                    if !self.sequence(me, client_seq, cmd, ctx) {
                        self.rejected += 1;
                        self.outstanding.remove(&client_seq);
                    }
                } else {
                    // transferFrom: synchronize within the account's
                    // spender group via its sequencer.
                    ctx.send(
                        group,
                        DynMsg::Request {
                            caller: me,
                            client_seq,
                            cmd,
                        },
                    );
                }
            }
            DynMsg::Request {
                caller,
                client_seq,
                cmd,
            } => {
                debug_assert_eq!(cmd.account(caller), ctx.me(), "misrouted request");
                if !self.sequence(caller, client_seq, cmd, ctx) {
                    ctx.send(caller, DynMsg::Reject { client_seq });
                }
            }
            DynMsg::Reject { client_seq } => {
                self.rejected += 1;
                self.outstanding.remove(&client_seq);
            }
            DynMsg::Rb(rb_msg) => {
                let mut inner: Context<RbMsg<AccountOp>> = Context::nested(ctx);
                let delivered = self.rb.handle(from, rb_msg, &mut inner);
                for (dst, m) in inner.take_outbox() {
                    ctx.send(dst, DynMsg::Rb(m));
                }
                self.pending.extend(delivered.into_iter().map(|(_, op)| op));
                self.drain(ctx.me(), ctx.time());
            }
        }
    }
}

/// A dynamic-token network (facade over the simulator).
pub struct DynamicNetwork {
    net: SimNet<DynamicNode>,
}

impl DynamicNetwork {
    /// Creates `n` participants replicating `initial` with delay seed
    /// `seed`.
    pub fn new(n: usize, initial: Erc20State, seed: u64) -> Self {
        let nodes = (0..n)
            .map(|_| DynamicNode::new(n, initial.clone()))
            .collect();
        Self {
            net: SimNet::new(nodes, seed),
        }
    }

    /// Submits `cmd` on behalf of `caller`.
    pub fn submit(&mut self, caller: usize, cmd: TokenCmd) {
        self.net.post(caller, caller, DynMsg::Client(cmd));
    }

    /// Runs until quiescence.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.net.run_to_quiescence()
    }

    /// Crashes a node: it stops sending and receiving (failure-injection
    /// hook for availability tests).
    pub fn crash(&mut self, node: usize) {
        self.net.crash(node);
    }

    /// All replicas hold the same state with nothing pending.
    pub fn converged(&self) -> bool {
        let first = self.net.node(0).state();
        self.net
            .nodes()
            .all(|node| node.state() == first && node.pending.is_empty())
    }

    /// Replica `i`'s state.
    pub fn state_at(&self, i: usize) -> Erc20State {
        self.net.node(i).state().clone()
    }

    /// Mean commit latency over all nodes' own requests.
    pub fn mean_latency(&self) -> f64 {
        let all: Vec<u64> = self
            .net
            .nodes()
            .flat_map(|node| node.latencies.iter().copied())
            .collect();
        if all.is_empty() {
            0.0
        } else {
            all.iter().sum::<u64>() as f64 / all.len() as f64
        }
    }

    /// Requests rejected at validation, across nodes.
    pub fn rejected(&self) -> u64 {
        self.net.nodes().map(|node| node.rejected).sum()
    }

    /// Total supply at replica 0 (must be invariant).
    pub fn total_supply(&self) -> Amount {
        self.net.node(0).state().total_supply()
    }

    /// Simulator metrics.
    pub fn metrics(&self) -> &crate::Metrics {
        self.net.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tokensync_spec::{AccountId, ProcessId};

    fn initial(n: usize, supply: Amount) -> Erc20State {
        Erc20State::with_deployer(n, ProcessId::new(0), supply)
    }

    #[test]
    fn owner_ops_commit_without_coordination_hop() {
        let mut net = DynamicNetwork::new(4, initial(4, 10), 1);
        net.submit(0, TokenCmd::Transfer { to: 1, value: 4 });
        net.run_to_quiescence();
        assert!(net.converged());
        assert_eq!(net.state_at(3).balance(AccountId::new(1)), 4);
    }

    #[test]
    fn approve_then_transfer_from_flows_through_the_group() {
        let mut net = DynamicNetwork::new(4, initial(4, 10), 2);
        net.submit(
            0,
            TokenCmd::Approve {
                spender: 2,
                value: 5,
            },
        );
        net.run_to_quiescence();
        net.submit(
            2,
            TokenCmd::TransferFrom {
                from: 0,
                to: 3,
                value: 5,
            },
        );
        net.run_to_quiescence();
        assert!(net.converged());
        let state = net.state_at(1);
        assert_eq!(state.balance(AccountId::new(3)), 5);
        assert_eq!(state.allowance(AccountId::new(0), ProcessId::new(2)), 0);
    }

    #[test]
    fn conflicting_spenders_are_serialized_exactly_once() {
        for seed in 0..10 {
            let mut q = initial(4, 2);
            q.set_allowance(AccountId::new(0), ProcessId::new(1), 2);
            q.set_allowance(AccountId::new(0), ProcessId::new(2), 2);
            let mut net = DynamicNetwork::new(4, q, seed);
            net.submit(
                1,
                TokenCmd::TransferFrom {
                    from: 0,
                    to: 1,
                    value: 2,
                },
            );
            net.submit(
                2,
                TokenCmd::TransferFrom {
                    from: 0,
                    to: 2,
                    value: 2,
                },
            );
            net.run_to_quiescence();
            assert!(net.converged(), "seed {seed}");
            assert_eq!(net.rejected(), 1, "seed {seed}: exactly one spender loses");
            assert_eq!(net.total_supply(), 2, "seed {seed}");
        }
    }

    #[test]
    fn random_mixed_workload_converges_with_supply_conserved() {
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..4 {
            let n = 5;
            let mut net = DynamicNetwork::new(n, initial(n, 50), round);
            for _ in 0..40 {
                let caller = rng.gen_range(0..n);
                let cmd = match rng.gen_range(0..3) {
                    0 => TokenCmd::Transfer {
                        to: rng.gen_range(0..n),
                        value: rng.gen_range(0..4),
                    },
                    1 => TokenCmd::Approve {
                        spender: rng.gen_range(0..n),
                        value: rng.gen_range(0..4),
                    },
                    _ => TokenCmd::TransferFrom {
                        from: rng.gen_range(0..n),
                        to: rng.gen_range(0..n),
                        value: rng.gen_range(0..3),
                    },
                };
                net.submit(caller, cmd);
                if rng.gen_bool(0.25) {
                    net.run_to_quiescence();
                }
            }
            net.run_to_quiescence();
            assert!(net.converged(), "round {round}");
            assert_eq!(net.total_supply(), 50, "round {round}");
        }
    }

    #[test]
    fn load_spreads_across_account_sequencers() {
        // Same all-owner-ops workload as the ordered baseline's bottleneck
        // test: here no node is a global hotspot.
        let mut net = DynamicNetwork::new(8, initial(8, 100), 21);
        for caller in 0..8 {
            for _ in 0..4 {
                net.submit(
                    caller,
                    TokenCmd::Transfer {
                        to: (caller + 1) % 8,
                        value: 0,
                    },
                );
            }
        }
        net.run_to_quiescence();
        assert!(net.converged());
        let imbalance = net.metrics().load_imbalance();
        assert!(imbalance < 1.5, "imbalance {imbalance}");
    }
}
