//! A deterministic discrete-event network simulator.
//!
//! Processes are [`Node`]s exchanging messages through a scheduler that
//! assigns every message a delivery delay drawn from a seeded RNG — the
//! standard way to model an asynchronous, unordered network while keeping
//! runs reproducible. Identical seeds yield identical executions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{FaultPlan, NodeEvent, NodeEventKind};
use crate::metrics::Metrics;

/// Message delay policy of the simulated network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayPolicy {
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Delays drawn uniformly from `min..=max` — adversarial reordering.
    Uniform {
        /// Minimum delay (≥ 1 keeps causality nontrivial).
        min: u64,
        /// Maximum delay.
        max: u64,
    },
}

impl DelayPolicy {
    /// The default policy's maximum delay in ticks: the longest a
    /// message takes on a fault-free default network.
    pub const DEFAULT_MAX: u64 = 16;
}

impl Default for DelayPolicy {
    fn default() -> Self {
        DelayPolicy::Uniform {
            min: 1,
            max: Self::DEFAULT_MAX,
        }
    }
}

/// Outbound operations a node may perform during a callback.
#[derive(Debug)]
pub struct Context<M> {
    me: usize,
    n: usize,
    time: u64,
    outbox: Vec<(usize, M)>,
    timers: Vec<(u64, M)>,
}

impl<M: Clone> Context<M> {
    /// This node's id.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulated time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Sends `msg` to node `dst` (including to itself).
    pub fn send(&mut self, dst: usize, msg: M) {
        debug_assert!(dst < self.n, "destination out of range");
        self.outbox.push((dst, msg));
    }

    /// Sends `msg` to every node, itself included (the `broadcast`
    /// primitive assumed by Bracha's protocol).
    pub fn broadcast(&mut self, msg: M) {
        for dst in 0..self.n {
            self.outbox.push((dst, msg.clone()));
        }
    }

    /// Schedules `msg` for delivery **to this node itself** after
    /// exactly `delay` ticks — a timer. Timers bypass the delay policy
    /// and the fault plan's drop/duplicate draws (a node's clock is
    /// local, not a network path), but a node that is crashed when the
    /// timer fires never sees it.
    pub fn send_after(&mut self, delay: u64, msg: M) {
        self.timers.push((delay.max(1), msg));
    }

    /// Creates a nested context with the same identity, network size and
    /// clock, for driving an embedded sub-protocol engine whose message
    /// type the outer protocol wraps (take its outbox afterwards with
    /// [`Context::take_outbox`] and forward each message wrapped).
    pub fn nested<O>(outer: &Context<O>) -> Context<M> {
        Context {
            me: outer.me,
            n: outer.n,
            time: outer.time,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Drains and returns the queued outbound messages.
    pub fn take_outbox(&mut self) -> Vec<(usize, M)> {
        std::mem::take(&mut self.outbox)
    }
}

/// A protocol node driven by the simulator.
pub trait Node {
    /// Message alphabet.
    type Msg: Clone + Debug;

    /// Called once before any delivery.
    fn on_start(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// Called for each delivered message.
    fn on_message(&mut self, from: usize, msg: Self::Msg, ctx: &mut Context<Self::Msg>);

    /// Called when the simulator restarts this node after a crash
    /// (via [`SimNet::restart`] or a [`FaultPlan`] restart event). The
    /// node object keeps its fields across the crash — this hook is
    /// where an implementation models machine loss by discarding its
    /// volatile state and reloading whatever it had made durable.
    fn on_restart(&mut self, _ctx: &mut Context<Self::Msg>) {}
}

/// The simulator: owns the nodes, the event queue and the clock.
///
/// # Example
///
/// ```
/// use tokensync_net::{Context, Node, SimNet};
///
/// struct Echo;
/// impl Node for Echo {
///     type Msg = u32;
///     fn on_message(&mut self, from: usize, msg: u32, ctx: &mut Context<u32>) {
///         if msg > 0 {
///             ctx.send(from, msg - 1); // ping-pong down to zero
///         }
///     }
/// }
///
/// let mut net = SimNet::new(vec![Echo, Echo], 42);
/// net.post(0, 1, 10); // external kick: node 0 sends 10 to node 1
/// net.run_to_quiescence();
/// assert_eq!(net.metrics().delivered, 11);
/// ```
pub struct SimNet<N: Node> {
    nodes: Vec<N>,
    /// Min-heap of (delivery time, tie-break seq, src, dst) + payload.
    queue: BinaryHeap<Reverse<Event<N::Msg>>>,
    rng: StdRng,
    policy: DelayPolicy,
    time: u64,
    seq: u64,
    metrics: Metrics,
    crashed: Vec<bool>,
    /// Fault injection, when armed: the plan itself, its private RNG
    /// stream (so arming a plan never perturbs the delay draws), and
    /// the index of the next unapplied entry of the sorted schedule.
    plan: Option<(FaultPlan, StdRng, Vec<NodeEvent>, usize)>,
}

struct Event<M> {
    at: u64,
    seq: u64,
    src: usize,
    dst: usize,
    msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<N: Node> SimNet<N> {
    /// Creates a network over `nodes` with the default delay policy and a
    /// deterministic `seed`, running every node's
    /// [`on_start`](Node::on_start).
    pub fn new(nodes: Vec<N>, seed: u64) -> Self {
        Self::with_policy(nodes, seed, DelayPolicy::default())
    }

    /// As [`SimNet::new`] with an explicit [`DelayPolicy`].
    pub fn with_policy(nodes: Vec<N>, seed: u64, policy: DelayPolicy) -> Self {
        let n = nodes.len();
        let mut net = Self {
            nodes,
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
            policy,
            time: 0,
            seq: 0,
            metrics: Metrics::new(n),
            crashed: vec![false; n],
            plan: None,
        };
        for i in 0..n {
            net.with_ctx(i, |node, ctx| node.on_start(ctx));
        }
        net
    }

    /// Arms a seeded [`FaultPlan`]. The plan draws from its **own** RNG
    /// stream, so a plan that never fires leaves the execution
    /// bit-identical to an unarmed run; identical `(seed, plan)` pairs
    /// yield identical executions.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let rng = StdRng::seed_from_u64(plan.seed);
        let schedule = plan.sorted_schedule();
        self.plan = Some((plan, rng, schedule, 0));
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Injects an external message from `src` to `dst` (e.g. a client
    /// request) at the current time.
    ///
    /// Unlike replica-to-replica traffic, injections do not pass through
    /// the delay policy: a client request is "issued" at its node the
    /// moment it is posted, and two posts to the same node keep their
    /// submission order.
    pub fn post(&mut self, src: usize, dst: usize, msg: N::Msg) {
        self.push_at(self.time, src, dst, msg);
        self.metrics.sent += 1;
        self.metrics.sent_per_node[src] += 1;
    }

    /// Crashes `node`: it stops sending and receiving.
    pub fn crash(&mut self, node: usize) {
        self.crashed[node] = true;
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed[node]
    }

    /// Restarts a crashed `node`: it resumes receiving and sending, and
    /// its [`on_restart`](Node::on_restart) hook runs so it can reload
    /// its durable state. A no-op on a live node.
    pub fn restart(&mut self, node: usize) {
        if !self.crashed[node] {
            return;
        }
        self.crashed[node] = false;
        self.with_ctx(node, |n, ctx| n.on_restart(ctx));
    }

    /// Applies every scheduled crash/restart whose time is `<= now`.
    fn apply_schedule(&mut self, now: u64) {
        loop {
            let Some((_, _, schedule, next)) = &self.plan else {
                return;
            };
            let Some(event) = schedule.get(*next).copied() else {
                return;
            };
            if event.at > now {
                return;
            }
            if let Some((_, _, _, next)) = &mut self.plan {
                *next += 1;
            }
            match event.kind {
                NodeEventKind::Crash => self.crash(event.node),
                NodeEventKind::Restart => self.restart(event.node),
            }
        }
    }

    /// Runs until no events remain or `max_events` deliveries happened.
    /// Returns the number of deliveries performed.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut delivered = 0;
        while delivered < max_events {
            let Some(Reverse(event)) = self.queue.pop() else {
                // Message queue drained: if scheduled faults remain, the
                // clock jumps to the next one (a restart may produce new
                // messages via `on_restart`, so the loop continues).
                let next_at = self
                    .plan
                    .as_ref()
                    .and_then(|(_, _, schedule, next)| schedule.get(*next))
                    .map(|e| e.at);
                match next_at {
                    Some(at) => {
                        self.time = self.time.max(at);
                        self.apply_schedule(self.time);
                        continue;
                    }
                    None => break,
                }
            };
            self.time = self.time.max(event.at);
            self.apply_schedule(self.time);
            if self.crashed[event.dst] {
                continue;
            }
            if let Some((plan, _, _, _)) = &self.plan {
                if event.src != event.dst && plan.partitioned(event.src, event.dst, event.at) {
                    self.metrics.partitioned += 1;
                    continue;
                }
            }
            delivered += 1;
            self.metrics.delivered += 1;
            let (src, dst, msg) = (event.src, event.dst, event.msg);
            self.with_ctx(dst, |node, ctx| node.on_message(src, msg, ctx));
        }
        self.metrics.end_time = self.time;
        delivered
    }

    /// Runs until the queue drains (bounded by 10 million deliveries as a
    /// livelock guard).
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run(10_000_000)
    }

    /// Access to a node (for assertions).
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// Mutable access to a node — the control-plane escape hatch a
    /// cluster orchestrator uses for out-of-band surgery (promotion,
    /// role changes) that no in-protocol message should perform.
    pub fn node_mut(&mut self, i: usize) -> &mut N {
        &mut self.nodes[i]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current simulated time.
    pub fn time(&self) -> u64 {
        self.time
    }

    fn with_ctx(&mut self, i: usize, f: impl FnOnce(&mut N, &mut Context<N::Msg>)) {
        let mut ctx = Context {
            me: i,
            n: self.nodes.len(),
            time: self.time,
            outbox: Vec::new(),
            timers: Vec::new(),
        };
        f(&mut self.nodes[i], &mut ctx);
        if self.crashed[i] {
            return; // a crashed node sends nothing
        }
        for (dst, msg) in ctx.outbox {
            self.metrics.sent += 1;
            self.metrics.sent_per_node[i] += 1;
            self.enqueue(i, dst, msg);
        }
        for (delay, msg) in ctx.timers {
            // A timer is the node's local clock: it bypasses the delay
            // policy and the fault plan entirely (crash still silences
            // it at delivery).
            self.push_at(self.time + delay, i, i, msg);
        }
    }

    fn enqueue(&mut self, src: usize, dst: usize, msg: N::Msg) {
        let delay = match self.policy {
            DelayPolicy::Fixed(d) => d,
            DelayPolicy::Uniform { min, max } => self.rng.gen_range(min..=max),
        };
        // Fault-plan draws come from the plan's own RNG stream so the
        // delay draws above stay untouched by arming a plan. Self-sends
        // are exempt: they model in-process handoff, not a network path.
        if src != dst {
            if let Some((plan, fault_rng, _, _)) = &mut self.plan {
                let p_drop = plan.link_drop(src, dst);
                if p_drop > 0.0 && fault_rng.gen_bool(p_drop) {
                    self.metrics.dropped += 1;
                    return;
                }
                if plan.duplicate > 0.0 && fault_rng.gen_bool(plan.duplicate) {
                    let dup_delay = match self.policy {
                        DelayPolicy::Fixed(d) => d,
                        DelayPolicy::Uniform { min, max } => fault_rng.gen_range(min..=max),
                    };
                    self.metrics.duplicated += 1;
                    let at = self.time + dup_delay;
                    self.push_at(at, src, dst, msg.clone());
                }
            }
        }
        self.push_at(self.time + delay, src, dst, msg);
    }

    /// Sole event-push path: `seq` breaks delivery ties in push order, so
    /// both `post` and `enqueue` must go through here to keep the
    /// deterministic ordering contract.
    fn push_at(&mut self, at: u64, src: usize, dst: usize, msg: N::Msg) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            src,
            dst,
            msg,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        seen: u32,
    }

    impl Node for Counter {
        type Msg = u32;
        fn on_message(&mut self, _from: usize, msg: u32, ctx: &mut Context<u32>) {
            self.seen += 1;
            if msg > 0 {
                ctx.broadcast(msg - 1);
            }
        }
    }

    fn network(seed: u64) -> SimNet<Counter> {
        SimNet::new((0..3).map(|_| Counter { seen: 0 }).collect(), seed)
    }

    #[test]
    fn same_seed_same_execution() {
        let runs: Vec<u64> = (0..2)
            .map(|_| {
                let mut net = network(5);
                net.post(0, 1, 3);
                net.run_to_quiescence();
                net.metrics().delivered
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn different_seeds_may_reorder_but_count_matches() {
        // Message count is schedule-independent for this protocol.
        let mut a = network(1);
        a.post(0, 1, 2);
        a.run_to_quiescence();
        let mut b = network(2);
        b.post(0, 1, 2);
        b.run_to_quiescence();
        assert_eq!(a.metrics().delivered, b.metrics().delivered);
    }

    #[test]
    fn crashed_nodes_receive_and_send_nothing() {
        let mut net = network(7);
        net.crash(2);
        net.post(0, 2, 5);
        net.run_to_quiescence();
        assert_eq!(net.node(2).seen, 0);
    }

    #[test]
    fn run_budget_limits_deliveries() {
        let mut net = network(9);
        net.post(0, 0, 50);
        let delivered = net.run(4);
        assert_eq!(delivered, 4);
    }

    #[test]
    fn unarmed_and_inactive_plans_change_nothing() {
        // Arming an *empty* plan must leave the execution bit-identical:
        // the plan draws from its own RNG stream and an inactive plan
        // draws nothing.
        let mut plain = network(5);
        plain.post(0, 1, 4);
        plain.run_to_quiescence();
        let mut armed = network(5);
        armed.set_fault_plan(FaultPlan::new(123));
        armed.post(0, 1, 4);
        armed.run_to_quiescence();
        assert_eq!(plain.metrics(), armed.metrics());
        assert_eq!(plain.node(2).seen, armed.node(2).seen);
    }

    #[test]
    fn fault_plans_are_deterministic_per_seed() {
        let run = |plan_seed: u64| {
            let mut net = network(5);
            net.set_fault_plan(
                FaultPlan::new(plan_seed)
                    .drop_probability(0.2)
                    .duplicate_probability(0.1)
                    .partition(3, 9, vec![0]),
            );
            net.post(0, 1, 6);
            net.run_to_quiescence();
            (
                net.metrics().clone(),
                net.nodes().map(|n| n.seen).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
        // A different fault seed drops/duplicates different messages
        // while the sim seed (and thus the delay stream) is unchanged.
        let (a, _) = run(7);
        let (b, _) = run(8);
        assert!(a.dropped + a.duplicated > 0 || b.dropped + b.duplicated > 0);
    }

    #[test]
    fn drops_lose_messages_and_metrics_count_them() {
        let mut net = network(3);
        net.set_fault_plan(FaultPlan::new(1).drop_probability(1.0));
        net.post(0, 0, 3); // post is exempt; the broadcast fallout is not
        net.run_to_quiescence();
        // Node 0 sees the injected message; every relayed message to
        // *other* nodes is dropped (self-sends are exempt).
        let m = net.metrics();
        assert!(m.dropped > 0);
        assert_eq!(net.node(1).seen + net.node(2).seen, 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        struct Fwd {
            got: u32,
        }
        impl Node for Fwd {
            type Msg = u32;
            fn on_message(&mut self, _from: usize, m: u32, ctx: &mut Context<u32>) {
                if ctx.me() == 0 {
                    ctx.send(1, m);
                } else {
                    self.got += 1;
                }
            }
        }
        let mut net = SimNet::new(vec![Fwd { got: 0 }, Fwd { got: 0 }], 3);
        net.set_fault_plan(FaultPlan::new(4).duplicate_probability(1.0));
        net.post(0, 0, 9);
        net.run_to_quiescence();
        assert_eq!(net.node(1).got, 2);
        assert_eq!(net.metrics().duplicated, 1);
    }

    #[test]
    fn partitions_cut_and_heal() {
        // Fixed delay 3: a message relayed at t=0 arrives at t=3 inside
        // the cut [0, 10) and is discarded; one relayed after healing
        // passes.
        struct Relay {
            got: Vec<u32>,
        }
        impl Node for Relay {
            type Msg = u32;
            fn on_message(&mut self, _from: usize, m: u32, ctx: &mut Context<u32>) {
                if ctx.me() == 0 {
                    if m == 1 {
                        // Re-send attempt after the heal.
                        ctx.send_after(20, 2);
                    }
                    ctx.send(1, m);
                } else {
                    self.got.push(m);
                }
            }
        }
        let mut net = SimNet::with_policy(
            vec![Relay { got: vec![] }, Relay { got: vec![] }],
            0,
            DelayPolicy::Fixed(3),
        );
        net.set_fault_plan(FaultPlan::new(0).partition(0, 10, vec![0]));
        net.post(0, 0, 1);
        net.run_to_quiescence();
        assert_eq!(
            net.node(1).got,
            vec![2],
            "cut message lost, healed one passed"
        );
        assert_eq!(net.metrics().partitioned, 1);
    }

    #[test]
    fn scheduled_crash_and_restart_run_the_hook() {
        struct Phoenix {
            restarted: bool,
            seen: u32,
        }
        impl Node for Phoenix {
            type Msg = u32;
            fn on_message(&mut self, _from: usize, _m: u32, _ctx: &mut Context<u32>) {
                self.seen += 1;
            }
            fn on_restart(&mut self, ctx: &mut Context<u32>) {
                self.restarted = true;
                ctx.send(0, 77); // announce rejoin
            }
        }
        let mk = || Phoenix {
            restarted: false,
            seen: 0,
        };
        let mut net = SimNet::with_policy(vec![mk(), mk()], 0, DelayPolicy::Fixed(2));
        net.set_fault_plan(FaultPlan::new(0).crash_at(0, 1).restart_at(5, 1));
        net.post(0, 1, 1); // delivered at t=0 — node 1 already crashed
        net.run_to_quiescence();
        assert!(net.node(1).restarted, "restart hook ran");
        assert_eq!(net.node(1).seen, 0, "message to crashed node was lost");
        assert_eq!(net.node(0).seen, 1, "rejoin announcement arrived");
    }

    #[test]
    fn manual_restart_is_a_noop_on_live_nodes() {
        let mut net = network(2);
        net.restart(1); // live: nothing happens
        assert!(!net.is_crashed(1));
        net.crash(1);
        assert!(net.is_crashed(1));
        net.restart(1);
        assert!(!net.is_crashed(1));
    }

    #[test]
    fn timers_deliver_to_self_after_the_delay() {
        struct Timed {
            fired_at: Option<u64>,
        }
        impl Node for Timed {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Context<u32>) {
                ctx.send_after(9, 1);
            }
            fn on_message(&mut self, from: usize, _m: u32, ctx: &mut Context<u32>) {
                assert_eq!(from, ctx.me());
                self.fired_at = Some(ctx.time());
            }
        }
        let mut net = SimNet::new(vec![Timed { fired_at: None }], 0);
        net.run_to_quiescence();
        assert_eq!(net.node(0).fired_at, Some(9));
    }

    #[test]
    fn fixed_delay_preserves_fifo_per_pair() {
        // Node 0 relays everything to node 1 via its outbox, so the
        // relayed messages traverse the delayed enqueue() path — post()
        // itself bypasses the delay policy and would not cover it.
        struct Order {
            log: Vec<u32>,
        }
        impl Node for Order {
            type Msg = u32;
            fn on_message(&mut self, from: usize, m: u32, ctx: &mut Context<u32>) {
                if ctx.me() == 0 && from != 1 {
                    ctx.send(1, m);
                } else {
                    self.log.push(m);
                }
            }
        }
        let mut net = SimNet::with_policy(
            vec![Order { log: vec![] }, Order { log: vec![] }],
            0,
            DelayPolicy::Fixed(3),
        );
        for m in 0..5 {
            net.post(0, 0, m);
        }
        net.run_to_quiescence();
        assert_eq!(net.node(1).log, vec![0, 1, 2, 3, 4]);
    }
}
