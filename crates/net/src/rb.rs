//! Bracha's Byzantine reliable broadcast.
//!
//! Reliable broadcast is the synchronization primitive the paper's
//! motivating protocols (Collins et al.) replace consensus with. Bracha's
//! classic three-phase protocol tolerates `f < n/3` Byzantine senders:
//!
//! 1. the sender disseminates `Init(m)`;
//! 2. on first `Init` (or on enough `Echo`s), nodes `Echo(m)`;
//! 3. on `⌈(n+f+1)/2⌉` matching `Echo`s — or `f+1` matching `Ready`s —
//!    nodes send `Ready(m)`;
//! 4. on `2f+1` matching `Ready`s, nodes **deliver** `m`.
//!
//! Guarantees: *validity* (a correct sender's message is delivered),
//! *consistency* (no two correct nodes deliver different messages for the
//! same broadcast id), and *totality* (if one correct node delivers, all
//! correct nodes eventually do).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;

use crate::sim::Context;

/// Identifier of one broadcast instance: the originating node and its
/// per-origin sequence number.
pub type RbId = (usize, u64);

/// Bracha protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbMsg<T> {
    /// Sender's dissemination.
    Init(RbId, T),
    /// Second phase: "I saw this payload for this id".
    Echo(RbId, T),
    /// Third phase: "I am ready to deliver this payload".
    Ready(RbId, T),
}

/// Per-node reliable-broadcast engine, embedded in application nodes.
///
/// Call [`Bracha::broadcast`] to originate, feed every incoming [`RbMsg`]
/// to [`Bracha::handle`], and apply the returned deliveries (in order).
#[derive(Clone, Debug)]
pub struct Bracha<T> {
    n: usize,
    f: usize,
    next_seq: u64,
    echoed: BTreeSet<RbId>,
    readied: BTreeSet<RbId>,
    delivered: BTreeSet<RbId>,
    echoes: BTreeMap<RbId, BTreeMap<usize, T>>,
    readies: BTreeMap<RbId, BTreeMap<usize, T>>,
}

impl<T: Clone + Eq + Hash + Debug> Bracha<T> {
    /// Creates the engine for a network of `n` nodes, tolerating the
    /// maximum `f = ⌊(n-1)/3⌋`.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            f: (n.saturating_sub(1)) / 3,
            next_seq: 0,
            echoed: BTreeSet::new(),
            readied: BTreeSet::new(),
            delivered: BTreeSet::new(),
            echoes: BTreeMap::new(),
            readies: BTreeMap::new(),
        }
    }

    /// The fault threshold `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    fn echo_quorum(&self) -> usize {
        (self.n + self.f) / 2 + 1
    }

    fn ready_amplify(&self) -> usize {
        self.f + 1
    }

    fn deliver_quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Originates a broadcast of `payload`, returning its id.
    pub fn broadcast(&mut self, payload: T, ctx: &mut Context<RbMsg<T>>) -> RbId {
        let id = (ctx.me(), self.next_seq);
        self.next_seq += 1;
        ctx.broadcast(RbMsg::Init(id, payload));
        id
    }

    /// Processes one protocol message; returns payloads delivered by this
    /// call (possibly empty).
    pub fn handle(
        &mut self,
        from: usize,
        msg: RbMsg<T>,
        ctx: &mut Context<RbMsg<T>>,
    ) -> Vec<(RbId, T)> {
        match msg {
            RbMsg::Init(id, payload) => {
                // Only the claimed origin's Init counts (a Byzantine node
                // may forge only its own broadcasts).
                if from == id.0 && self.echoed.insert(id) {
                    ctx.broadcast(RbMsg::Echo(id, payload));
                }
                Vec::new()
            }
            RbMsg::Echo(id, payload) => {
                self.echoes.entry(id).or_default().insert(from, payload);
                self.try_progress(id, ctx)
            }
            RbMsg::Ready(id, payload) => {
                self.readies.entry(id).or_default().insert(from, payload);
                self.try_progress(id, ctx)
            }
        }
    }

    /// Counts matching votes for the (unique, majority) payload of `id` in
    /// `map`; returns the payload with the highest count.
    fn leading(map: Option<&BTreeMap<usize, T>>) -> Option<(&T, usize)> {
        let map = map?;
        let mut counts: Vec<(&T, usize)> = Vec::new();
        for payload in map.values() {
            match counts.iter_mut().find(|(p, _)| *p == payload) {
                Some((_, c)) => *c += 1,
                None => counts.push((payload, 1)),
            }
        }
        counts.into_iter().max_by_key(|(_, c)| *c)
    }

    fn try_progress(&mut self, id: RbId, ctx: &mut Context<RbMsg<T>>) -> Vec<(RbId, T)> {
        let mut out = Vec::new();
        let echo_lead = Self::leading(self.echoes.get(&id)).map(|(p, c)| (p.clone(), c));
        let ready_lead = Self::leading(self.readies.get(&id)).map(|(p, c)| (p.clone(), c));

        if !self.readied.contains(&id) {
            let by_echo = echo_lead
                .as_ref()
                .is_some_and(|(_, c)| *c >= self.echo_quorum());
            let by_ready = ready_lead
                .as_ref()
                .is_some_and(|(_, c)| *c >= self.ready_amplify());
            if by_echo || by_ready {
                let payload = if by_echo {
                    echo_lead.as_ref().expect("by_echo").0.clone()
                } else {
                    ready_lead.as_ref().expect("by_ready").0.clone()
                };
                self.readied.insert(id);
                ctx.broadcast(RbMsg::Ready(id, payload));
            }
        }

        if !self.delivered.contains(&id) {
            if let Some((payload, c)) = ready_lead {
                if c >= self.deliver_quorum() {
                    self.delivered.insert(id);
                    out.push((id, payload));
                }
            }
        }
        out
    }

    /// Whether `id` has been delivered locally.
    pub fn is_delivered(&self, id: RbId) -> bool {
        self.delivered.contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Node, SimNet};

    /// A node that reliably broadcasts strings and logs deliveries.
    struct RbNode {
        rb: Bracha<String>,
        log: Vec<(RbId, String)>,
        to_send: Option<String>,
    }

    impl Node for RbNode {
        type Msg = RbMsg<String>;
        fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
            if let Some(payload) = self.to_send.take() {
                self.rb.broadcast(payload, ctx);
            }
        }
        fn on_message(&mut self, from: usize, msg: Self::Msg, ctx: &mut Context<Self::Msg>) {
            self.log.extend(self.rb.handle(from, msg, ctx));
        }
    }

    fn network(n: usize, senders: &[(usize, &str)], seed: u64) -> SimNet<RbNode> {
        let nodes = (0..n)
            .map(|i| RbNode {
                rb: Bracha::new(n),
                log: Vec::new(),
                to_send: senders
                    .iter()
                    .find(|(s, _)| *s == i)
                    .map(|(_, m)| m.to_string()),
            })
            .collect();
        SimNet::new(nodes, seed)
    }

    #[test]
    fn everyone_delivers_a_correct_broadcast() {
        for seed in 0..10 {
            let mut net = network(4, &[(0, "hello")], seed);
            net.run_to_quiescence();
            for i in 0..4 {
                assert_eq!(
                    net.node(i).log,
                    vec![((0, 0), "hello".to_string())],
                    "node {i} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn concurrent_broadcasts_all_delivered() {
        let mut net = network(7, &[(0, "a"), (3, "b"), (6, "c")], 11);
        net.run_to_quiescence();
        for i in 0..7 {
            let mut ids: Vec<RbId> = net.node(i).log.iter().map(|(id, _)| *id).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![(0, 0), (3, 0), (6, 0)]);
        }
    }

    #[test]
    fn totality_despite_f_crashes() {
        // n = 4 tolerates f = 1 crash: the remaining 3 still deliver.
        let mut net = network(4, &[(0, "x")], 3);
        net.crash(3);
        net.run_to_quiescence();
        for i in 0..3 {
            assert!(net.node(i).rb.is_delivered((0, 0)), "node {i}");
        }
    }

    #[test]
    fn consistency_under_equivocation() {
        // A Byzantine origin sends Init("a") to half the nodes and
        // Init("b") to the other half, bypassing its Bracha engine. No two
        // correct nodes may deliver different payloads.
        let n = 4;
        let mut net = network(n, &[], 13);
        for dst in 0..n {
            let payload = if dst % 2 == 0 { "a" } else { "b" };
            net.post(0, dst, RbMsg::Init((0, 0), payload.to_string()));
        }
        net.run_to_quiescence();
        let delivered: Vec<&String> = (1..n)
            .flat_map(|i| net.node(i).log.iter().map(|(_, p)| p))
            .collect();
        let mut distinct = delivered.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() <= 1,
            "correct nodes delivered conflicting payloads: {delivered:?}"
        );
    }

    #[test]
    fn thresholds_match_bracha() {
        let rb: Bracha<u8> = Bracha::new(10);
        assert_eq!(rb.f(), 3);
        assert_eq!(rb.echo_quorum(), 7); // ⌈(10+3+1)/2⌉
        assert_eq!(rb.ready_amplify(), 4);
        assert_eq!(rb.deliver_quorum(), 7);
    }
}
