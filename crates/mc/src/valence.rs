//! Valency analysis: bivalent and critical configurations.
//!
//! The proof of Theorem 3 is a valency argument: every wait-free consensus
//! protocol has a *critical* configuration — bivalent, but every single
//! step commits the outcome — and the case analysis of what the pending
//! operations at a critical configuration can be (Figure 1a/1b) yields the
//! contradiction. This module computes valencies exactly on concrete
//! protocol instances and reports their critical configurations, letting
//! us *see* the paper's argument on Algorithm 1 instances: the decisive
//! pending operations are precisely the token-mutating race operations on
//! the shared account.

use std::collections::{BTreeSet, HashMap};

use tokensync_spec::ProcessId;

use crate::protocol::{Config, Protocol};

/// Valency report for one protocol instance.
#[derive(Clone, Debug)]
pub struct ValenceReport {
    /// Total reachable configurations.
    pub configs: usize,
    /// Configurations from which at least two different decisions are
    /// reachable.
    pub bivalent: usize,
    /// Configurations committed to a single decision.
    pub univalent: usize,
    /// The critical configurations found.
    pub critical: Vec<CriticalConfig>,
}

/// A critical configuration: bivalent, with every enabled step leading to a
/// univalent successor.
#[derive(Clone, Debug)]
pub struct CriticalConfig {
    /// The decisions reachable from this configuration.
    pub valence: Vec<u64>,
    /// For each live process: a description of its pending operation and
    /// the unique decision its step commits to.
    pub pending: Vec<(ProcessId, String, u64)>,
    /// A schedule reaching this configuration from the initial one.
    pub schedule: Vec<ProcessId>,
}

/// Computes exact valencies of every reachable configuration of `protocol`
/// and extracts the critical configurations.
///
/// Assumes the protocol satisfies agreement and wait-freedom on this
/// instance (run the [`Explorer`](crate::Explorer) first); valencies are
/// then well defined.
///
/// # Panics
///
/// Panics if a configuration with no live processes has inconsistent
/// decisions (i.e. the protocol violates agreement).
pub fn analyze<P: Protocol>(protocol: &P) -> ValenceReport {
    let mut memo: HashMap<Config<P>, BTreeSet<u64>> = HashMap::new();
    let initial = Config::initial(protocol);
    valence_of(protocol, &initial, &mut memo);

    let mut report = ValenceReport {
        configs: 0,
        bivalent: 0,
        univalent: 0,
        critical: Vec::new(),
    };

    // Walk all reachable configs to classify them and find criticals with a
    // witness schedule; valencies are computed on demand (the first pass
    // shortcuts at configurations that already carry a decision).
    let mut schedule = Vec::new();
    let mut seen: std::collections::HashSet<Config<P>> = Default::default();
    walk(
        protocol,
        initial,
        &mut memo,
        &mut report,
        &mut schedule,
        &mut seen,
    );
    report.configs = report.bivalent + report.univalent;
    report
}

fn valence_of<P: Protocol>(
    protocol: &P,
    config: &Config<P>,
    memo: &mut HashMap<Config<P>, BTreeSet<u64>>,
) -> BTreeSet<u64> {
    if let Some(v) = memo.get(config) {
        return v.clone();
    }
    // Any decision already taken pins the valence (agreement assumed).
    if let Some(v) = config.decided.iter().flatten().next() {
        let set: BTreeSet<u64> = [*v].into();
        memo.insert(config.clone(), set.clone());
        return set;
    }
    // Seed the memo to guard against cycles (a cycle with no decisions
    // contributes nothing on its own).
    memo.insert(config.clone(), BTreeSet::new());
    let mut set = BTreeSet::new();
    for p in config.live().collect::<Vec<_>>() {
        let mut next = config.clone();
        next.advance(protocol, p);
        set.extend(valence_of(protocol, &next, memo));
    }
    memo.insert(config.clone(), set.clone());
    set
}

fn walk<P: Protocol>(
    protocol: &P,
    config: Config<P>,
    memo: &mut HashMap<Config<P>, BTreeSet<u64>>,
    report: &mut ValenceReport,
    schedule: &mut Vec<ProcessId>,
    seen: &mut std::collections::HashSet<Config<P>>,
) {
    if !seen.insert(config.clone()) {
        return;
    }
    let my_valence = valence_of(protocol, &config, memo);
    if my_valence.len() >= 2 {
        report.bivalent += 1;
    } else {
        report.univalent += 1;
    }

    let live: Vec<ProcessId> = config.live().collect();
    if my_valence.len() >= 2 && !live.is_empty() {
        let mut successors = Vec::new();
        let mut all_univalent = true;
        for p in &live {
            let mut next = config.clone();
            next.advance(protocol, *p);
            let v = valence_of(protocol, &next, memo);
            if v.len() != 1 {
                all_univalent = false;
                break;
            }
            let description = protocol.describe_step(&config.shared, &config.locals[p.index()], *p);
            successors.push((*p, description, *v.iter().next().expect("univalent")));
        }
        if all_univalent {
            report.critical.push(CriticalConfig {
                valence: my_valence.iter().copied().collect(),
                pending: successors,
                schedule: schedule.clone(),
            });
        }
    }

    for p in live {
        let mut next = config.clone();
        next.advance(protocol, p);
        schedule.push(p);
        walk(protocol, next, memo, report, schedule, seen);
        schedule.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::TokenRace;
    use tokensync_core::token_consensus::RaceMode;

    #[test]
    fn algorithm1_has_critical_configurations() {
        let protocol = TokenRace::in_sync_state(2);
        let report = analyze(&protocol);
        assert!(
            report.bivalent > 0,
            "initial configuration must be bivalent"
        );
        assert!(report.univalent > 0);
        assert!(
            !report.critical.is_empty(),
            "every wait-free consensus protocol has a critical configuration"
        );
        assert_eq!(report.configs, report.bivalent + report.univalent);
    }

    #[test]
    fn critical_steps_are_the_token_race_operations() {
        // The Figure 1 claim, observed: at every critical configuration of
        // Algorithm 1, the decisive pending operations are the mutating
        // token operations (transfer / transferFrom) on the shared
        // account — never register writes or reads.
        let protocol = TokenRace::in_sync_state(2);
        let report = analyze(&protocol);
        for critical in &report.critical {
            for (_, description, _) in &critical.pending {
                assert!(
                    description.contains("transfer"),
                    "critical step is not a token mutation: {description}"
                );
            }
            // The two committed outcomes must differ (that is what makes
            // the configuration critical).
            let outcomes: BTreeSet<u64> = critical.pending.iter().map(|(_, _, v)| *v).collect();
            assert!(outcomes.len() >= 2);
        }
    }

    #[test]
    fn verbatim_mode_shows_same_structure() {
        let protocol = TokenRace::in_sync_state_with_mode(2, RaceMode::Verbatim);
        let report = analyze(&protocol);
        assert!(!report.critical.is_empty());
    }

    #[test]
    fn k3_analysis_completes() {
        let protocol = TokenRace::in_sync_state(3);
        let report = analyze(&protocol);
        assert!(report.configs > 100);
        assert!(!report.critical.is_empty());
    }
}
