//! **E2 — Theorem 3 (upper bound) and its proof machinery.**
//!
//! * E2a: the commutativity / read-only case analysis (Figure 1a/1b),
//!   checked over every operation pair on an enumerated state universe.
//! * E2b: counterexamples — running the race beyond the state's level
//!   (`k' > k`), or from a state violating `U`, breaks consensus; the
//!   explorer produces the schedules.
//! * E2c: valency analysis — critical configurations of Algorithm 1 and
//!   the nature of their decisive pending steps.

use tokensync_core::token_consensus::RaceMode;
use tokensync_experiments::Table;
use tokensync_mc::commute::{analyze_states, op_menu};
use tokensync_mc::enumerate::enumerate_states;
use tokensync_mc::protocols::TokenRace;
use tokensync_mc::valence;
use tokensync_mc::{Explorer, Outcome, Violation};

fn main() {
    println!("E2: the synchronization level of a state cannot be exceeded (Theorem 3)");

    // --- E2a: mechanized case analysis -----------------------------------
    let states: Vec<_> = enumerate_states(2, 2, 2).collect();
    let report = analyze_states(2, &states, &[0, 1, 2]);
    let mut t = Table::new(&["op pair", "instances", "commute", "read-only", "conflict"]);
    for ((a, b), counts) in &report.by_kind {
        if counts.conflict > 0 || !a.contains("balance") && !b.contains("balance") {
            t.row_owned(vec![
                format!("{a} / {b}"),
                counts.total.to_string(),
                counts.commute.to_string(),
                counts.read_only.to_string(),
                counts.conflict.to_string(),
            ]);
        }
    }
    t.print(&format!(
        "E2a: pair classification over {} states × {} ops (n=2, β≤2, α≤2)",
        report.states,
        op_menu(2, &[0, 1, 2]).len()
    ));
    assert!(report.unexplained.is_empty(), "{:#?}", report.unexplained);
    println!(
        "every conflict fits the paper's catalog (same-source withdrawal or \
         approve/spender race): {} unexplained",
        report.unexplained.len()
    );

    // --- E2b: violations beyond the supported level ----------------------
    let mut t = Table::new(&["scenario", "outcome", "violation", "schedule len"]);
    let scenarios: Vec<(&str, TokenRace)> = vec![
        (
            "k=2 state, 3 processes (verbatim)",
            TokenRace::overreach(2, 1, RaceMode::Verbatim),
        ),
        (
            "k=2 state, 3 processes (generalized)",
            TokenRace::overreach(2, 1, RaceMode::Generalized),
        ),
        (
            "k=3 state, 4 processes",
            TokenRace::overreach(3, 1, RaceMode::Generalized),
        ),
        (
            "U violated (allowances 1+1 = balance 2)",
            TokenRace::with_u_violated(),
        ),
        (
            "verbatim, allowance > balance",
            TokenRace::verbatim_oversized(),
        ),
    ];
    for (name, protocol) in scenarios {
        let report = Explorer::new(&protocol).run();
        let (kind, len) = match report.violation() {
            Some(Violation::Disagreement { schedule, .. }) => ("disagreement", schedule.len()),
            Some(Violation::Invalidity { schedule, .. }) => ("invalidity", schedule.len()),
            Some(Violation::NonTermination { schedule, .. }) => ("non-termination", schedule.len()),
            None => ("NONE FOUND", 0),
        };
        assert!(report.violation().is_some(), "{name}: expected a violation");
        t.row_owned(vec![
            name.to_string(),
            "violated".to_string(),
            kind.to_string(),
            len.to_string(),
        ]);
    }
    // The generalized mode *closes* the oversized-allowance gap:
    let fixed = Explorer::new(&TokenRace::generalized_oversized()).run();
    assert!(matches!(fixed.outcome, Outcome::Verified));
    t.row(&["generalized, allowance > balance", "verified", "-", "-"]);
    t.print("E2b: counterexample search");
    println!(
        "note: the verbatim Algorithm 1 additionally requires allowances ≤ balance \
         (the proof's 'sufficient allowances' premise); the generalized race \
         (transfer min(A_i, B), detect allowance decrease) needs only U."
    );

    // --- E2c: valency / critical configurations --------------------------
    let mut t = Table::new(&["k", "configs", "bivalent", "univalent", "critical"]);
    for k in [2usize, 3] {
        let protocol = TokenRace::in_sync_state(k);
        let report = valence::analyze(&protocol);
        t.row_owned(vec![
            k.to_string(),
            report.configs.to_string(),
            report.bivalent.to_string(),
            report.univalent.to_string(),
            report.critical.len().to_string(),
        ]);
    }
    t.print("E2c: valency census of Algorithm 1");

    let protocol = TokenRace::in_sync_state(2);
    let report = valence::analyze(&protocol);
    if let Some(critical) = report.critical.first() {
        println!(
            "\nsample critical configuration (reached by schedule {:?}):",
            critical.schedule
        );
        for (p, step, commits) in &critical.pending {
            println!("  {p} next: {step}  → commits decision {commits}");
        }
        println!(
            "as in Figure 1: the decisive steps are the conflicting token mutations \
             on the shared account."
        );
    }
}
