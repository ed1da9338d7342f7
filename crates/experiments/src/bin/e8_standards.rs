//! **E8 — Section 6: other token standards.**
//!
//! * ERC777 and ERC721 consensus races exhaustively model-checked (the
//!   paper: "it is immediate to extend our results to ERC777";
//!   "Algorithm 1 can be adapted [to ERC721] … the winner of this race
//!   can then be determined by invoking ownerOf").
//! * Threaded stress of the real adapter objects for larger k.
//! * The ERC1155 operator census and the ERC1363 unbounded-power note.

use std::collections::HashSet;
use std::sync::Arc;

use tokensync_core::standards::erc1155::{Erc1155State, TypeId};
use tokensync_core::standards::erc721::Erc721Consensus;
use tokensync_core::standards::erc777::Erc777Consensus;
use tokensync_experiments::Table;
use tokensync_mc::protocols::{Erc721Race, Erc777Race};
use tokensync_mc::{Explorer, Outcome};
use tokensync_spec::{AccountId, ProcessId};

fn outcome_str(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Verified => "verified",
        Outcome::Violated(_) => "VIOLATED",
        Outcome::Exhausted => "exhausted",
    }
}

fn main() {
    println!("E8: the Section 6 standards inherit the token's synchronization story");

    // --- exhaustive checks ------------------------------------------------
    let mut t = Table::new(&["standard", "k", "configs", "outcome"]);
    for k in 1..=3 {
        let report = Explorer::new(&Erc777Race::new(k, 2)).run();
        t.row_owned(vec![
            "ERC777".into(),
            k.to_string(),
            report.stats.configs.to_string(),
            outcome_str(&report.outcome).into(),
        ]);
        assert!(matches!(report.outcome, Outcome::Verified));
    }
    for k in 1..=4 {
        let report = Explorer::new(&Erc721Race::new(k)).run();
        t.row_owned(vec![
            "ERC721".into(),
            k.to_string(),
            report.stats.configs.to_string(),
            outcome_str(&report.outcome).into(),
        ]);
        assert!(matches!(report.outcome, Outcome::Verified));
    }
    t.print("exhaustive model checking of the adapted consensus races");

    // --- threaded stress --------------------------------------------------
    let mut t = Table::new(&["standard", "k", "runs", "violations"]);
    for k in [2usize, 4, 8] {
        let mut violations = 0;
        let runs = 100;
        for _ in 0..runs {
            let c: Arc<Erc777Consensus<usize>> = Arc::new(Erc777Consensus::new(k, 16));
            let mut decisions = Vec::new();
            crossbeam::scope(|s| {
                let handles: Vec<_> = (0..k)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        s.spawn(move |_| c.propose(ProcessId::new(i), i))
                    })
                    .collect();
                for h in handles {
                    decisions.push(h.join().expect("proposer"));
                }
            })
            .expect("scope");
            if decisions.iter().collect::<HashSet<_>>().len() != 1 || decisions[0] >= k {
                violations += 1;
            }
        }
        t.row_owned(vec![
            "ERC777".into(),
            k.to_string(),
            runs.to_string(),
            violations.to_string(),
        ]);
        assert_eq!(violations, 0);

        let mut violations = 0;
        for _ in 0..runs {
            let c: Arc<Erc721Consensus<usize>> = Arc::new(Erc721Consensus::new(k));
            let mut decisions = Vec::new();
            crossbeam::scope(|s| {
                let handles: Vec<_> = (0..k)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        s.spawn(move |_| c.propose(ProcessId::new(i), i))
                    })
                    .collect();
                for h in handles {
                    decisions.push(h.join().expect("proposer"));
                }
            })
            .expect("scope");
            if decisions.iter().collect::<HashSet<_>>().len() != 1 || decisions[0] >= k {
                violations += 1;
            }
        }
        t.row_owned(vec![
            "ERC721".into(),
            k.to_string(),
            runs.to_string(),
            violations.to_string(),
        ]);
        assert_eq!(violations, 0);
    }
    t.print("threaded stress of the adapter consensus objects");

    // --- ERC1155 census ---------------------------------------------------
    let mut multi = Erc1155State::deploy(4, ProcessId::new(0), &[10, 10]);
    multi
        .set_approval_for_all(ProcessId::new(0), ProcessId::new(1), true)
        .expect("ids in range");
    multi
        .set_approval_for_all(ProcessId::new(0), ProcessId::new(2), true)
        .expect("ids in range");
    assert_eq!(multi.sync_level(), 3);
    println!(
        "\nERC1155: operator census upper-bounds the contract at level {} \
         (owner + 2 operators on a funded account); exact bounds remain open, \
         as the paper notes.",
        multi.sync_level()
    );
    multi
        .safe_batch_transfer_from(
            ProcessId::new(0),
            AccountId::new(0),
            AccountId::new(3),
            &[TypeId::new(0), TypeId::new(1)],
            &[10, 10],
        )
        .expect("drain");
    assert_eq!(multi.sync_level(), 1);
    println!(
        "after draining the account its operators go dormant: level {}.",
        multi.sync_level()
    );

    println!(
        "\nERC1363: receiver callbacks embed arbitrary shared objects, so no \
         a-priori consensus number exists (demonstrated in \
         core::standards::erc1363::tests::hooks_can_embed_arbitrary_synchronization)."
    );
}
