//! A decentralized-exchange escrow — the workload the paper's introduction
//! motivates: users `approve` a DEX contract to pull funds conditionally,
//! and the platform watches its own synchronization requirements move.
//!
//! The scenario runs on the restricted token `T|Q_2` (Algorithm 2 over
//! k-AT): the platform *provisions* synchronization level 2 — owner plus
//! one spender (the DEX) per account — and the gate rejects anything that
//! would need more.
//!
//! ```sh
//! cargo run --example dex_escrow
//! ```

use tokensync::core::analysis::SyncMonitor;
use tokensync::core::emulation::RestrictedToken;
use tokensync::core::erc20::Erc20State;
use tokensync::core::shared::{ConcurrentObject, ConcurrentToken};
use tokensync::spec::{AccountId, ProcessId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Participants: the DEX (p0) and four traders (p1..p4), all funded.
    let dex = ProcessId::new(0);
    let n = 5;
    let initial = Erc20State::from_balances(vec![0, 100, 100, 100, 100]);
    let token = RestrictedToken::new(2, initial);
    let mut monitor = SyncMonitor::new();
    monitor.observe(&token.snapshot());

    println!("traders escrow funds with the DEX via approve…");
    for trader in 1..n {
        token.approve(ProcessId::new(trader), dex, 40)?;
        monitor.observe(&token.snapshot());
    }

    // A trade: the DEX settles 30 from trader 1 to trader 2 and 25 back.
    println!("DEX settles a matched order: t1 → t2 (30), t2 → t1 (25)");
    token.transfer_from(dex, AccountId::new(1), AccountId::new(2), 30)?;
    token.transfer_from(dex, AccountId::new(2), AccountId::new(1), 25)?;
    monitor.observe(&token.snapshot());

    // The provisioning guarantee: a second spender on a trader's account
    // would exceed the provisioned level — the platform refuses rather
    // than silently needing more consensus than it runs.
    let err = token
        .approve(ProcessId::new(1), ProcessId::new(3), 10)
        .unwrap_err();
    println!("trader 1 tries to approve a second spender: rejected ({err})");

    // Traders can always revoke and leave.
    token.approve(ProcessId::new(3), dex, 0)?;
    monitor.observe(&token.snapshot());

    println!("\nsynchronization trajectory (consensus-number upper bound per step):");
    for point in monitor.series() {
        println!(
            "  step {:>2}: {}  hotspot {}",
            point.op_index,
            point.bounds,
            point
                .hotspot
                .map(|a| a.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
    println!(
        "\nk-AT instances consumed by spender-set changes: {}",
        token.kat_instances()
    );
    println!(
        "final balances: t1 = {}, t2 = {}",
        token.balance_of(AccountId::new(1)),
        token.balance_of(AccountId::new(2)),
    );
    Ok(())
}
