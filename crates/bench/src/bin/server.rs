//! **`server`** — the end-to-end serving benchmark behind
//! `BENCH_server.json`.
//!
//! Drives the TCP front end (`tokensync-server`) with a fleet of
//! simulated client connections per standard — full mode holds ≥1k
//! concurrent connections, each with one request in flight (closed
//! loop) — and reports:
//!
//! * **req/s** end to end: framed request in, committed response out,
//!   across the whole fleet;
//! * **latency** from the server's own `tokensync-obs` histogram
//!   (`tokensync_server_request_ns`: frame decoded → response queued at
//!   commit), p50/p90/p99;
//! * the **in-process baseline**: the identical op stream pushed through
//!   `run_script` with no sockets, no framing, no per-connection
//!   threads — so the artifact quantifies exactly what the wire costs;
//! * admission pressure (`busy_retries`) and the commit == ack
//!   cross-check (`committed` must equal `ok`).
//!
//! Workloads are fully commuting per standard (disjoint footprints), so
//! the numbers measure the serving path, not scheduler serialization:
//! ERC20 transfers into a disjoint destination range, ERC721
//! self-transfers of per-connection tokens, ERC1155 transfers on
//! per-connection (type, account) cells.
//!
//! ```sh
//! cargo run --release -p tokensync-bench --bin server             # full: 1024 connections
//! cargo run --release -p tokensync-bench --bin server -- --quick  # CI smoke: 128 connections
//! cargo run --release -p tokensync-bench --bin server -- --out path.json
//! ```

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokensync_bench::harness::host_json;
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, ShardedErc1155, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, Erc721State, ShardedErc721, TokenId};
use tokensync_obs::Registry;
use tokensync_pipeline::{run_script, PipelineConfig};
use tokensync_server::{Client, Reply, Server, ServerConfig, WireStandard};
use tokensync_spec::{AccountId, ProcessId};

/// Client worker threads the connection fleet is spread over.
const WORKERS: usize = 8;

struct Cell {
    standard: &'static str,
    conns: usize,
    requests: u64,
    ok: u64,
    busy_retries: u64,
    committed: u64,
    run_ms: f64,
    req_per_sec: f64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    inproc_ops: u64,
    inproc_ms: f64,
    inproc_ops_per_sec: f64,
    wire_overhead: f64,
}

fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig::default();
    // The fleet keeps one request per connection in flight; size the
    // intake so steady state never trips admission control, leaving
    // `busy_retries` to report genuine pressure only.
    cfg.pipeline.batch.queue_depth = 16 * 1024;
    cfg
}

/// Connects with retry: a fleet-sized connect burst can overflow the
/// listener backlog, which on Linux surfaces as refused/reset connects —
/// back off and retry rather than undercounting the fleet.
fn connect_with_retry<T>(addr: SocketAddr) -> Client<T>
where
    T: WireStandard,
    T::Op: tokensync_core::codec::Codec,
    T::Resp: tokensync_core::codec::Codec,
{
    let mut delay = Duration::from_millis(1);
    for _ in 0..200 {
        match Client::<T>::connect(addr) {
            Ok(c) => return c,
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
        }
    }
    panic!("could not connect a fleet client to {addr}");
}

/// Drives `conns` closed-loop connections through `rounds` requests
/// each, multiplexed over [`WORKERS`] threads. `op_for(conn, round)`
/// names each request. Returns (ok, busy_retries, elapsed).
fn drive_fleet<T, F>(addr: SocketAddr, conns: usize, rounds: u64, op_for: F) -> (u64, u64, Duration)
where
    T: WireStandard,
    T::Op: tokensync_core::codec::Codec,
    T::Resp: tokensync_core::codec::Codec,
    F: Fn(usize, u64) -> (ProcessId, T::Op) + Send + Sync + 'static,
{
    let op_for = Arc::new(op_for);
    let start = Instant::now();
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let op_for = Arc::clone(&op_for);
            std::thread::spawn(move || {
                // Worker w owns connections w, w+WORKERS, w+2·WORKERS, …
                let mine: Vec<usize> = (w..conns).step_by(WORKERS).collect();
                let mut clients: Vec<Client<T>> = mine
                    .iter()
                    .map(|_| {
                        let mut c = connect_with_retry::<T>(addr);
                        c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                        c
                    })
                    .collect();
                let (mut ok, mut busy) = (0u64, 0u64);
                for round in 0..rounds {
                    // Fan the round out: one send per connection first,
                    // so every connection has a request in flight (sends
                    // are buffered, so each is flushed here rather than
                    // by the `recv` that would wait for it)…
                    for (slot, &conn) in mine.iter().enumerate() {
                        let (caller, op) = op_for(conn, round);
                        clients[slot].send(caller, &op).unwrap();
                        clients[slot].flush().unwrap();
                    }
                    // …then collect, retrying admission rejections.
                    for (slot, &conn) in mine.iter().enumerate() {
                        loop {
                            let (_, reply) = clients[slot].recv().unwrap();
                            match reply {
                                Reply::Ok(_) => {
                                    ok += 1;
                                    break;
                                }
                                Reply::Busy => {
                                    busy += 1;
                                    let (caller, op) = op_for(conn, round);
                                    clients[slot].send(caller, &op).unwrap();
                                }
                                other => panic!("conn {conn} answered {other:?}"),
                            }
                        }
                    }
                }
                (ok, busy)
            })
        })
        .collect();
    let mut ok = 0;
    let mut busy = 0;
    for h in handles {
        let (o, b) = h.join().unwrap();
        ok += o;
        busy += b;
    }
    (ok, busy, start.elapsed())
}

/// One standard through the server fleet and through the in-process
/// baseline, on identical op streams.
fn measure<T, F>(
    standard: &'static str,
    token: Arc<T>,
    baseline_token: &T,
    conns: usize,
    rounds: u64,
    op_for: F,
) -> Cell
where
    T: WireStandard + 'static,
    T::Op: tokensync_core::codec::Codec + Clone,
    T::Resp: tokensync_core::codec::Codec,
    F: Fn(usize, u64) -> (ProcessId, T::Op) + Send + Sync + Clone + 'static,
{
    eprintln!("{standard}: {conns} connections x {rounds} rounds");
    let registry = Registry::new();
    let handle = Server::spawn(token, (), server_config(), &registry).unwrap();
    let addr = handle.addr();
    let (ok, busy_retries, elapsed) = drive_fleet::<T, F>(addr, conns, rounds, op_for.clone());
    let latency = handle.obs().request_ns.snapshot();
    let (run, ()) = handle.finish();
    let committed = run.log.len() as u64;
    assert_eq!(
        committed, ok,
        "ack/commit divergence: {ok} acks, {committed} commits"
    );

    // In-process baseline: the same ops, no sockets.
    let script: Vec<(ProcessId, T::Op)> = (0..rounds)
        .flat_map(|round| (0..conns).map(move |conn| (conn, round)))
        .map(|(conn, round)| op_for(conn, round))
        .collect();
    let base_start = Instant::now();
    let base_run = run_script(baseline_token, &script, &PipelineConfig::default());
    let base_elapsed = base_start.elapsed();
    assert_eq!(base_run.log.len(), script.len());

    let run_ms = elapsed.as_secs_f64() * 1e3;
    let inproc_ms = base_elapsed.as_secs_f64() * 1e3;
    let req_per_sec = ok as f64 / elapsed.as_secs_f64();
    let inproc_ops_per_sec = script.len() as f64 / base_elapsed.as_secs_f64();
    Cell {
        standard,
        conns,
        requests: ok + busy_retries,
        ok,
        busy_retries,
        committed,
        run_ms,
        req_per_sec,
        p50_ns: latency.p50,
        p90_ns: latency.p90,
        p99_ns: latency.p99,
        inproc_ops: script.len() as u64,
        inproc_ms,
        inproc_ops_per_sec,
        wire_overhead: inproc_ops_per_sec / req_per_sec,
    }
}

fn write_json(path: &Path, quick: bool, conns: usize, rounds: u64, cells: &[Cell]) {
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        rows.push_str(&format!(
            "    {{\"standard\": \"{}\", \"conns\": {}, \"requests\": {}, \"ok\": {}, \
             \"busy_retries\": {}, \"committed\": {}, \"run_ms\": {:.3}, \
             \"req_per_sec\": {:.0}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \
             \"inproc_ops\": {}, \"inproc_ms\": {:.3}, \"inproc_ops_per_sec\": {:.0}, \
             \"wire_overhead\": {:.3}}}{sep}\n",
            c.standard,
            c.conns,
            c.requests,
            c.ok,
            c.busy_retries,
            c.committed,
            c.run_ms,
            c.req_per_sec,
            c.p50_ns,
            c.p90_ns,
            c.p99_ns,
            c.inproc_ops,
            c.inproc_ms,
            c.inproc_ops_per_sec,
            c.wire_overhead,
        ));
    }
    let host = host_json();
    let json = format!(
        "{{\n  \"bench\": \"server\",\n  {host},\n  \"config\": {{\"quick\": {quick}, \
         \"conns\": {conns}, \"rounds_per_conn\": {rounds}, \"client_workers\": {WORKERS}, \
         \"sink\": \"volatile\", \"ack\": \"at-commit\", \
         \"latency_source\": \"tokensync_server_request_ns (decode -> response queued)\"}},\n  \
         \"runs\": [\n{rows}  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write benchmark JSON");
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: server [--quick] [--out PATH]");
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_server.json")
        .to_owned();

    // Full mode: ≥1k concurrent connections, as the artifact promises.
    let (conns, rounds): (usize, u64) = if quick { (128, 50) } else { (1024, 100) };

    let mut cells = Vec::new();

    // ERC20: caller c sends from its own account into a disjoint
    // destination range [conns, 2·conns) — no two footprints collide.
    {
        let accounts = 2 * conns;
        let state = Erc20State::from_balances(vec![1_000_000; accounts]);
        let token = Arc::new(ShardedErc20::from_state(state.clone()));
        let baseline = ShardedErc20::from_state(state);
        let op_for = move |conn: usize, _round: u64| {
            (
                ProcessId::new(conn),
                Erc20Op::Transfer {
                    to: AccountId::new(conns + conn),
                    value: 1,
                },
            )
        };
        cells.push(measure("erc20", token, &baseline, conns, rounds, op_for));
    }

    // ERC721: connection c self-transfers token c — one token cell per
    // connection, fully disjoint, infinitely repeatable.
    {
        let procs = conns.max(16);
        let state = Erc721State::minted_round_robin(procs, 2 * conns.max(16), conns.max(16));
        let token = Arc::new(ShardedErc721::from_state(state.clone()));
        let baseline = ShardedErc721::from_state(state);
        let op_for = move |conn: usize, _round: u64| {
            let owner = ProcessId::new(conn % procs);
            (
                owner,
                Erc721Op::TransferFrom {
                    from: owner,
                    to: owner,
                    token: TokenId::new(conn),
                },
            )
        };
        cells.push(measure("erc721", token, &baseline, conns, rounds, op_for));
    }

    // ERC1155: connection c moves value on type c % 8 between its own
    // account pair — (type, account) cells are per-connection, so all
    // transfers commute.
    {
        let types = 8;
        let accounts = 2 * conns;
        let state =
            Erc1155State::deploy(accounts, ProcessId::new(0), &vec![u32::MAX as u64; types]);
        let seed = ShardedErc1155::from_state(state);
        // Seed every connection's source account so its transfers
        // succeed; done in-process, before serving starts.
        for conn in 0..conns {
            let resp = seed.apply(
                ProcessId::new(0),
                &Erc1155Op::Transfer {
                    from: AccountId::new(0),
                    to: AccountId::new(conn),
                    type_id: TypeId::new(conn % types),
                    value: 1_000_000,
                },
            );
            assert_eq!(resp, tokensync_core::standards::erc1155::Erc1155Resp::TRUE);
        }
        let seeded = seed.snapshot();
        let token = Arc::new(ShardedErc1155::from_state(seeded.clone()));
        let baseline = ShardedErc1155::from_state(seeded);
        let op_for = move |conn: usize, _round: u64| {
            (
                ProcessId::new(conn % accounts),
                Erc1155Op::Transfer {
                    from: AccountId::new(conn),
                    to: AccountId::new(conns + conn),
                    type_id: TypeId::new(conn % types),
                    value: 1,
                },
            )
        };
        cells.push(measure("erc1155", token, &baseline, conns, rounds, op_for));
    }

    for c in &cells {
        eprintln!(
            "{}: {:.0} req/s over the wire vs {:.0} ops/s in-process \
             (overhead x{:.2}), p50 {} us, p99 {} us, {} busy retries",
            c.standard,
            c.req_per_sec,
            c.inproc_ops_per_sec,
            c.wire_overhead,
            c.p50_ns / 1_000,
            c.p99_ns / 1_000,
            c.busy_retries,
        );
    }
    write_json(Path::new(&out), quick, conns, rounds, &cells);
}
