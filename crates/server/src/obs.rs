//! Server-side metrics: session and request counters plus the
//! end-to-end request latency histogram, registered in the same
//! `tokensync-obs` [`Registry`] the pipeline and store recorders use —
//! one exposition endpoint covers socket to fsync.

use tokensync_obs::{Counter, Gauge, Histogram, Registry};

/// Cloneable handle on the server's metric family. Every clone shares
/// the same atomics (the registry interns by name), so the acceptor,
/// reader threads, and the engine-side response router all record into
/// one view.
#[derive(Clone)]
pub struct ServerObs {
    registry: Registry,
    /// Connections accepted over the server's lifetime.
    pub sessions: Counter,
    /// Connections currently open: each holds a slot in the response
    /// routing table (socket, staging buffers, pending window) from
    /// accept until its writer thread has exited.
    pub active: Gauge,
    /// Requests answered `Ok` (committed and acked).
    pub requests_ok: Counter,
    /// Requests rejected by admission control (`Busy`).
    pub busy: Counter,
    /// CRC-valid requests rejected as semantically invalid
    /// (`BadRequest`).
    pub bad_requests: Counter,
    /// Connections dropped for framing violations (bad CRC, oversized
    /// length, short request header) — the fail-closed counter.
    pub wire_errors: Counter,
    /// Connections dropped by the slowloris deadline (a frame left
    /// pending mid-transfer past the read grace).
    pub slow_disconnects: Counter,
    /// Connections dropped because their bounded write queue overflowed
    /// (a client that stopped reading responses).
    pub write_overflows: Counter,
    /// Buffers handed to connection write queues — one per connection
    /// per committed wave (or rejected read burst), however many
    /// response frames each carries.
    pub write_pushes: Counter,
    /// End-to-end request latency in nanoseconds: burst read →
    /// response queued (after commit, and after the durability wait in
    /// durable-ack mode).
    pub request_ns: Histogram,
    /// Durable-ack mode: sealed batches whose acks are waiting for the
    /// durable watermark.
    pub acks_held: Gauge,
    /// Durable-ack mode: how long a sealed batch's acks waited for the
    /// watermark, seal → release, in nanoseconds — the share of
    /// `request_ns` that is the fsync, not the engine.
    pub durable_hold_ns: Histogram,
}

impl ServerObs {
    /// Registers the server metric family in `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        let c = |name: &str, help: &str| registry.counter(name, &[], help);
        Self {
            registry: registry.clone(),
            sessions: c(
                "tokensync_server_sessions_total",
                "Connections accepted over the server's lifetime.",
            ),
            active: registry.gauge(
                "tokensync_server_sessions_active",
                &[],
                "Connections currently open.",
            ),
            requests_ok: c(
                "tokensync_server_requests_ok_total",
                "Requests answered Ok (committed and acked).",
            ),
            busy: c(
                "tokensync_server_requests_busy_total",
                "Requests rejected by intake admission control.",
            ),
            bad_requests: c(
                "tokensync_server_requests_bad_total",
                "CRC-valid requests rejected as semantically invalid.",
            ),
            wire_errors: c(
                "tokensync_server_wire_errors_total",
                "Connections dropped fail-closed on framing violations.",
            ),
            slow_disconnects: c(
                "tokensync_server_slow_disconnects_total",
                "Connections dropped by the slowloris read deadline.",
            ),
            write_overflows: c(
                "tokensync_server_write_overflows_total",
                "Connections dropped on bounded write-queue overflow.",
            ),
            write_pushes: c(
                "tokensync_server_write_pushes_total",
                "Response buffers queued for connection writers.",
            ),
            request_ns: registry.histogram(
                "tokensync_server_request_ns",
                &[],
                "End-to-end request latency (read to response queued), ns.",
            ),
            acks_held: registry.gauge(
                "tokensync_server_acks_held",
                &[],
                "Sealed batches whose acks await the durable watermark.",
            ),
            durable_hold_ns: registry.histogram(
                "tokensync_server_durable_hold_ns",
                &[],
                "Wait of a sealed batch's acks for the durable watermark (seal to release), ns.",
            ),
        }
    }

    /// The registry this family records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}
