//! Adversarial wire-protocol tests: the frame decoder and the serving
//! loop against torn frames, corrupted checksums, hostile lengths,
//! truncated streams, and garbage preludes — for every standard. The
//! invariants under attack:
//!
//! 1. the decoder never panics and never desyncs onto attacker-chosen
//!    bytes (framing violations fail closed: connection dropped);
//! 2. CRC-valid but semantically bad bodies answer `BadRequest` and the
//!    session continues;
//! 3. a hostile connection never takes the server down — a fresh
//!    well-formed client is always served afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, ShardedErc1155};
use tokensync_core::standards::erc721::{Erc721Op, Erc721State, ShardedErc721, TokenId};
use tokensync_obs::Registry;
use tokensync_server::wire::{
    decode_response, encode_frame, encode_request, FrameDecoder, WireStandard, MAX_FRAME,
};
use tokensync_server::{Client, Reply, Server, ServerConfig, ServerHandle};
use tokensync_spec::{AccountId, ProcessId};

fn test_config() -> ServerConfig {
    ServerConfig {
        read_grace: Duration::from_millis(400),
        ..ServerConfig::default()
    }
}

fn spawn_erc20() -> ServerHandle<ShardedErc20, ()> {
    let token = Arc::new(ShardedErc20::from_state(Erc20State::from_balances(vec![
        1_000;
        64
    ])));
    Server::spawn(token, (), test_config(), &Registry::new()).unwrap()
}

fn spawn_erc721() -> ServerHandle<ShardedErc721, ()> {
    let token = Arc::new(ShardedErc721::from_state(Erc721State::minted_round_robin(
        16, 256, 64,
    )));
    Server::spawn(token, (), test_config(), &Registry::new()).unwrap()
}

fn spawn_erc1155() -> ServerHandle<ShardedErc1155, ()> {
    let token = Arc::new(ShardedErc1155::from_state(Erc1155State::deploy(
        16,
        ProcessId::new(0),
        &[1_000; 8],
    )));
    Server::spawn(token, (), test_config(), &Registry::new()).unwrap()
}

/// A raw (untyped) connection for speaking hostile bytes.
fn raw_conn(handle_addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(handle_addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Reads until EOF/reset, asserting the server closed the connection
/// (fail-closed) rather than answering anything on a broken stream.
fn expect_dropped(mut s: TcpStream) {
    let mut sink = [0u8; 1024];
    loop {
        match s.read(&mut sink) {
            Ok(0) => return,   // clean FIN
            Ok(_) => continue, // drain whatever was in flight
            Err(_) => return,  // reset also counts as dropped
        }
    }
}

/// The liveness probe: a fresh, well-formed ERC20 client gets served.
fn assert_alive_erc20(addr: std::net::SocketAddr) {
    let mut client = Client::<ShardedErc20>::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = client
        .call(
            ProcessId::new(1),
            &Erc20Op::BalanceOf {
                account: AccountId::new(1),
            },
        )
        .unwrap();
    assert_eq!(reply, Reply::Ok(Erc20Resp::Amount(1_000)));
}

// ---------------------------------------------------------------------
// Pure decoder properties (no server): never panics, never desyncs.
// ---------------------------------------------------------------------

proptest! {
    /// Random bytes through the decoder: every outcome is a clean
    /// `Ok(None)` (still hungry), `Ok(Some)` (a CRC-valid frame — the
    /// RNG essentially never produces one), or a typed error. Never a
    /// panic.
    #[test]
    fn decoder_total_on_random_bytes(bytes in proptest::collection::vec(0u8..=255, 0..4096)) {
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        while let Ok(Some(_)) = dec.try_frame() {}
    }

    /// A stream of valid frames decodes to the same bodies however it
    /// is torn — fed whole, one byte at a time, or in random pieces —
    /// and after every feed `buffered()` is exactly the bytes of the
    /// frame still incomplete (what the slowloris deadline watches): a
    /// partial frame never produces output or an error.
    #[test]
    fn torn_frames_reassemble(
        bodies in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..96), 1..12),
        cut_seeds in proptest::collection::vec(1usize..64, 0..48),
    ) {
        let stream: Vec<u8> = bodies.iter().flat_map(|b| encode_frame(b)).collect();
        let feed = |pieces: &mut dyn Iterator<Item = usize>| {
            let mut dec = FrameDecoder::new();
            let (mut fed, mut consumed, mut got) = (0, 0, Vec::new());
            while fed < stream.len() {
                let n = pieces.next().unwrap_or(usize::MAX).min(stream.len() - fed);
                dec.feed(&stream[fed..fed + n]);
                fed += n;
                while let Some(body) = dec.try_frame().unwrap() {
                    consumed += 8 + body.len();
                    got.push(body.to_vec());
                }
                assert_eq!(dec.buffered(), fed - consumed);
            }
            assert_eq!(dec.buffered(), 0);
            got
        };
        assert_eq!(feed(&mut std::iter::empty()), bodies, "all at once");
        assert_eq!(feed(&mut std::iter::repeat(1)), bodies, "one byte at a time");
        assert_eq!(feed(&mut cut_seeds.into_iter()), bodies, "random pieces");
    }

    /// Any single corrupted byte in a nonempty frame is caught: by the
    /// CRC when it hits the body or checksum field, by the length cap
    /// or a CRC-vs-shifted-body mismatch when it hits the length. The
    /// decoder either errors or keeps waiting — it never yields a frame
    /// with the corrupted body.
    #[test]
    fn corrupted_byte_never_yields_wrong_body(
        body in proptest::collection::vec(0u8..=255, 1..256),
        pos_seed in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let mut frame = encode_frame(&body);
        let pos = pos_seed % frame.len();
        frame[pos] ^= xor;
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        if let Ok(Some(got)) = dec.try_frame() {
            // Only reachable when the flipped bit enlarged `len` in a
            // way that still CRC-validates — impossible for a single
            // deterministic CRC; a yielded frame must equal a prefix
            // reinterpretation that re-checksummed, which CRC-32
            // forbids for single-byte flips within 64 KiB.
            panic!("corrupted frame decoded as {got:?}");
        }
    }

    /// Hostile length fields ≥ the cap fail immediately — before the
    /// body arrives, so a 4 GiB declared length never sizes a buffer.
    #[test]
    fn oversized_length_rejected_on_prelude(len in (MAX_FRAME as u32 + 1)..=u32::MAX) {
        let mut prelude = Vec::new();
        prelude.extend_from_slice(&len.to_le_bytes());
        prelude.extend_from_slice(&0u32.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&prelude);
        assert!(dec.try_frame().is_err());
    }
}

// ---------------------------------------------------------------------
// Live-server adversarial sessions. One server per standard, shared
// across proptest cases (spawning per case would dominate runtime).
// ---------------------------------------------------------------------

static ERC20: OnceLock<ServerHandle<ShardedErc20, ()>> = OnceLock::new();

fn erc20_addr() -> std::net::SocketAddr {
    ERC20.get_or_init(spawn_erc20).addr()
}

proptest! {
    /// Arbitrary garbage preludes: the connection is dropped (or at
    /// minimum never answered garbage), and the server survives to
    /// serve a well-formed client.
    #[test]
    fn garbage_prelude_fails_closed(bytes in proptest::collection::vec(0u8..=255, 8..512)) {
        let addr = erc20_addr();
        let mut s = raw_conn(addr);
        // Force the framing layer to see the garbage as a frame start:
        // an oversized length or a CRC mismatch on whatever follows.
        let _ = s.write_all(&bytes);
        let declared = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if declared > MAX_FRAME {
            // Immediate fail-closed path: the drop must arrive without
            // the body ever being sent.
            expect_dropped(s);
        } else {
            // The server may still be waiting for `declared` bytes of
            // body; it owes us nothing. Just drop the connection.
            drop(s);
        }
        assert_alive_erc20(addr);
    }

    /// A CRC-valid frame whose body is garbage (but long enough to carry
    /// a request header) answers `BadRequest` — and the session keeps
    /// serving: a valid request on the *same* connection succeeds.
    #[test]
    fn crc_valid_garbage_answers_bad_request(
        body in proptest::collection::vec(0u8..=255, 13..128),
    ) {
        let addr = erc20_addr();
        let mut s = raw_conn(addr);
        s.write_all(&encode_frame(&body)).unwrap();
        let request_id = u64::from_le_bytes(body[..8].try_into().unwrap());

        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 1024];
        let reply_body = loop {
            if let Some(b) = dec.try_frame().unwrap() {
                break b;
            }
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "server dropped a CRC-valid session");
            dec.feed(&buf[..n]);
        };
        let (echoed, reply) = decode_response::<Erc20Resp>(reply_body).unwrap();
        assert_eq!(echoed, request_id);
        // A random 13+-byte body essentially never spells a valid
        // (standard, op) pair; tolerate the miracle by accepting Ok too.
        assert!(matches!(reply, Reply::BadRequest | Reply::Ok(_)), "got {reply:?}");

        // Session still usable after the rejection.
        let probe = encode_request(
            u64::MAX,
            ShardedErc20::STANDARD,
            ProcessId::new(2),
            &Erc20Op::TotalSupply,
        );
        s.write_all(&probe).unwrap();
        let reply_body = loop {
            if let Some(b) = dec.try_frame().unwrap() {
                break b;
            }
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "server dropped the session after a BadRequest");
            dec.feed(&buf[..n]);
        };
        let (echoed, reply) = decode_response::<Erc20Resp>(reply_body).unwrap();
        assert_eq!(echoed, u64::MAX);
        assert_eq!(reply, Reply::Ok(Erc20Resp::Amount(64_000)));
    }
}

// ---------------------------------------------------------------------
// Deterministic hostile sessions, one per standard.
// ---------------------------------------------------------------------

/// A frame with a deliberately wrong CRC drops the connection: framing
/// errors are stream corruption, not client errors.
#[test]
fn bad_crc_drops_connection() {
    let addr = erc20_addr();
    let mut s = raw_conn(addr);
    let mut frame = encode_frame(b"a perfectly reasonable body");
    frame[4] ^= 0xFF; // corrupt the checksum field itself
    s.write_all(&frame).unwrap();
    expect_dropped(s);
    assert_alive_erc20(addr);
}

/// A truncated stream (half a frame, then FIN) must not wedge or kill
/// the server.
#[test]
fn truncated_stream_is_harmless() {
    let addr = erc20_addr();
    let frame = encode_request(
        7,
        ShardedErc20::STANDARD,
        ProcessId::new(1),
        &Erc20Op::TotalSupply,
    );
    for cut in [1, 4, 8, frame.len() - 1] {
        let mut s = raw_conn(addr);
        s.write_all(&frame[..cut]).unwrap();
        drop(s); // FIN mid-frame
    }
    assert_alive_erc20(addr);
}

/// A body shorter than the 13-byte request header is uncorrelatable and
/// closes the connection.
#[test]
fn short_request_header_fails_closed() {
    let addr = erc20_addr();
    let mut s = raw_conn(addr);
    s.write_all(&encode_frame(&[0u8; 12])).unwrap();
    expect_dropped(s);
    assert_alive_erc20(addr);
}

/// Each standard's server rejects the other standards' tag with
/// `BadRequest` and keeps serving its own.
#[test]
fn wrong_standard_tag_rejected_per_standard() {
    // ERC721 server: send an ERC20-tagged request, then a valid 721 op.
    let h721 = spawn_erc721();
    {
        let mut s = raw_conn(h721.addr());
        let req = encode_request(
            3,
            ShardedErc20::STANDARD,
            ProcessId::new(1),
            &Erc20Op::TotalSupply,
        );
        s.write_all(&req).unwrap();
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 512];
        let body = loop {
            if let Some(b) = dec.try_frame().unwrap() {
                break b;
            }
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0);
            dec.feed(&buf[..n]);
        };
        use tokensync_core::standards::erc721::Erc721Resp;
        let (id, reply) = decode_response::<Erc721Resp>(body).unwrap();
        assert_eq!(id, 3);
        assert_eq!(reply, Reply::BadRequest);
    }
    {
        let mut c = Client::<ShardedErc721>::connect(h721.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reply = c
            .call(
                ProcessId::new(0),
                &Erc721Op::OwnerOf {
                    token: TokenId::new(0),
                },
            )
            .unwrap();
        use tokensync_core::standards::erc721::Erc721Resp;
        assert_eq!(
            reply,
            Reply::Ok(Erc721Resp::Process(Some(ProcessId::new(0))))
        );
    }
    h721.finish();

    // ERC1155 server: a 721-tagged request bounces, a real op lands.
    let h1155 = spawn_erc1155();
    {
        let mut c = Client::<ShardedErc1155>::connect(h1155.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        use tokensync_core::standards::erc1155::{Erc1155Resp, TypeId};
        let reply = c
            .call(
                ProcessId::new(1),
                &Erc1155Op::BalanceOf {
                    account: AccountId::new(0),
                    type_id: TypeId::new(0),
                },
            )
            .unwrap();
        assert_eq!(reply, Reply::Ok(Erc1155Resp::Amount(1_000)));
    }
    {
        let mut s = raw_conn(h1155.addr());
        let req = encode_request(
            4,
            ShardedErc721::STANDARD,
            ProcessId::new(1),
            &Erc721Op::OwnerOf {
                token: TokenId::new(0),
            },
        );
        s.write_all(&req).unwrap();
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 512];
        let body = loop {
            if let Some(b) = dec.try_frame().unwrap() {
                break b;
            }
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0);
            dec.feed(&buf[..n]);
        };
        use tokensync_core::standards::erc1155::Erc1155Resp;
        let (id, reply) = decode_response::<Erc1155Resp>(body).unwrap();
        assert_eq!(id, 4);
        assert_eq!(reply, Reply::BadRequest);
    }
    h1155.finish();
}

/// The ERC1155 vet gate: a `BatchTransfer` whose amounts for one type
/// overflow `u64` is refused at the wire (`BadRequest`) — no state
/// covers that sum, so it never reaches the engine or the WAL. Amounts
/// of distinct types are not summed: such a batch is served.
#[test]
fn erc1155_overflow_batch_rejected_at_wire() {
    use tokensync_core::standards::erc1155::{Erc1155Resp, TypeId};
    let h = spawn_erc1155();
    let mut c = Client::<ShardedErc1155>::connect(h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hostile = Erc1155Op::BatchTransfer {
        from: AccountId::new(0),
        to: AccountId::new(1),
        entries: vec![(TypeId::new(0), u64::MAX), (TypeId::new(0), 2)],
    };
    assert_eq!(
        c.call(ProcessId::new(0), &hostile).unwrap(),
        Reply::BadRequest
    );
    // Two types, each within `u64`: served, and refused by the object
    // only for want of balance.
    let two_types = Erc1155Op::BatchTransfer {
        from: AccountId::new(0),
        to: AccountId::new(1),
        entries: vec![(TypeId::new(0), u64::MAX), (TypeId::new(1), 2)],
    };
    assert_eq!(
        c.call(ProcessId::new(0), &two_types).unwrap(),
        Reply::Ok(Erc1155Resp::FALSE)
    );
    // A sane batch on the same session still commits.
    let sane = Erc1155Op::BatchTransfer {
        from: AccountId::new(0),
        to: AccountId::new(1),
        entries: vec![(TypeId::new(0), 5), (TypeId::new(1), 5)],
    };
    assert_eq!(
        c.call(ProcessId::new(0), &sane).unwrap(),
        Reply::Ok(Erc1155Resp::TRUE)
    );
    h.finish();
}
