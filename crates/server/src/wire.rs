//! The wire protocol: CRC-framed, length-prefixed messages whose
//! payloads are the *same* [`Codec`] encodings the WAL persists.
//!
//! # Frame layout
//!
//! Every message — request or response, every standard — travels in one
//! frame, mirroring the store's WAL record framing:
//!
//! ```text
//! len: u32 LE | crc: u32 LE (CRC-32 of body) | body (len bytes)
//! ```
//!
//! `len` counts only the body and is capped at [`MAX_FRAME`]; the CRC is
//! the store's [`crc32`] over the body. A frame that violates either —
//! an oversized declared length or a checksum mismatch — is a
//! [`WireError`], and the session **fails closed**: the server drops the
//! connection rather than attempt to resynchronize onto a later frame
//! boundary (a resync heuristic on a TCP stream is exactly how a parser
//! desyncs onto attacker-chosen bytes).
//!
//! # Request body
//!
//! ```text
//! request_id: u64 LE | standard: u8 | caller: u32 LE | op bytes (Codec)
//! ```
//!
//! `request_id` is chosen by the client and echoed verbatim in the
//! response — responses to pipelined requests may arrive in *commit*
//! order, not send order, so the id is the client's only correlation
//! key. `standard` must equal the served object's
//! [`WireStandard::STANDARD`] tag (the same constant the store embeds in
//! WAL segment headers). The op bytes are decoded with the standard's
//! [`Codec`] and must consume the body exactly.
//!
//! A CRC-valid body that is *semantically* bad — wrong standard tag,
//! undecodable op, trailing bytes, an op rejected by
//! [`WireStandard::vet`] — is answered with [`Status::BadRequest`] and
//! the session continues: the framing layer proved the bytes arrived
//! intact, so the error is the client's payload, not stream corruption.
//! Only a body too short to carry the 13-byte request header is
//! uncorrelatable (no `request_id` to echo) and closes the connection.
//!
//! # Response body
//!
//! ```text
//! request_id: u64 LE | status: u8 | resp bytes (Codec; only when status = Ok)
//! ```

use tokensync_core::codec::{Codec, CodecError, StateCodec};
use tokensync_core::erc20::Erc20State;
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{
    per_type_sums_fit, Erc1155Op, Erc1155State, ShardedErc1155,
};
use tokensync_core::standards::erc721::{Erc721State, ShardedErc721};
use tokensync_spec::ProcessId;
use tokensync_store::crc32;

/// Maximum body bytes of one frame. Bounds per-connection buffering and
/// makes a hostile `len` field fail immediately instead of sizing an
/// allocation.
pub const MAX_FRAME: usize = 64 * 1024;

/// Bytes of the `len | crc` frame prelude.
pub const FRAME_HEADER: usize = 8;

/// Bytes of the `request_id | standard | caller` request prelude.
pub const REQUEST_HEADER: usize = 13;

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Committed; the response payload follows. An `Ok` ack carries the
    /// pipeline's commit guarantee (and, in durable-ack mode, the
    /// store's fsync watermark).
    Ok,
    /// Admission control rejected the request: the connection's intake
    /// shard was full. Nothing executed; retry later.
    Busy,
    /// The body was intact (CRC-valid) but semantically invalid for the
    /// served standard. Nothing executed.
    BadRequest,
    /// The serving engine has shut down. Nothing executed.
    Gone,
}

impl Status {
    fn as_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Busy => 1,
            Status::BadRequest => 2,
            Status::Gone => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Status::Ok,
            1 => Status::Busy,
            2 => Status::BadRequest,
            3 => Status::Gone,
            _ => return None,
        })
    }
}

/// A framing violation. Always fatal for the connection (fail closed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The declared body length exceeds [`MAX_FRAME`].
    Oversized {
        /// The hostile declared length.
        len: u32,
    },
    /// The body checksum did not match the frame header.
    BadCrc {
        /// CRC the frame declared.
        declared: u32,
        /// CRC of the bytes actually received.
        computed: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "declared frame length {len} exceeds {MAX_FRAME}")
            }
            WireError::BadCrc { declared, computed } => {
                write!(
                    f,
                    "frame crc mismatch: declared {declared:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Incremental frame extractor over a byte stream. Feed it whatever the
/// socket produced; it yields complete, CRC-verified bodies and reports
/// framing violations. A partial frame is simply *pending* — `feed` more
/// bytes — which is what lets the server distinguish a slow-but-honest
/// client from a torn stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor: start of the first frame not yet handed out. The
    /// consumed prefix is dropped once per `feed`, so a read that carries
    /// many small frames moves the remainder once, not once per frame.
    at: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.at);
        self.at = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered toward the next frame. Non-zero across a poll
    /// interval means a frame is pending mid-transfer — the quantity the
    /// slowloris deadline watches.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Extracts the next complete frame body, if one is fully buffered;
    /// it borrows the decoder's buffer.
    ///
    /// `Ok(None)` means "need more bytes". An oversized declared length
    /// fails as soon as the 8-byte prelude arrives — the server never
    /// waits for (or allocates) a hostile body.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an oversized length or CRC mismatch; the caller
    /// must treat the stream as corrupt and drop the connection.
    pub fn try_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let pending = &self.buf[self.at..];
        if pending.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[0..4].try_into().expect("4-byte slice"));
        if len as usize > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        let total = FRAME_HEADER + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(pending[4..8].try_into().expect("4-byte slice"));
        let body = &pending[FRAME_HEADER..total];
        let computed = crc32(body);
        if computed != declared {
            return Err(WireError::BadCrc { declared, computed });
        }
        self.at += total;
        Ok(Some(body))
    }
}

/// Appends one `len | crc | body` frame to `out`, its body written in
/// place by `body` — how a burst of frames shares one buffer. Outbound
/// frames are built by this crate from bounded payloads, so one past
/// [`MAX_FRAME`] is a bug, not input: it panics.
fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    body(out);
    let (prelude, body) = out[at..].split_at_mut(FRAME_HEADER);
    assert!(body.len() <= MAX_FRAME, "outbound frame exceeds MAX_FRAME");
    prelude[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    prelude[4..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Wraps `body` in the `len | crc | body` frame.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_FRAME`].
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    frame_into(&mut out, |b| b.extend_from_slice(body));
    out
}

/// Appends a full request frame for `op` under standard tag `standard`.
pub fn encode_request_into<Op: Codec>(
    out: &mut Vec<u8>,
    request_id: u64,
    standard: u8,
    caller: ProcessId,
    op: &Op,
) {
    frame_into(out, |body| {
        body.extend_from_slice(&request_id.to_le_bytes());
        body.push(standard);
        body.extend_from_slice(&(caller.index() as u32).to_le_bytes());
        op.encode_into(body);
    });
}

/// [`encode_request_into`] a buffer of its own.
pub fn encode_request<Op: Codec>(
    request_id: u64,
    standard: u8,
    caller: ProcessId,
    op: &Op,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + REQUEST_HEADER + 16);
    encode_request_into(&mut out, request_id, standard, caller, op);
    out
}

/// Appends a full response frame. `payload` writes the encoded response
/// and is only called when `status` is [`Status::Ok`].
pub fn encode_response_into(
    out: &mut Vec<u8>,
    request_id: u64,
    status: Status,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    frame_into(out, |body| {
        body.extend_from_slice(&request_id.to_le_bytes());
        body.push(status.as_u8());
        if status == Status::Ok {
            payload(body);
        }
    });
}

/// Encodes a full response frame. `resp` is the already-encoded response
/// payload and is only included when `status` is [`Status::Ok`].
pub fn encode_response(request_id: u64, status: Status, resp: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, request_id, status, |body| {
        body.extend_from_slice(resp.unwrap_or(&[]));
    });
    out
}

/// Splits a CRC-valid request body into its header fields and the raw op
/// bytes. `None` when the body is shorter than [`REQUEST_HEADER`] — the
/// one request-level error without a `request_id` to answer to, so the
/// connection fails closed instead.
pub fn decode_request_header(body: &[u8]) -> Option<(u64, u8, ProcessId, &[u8])> {
    if body.len() < REQUEST_HEADER {
        return None;
    }
    let request_id = u64::from_le_bytes(body[0..8].try_into().expect("8-byte slice"));
    let standard = body[8];
    let caller = u32::from_le_bytes(body[9..13].try_into().expect("4-byte slice"));
    Some((
        request_id,
        standard,
        ProcessId::new(caller as usize),
        &body[REQUEST_HEADER..],
    ))
}

/// A decoded server reply, as the client sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply<Resp> {
    /// Committed, with the standard's response value.
    Ok(Resp),
    /// Rejected by admission control; retry.
    Busy,
    /// Rejected as semantically invalid; do not retry unchanged.
    BadRequest,
    /// The engine shut down.
    Gone,
}

/// Decodes a response body into `(request_id, reply)`.
///
/// # Errors
///
/// [`CodecError`] when the body is truncated, carries an unknown status
/// byte, or an `Ok` payload that does not decode to exactly one
/// response value.
pub fn decode_response<Resp: Codec>(body: &[u8]) -> Result<(u64, Reply<Resp>), CodecError> {
    if body.len() < 9 {
        return Err(CodecError::Truncated);
    }
    let request_id = u64::from_le_bytes(body[0..8].try_into().expect("8-byte slice"));
    let status = Status::from_u8(body[8]).ok_or(CodecError::Invalid("unknown status byte"))?;
    let mut rest = &body[9..];
    let reply = match status {
        Status::Ok => {
            let resp = Resp::decode(&mut rest)?;
            if !rest.is_empty() {
                return Err(CodecError::Invalid("trailing bytes after response"));
            }
            Reply::Ok(resp)
        }
        Status::Busy => Reply::Busy,
        Status::BadRequest => Reply::BadRequest,
        Status::Gone => Reply::Gone,
    };
    if status != Status::Ok && !rest.is_empty() {
        return Err(CodecError::Invalid("payload on a non-Ok status"));
    }
    Ok((request_id, reply))
}

/// A concurrent object servable over the wire: its op/response alphabets
/// are [`Codec`] and it carries the standard tag frames are checked
/// against — the same constant the store embeds in WAL headers, so the
/// byte that routes a request is the byte that labels its persistence.
pub trait WireStandard: ConcurrentObject {
    /// The standard tag of every frame for this object.
    const STANDARD: u8;

    /// Server-side sanity bound on a decoded op, checked *before* the op
    /// enters the pipeline. The codec guarantees structural validity;
    /// `vet` rejects the residue of semantically poisonous values a
    /// total decoder must still admit (e.g. batch rows whose amounts for
    /// one type sum past `u64::MAX`). Rejected ops answer
    /// [`Status::BadRequest`] and never reach the engine or the WAL.
    fn vet(op: &Self::Op) -> bool {
        let _ = op;
        true
    }
}

impl WireStandard for ShardedErc20 {
    const STANDARD: u8 = <Erc20State as StateCodec>::STANDARD;
}

impl WireStandard for ShardedErc721 {
    const STANDARD: u8 = <Erc721State as StateCodec>::STANDARD;
}

impl WireStandard for ShardedErc1155 {
    const STANDARD: u8 = <Erc1155State as StateCodec>::STANDARD;

    /// Rejects batch transfers in which one type's amounts sum past
    /// `u64::MAX`, by the aggregation the object and the oracle run
    /// ([`per_type_sums_fit`]). No state covers that sum, so such an op
    /// is malformed rather than merely unlucky, and a total decoder
    /// cannot rule it out. Amounts of distinct types are never summed
    /// together: the object serves those batches, and so does the gate.
    fn vet(op: &Erc1155Op) -> bool {
        match op {
            Erc1155Op::BatchTransfer { entries, .. } => per_type_sums_fit(entries),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokensync_core::erc20::{Erc20Op, Erc20Resp};
    use tokensync_spec::AccountId;

    #[test]
    fn frame_roundtrip() {
        let body = b"hello wire".to_vec();
        let frame = encode_frame(&body);
        let mut dec = FrameDecoder::new();
        dec.feed(&frame[..3]);
        assert_eq!(dec.try_frame(), Ok(None), "prelude incomplete");
        dec.feed(&frame[3..]);
        assert_eq!(dec.try_frame(), Ok(Some(&body[..])));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn two_frames_in_one_feed() {
        let a = encode_frame(b"a");
        let b = encode_frame(b"bb");
        let mut dec = FrameDecoder::new();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        dec.feed(&joined);
        assert_eq!(dec.try_frame(), Ok(Some(&b"a"[..])));
        assert_eq!(dec.try_frame(), Ok(Some(&b"bb"[..])));
        assert_eq!(dec.try_frame(), Ok(None));
    }

    #[test]
    fn oversized_length_fails_before_body_arrives() {
        let mut dec = FrameDecoder::new();
        let mut prelude = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
        prelude.extend_from_slice(&[0; 4]);
        dec.feed(&prelude);
        assert!(matches!(dec.try_frame(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn corrupt_body_fails_crc() {
        let mut frame = encode_frame(b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(matches!(dec.try_frame(), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn request_roundtrip() {
        let op = Erc20Op::Transfer {
            to: AccountId::new(3),
            value: 17,
        };
        let frame = encode_request(42, ShardedErc20::STANDARD, ProcessId::new(5), &op);
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let body = dec.try_frame().unwrap().unwrap();
        let (id, standard, caller, rest) = decode_request_header(body).unwrap();
        assert_eq!((id, standard, caller), (42, 0x20, ProcessId::new(5)));
        let mut input = rest;
        assert_eq!(Erc20Op::decode(&mut input).unwrap(), op);
        assert!(input.is_empty());
    }

    #[test]
    fn response_roundtrip() {
        let frame = encode_response(7, Status::Ok, Some(&Erc20Resp::Amount(9).encode()));
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let body = dec.try_frame().unwrap().unwrap();
        assert_eq!(
            decode_response::<Erc20Resp>(body),
            Ok((7, Reply::Ok(Erc20Resp::Amount(9))))
        );
        let busy = encode_response(8, Status::Busy, None);
        let mut dec = FrameDecoder::new();
        dec.feed(&busy);
        let body = dec.try_frame().unwrap().unwrap();
        assert_eq!(decode_response::<Erc20Resp>(body), Ok((8, Reply::Busy)));
    }

    #[test]
    fn vet_rejects_1155_amount_overflow() {
        use tokensync_core::standards::erc1155::{Erc1155Resp, TypeId};
        let poisoned = Erc1155Op::BatchTransfer {
            from: AccountId::new(0),
            to: AccountId::new(1),
            entries: vec![(TypeId::new(0), u64::MAX), (TypeId::new(0), 2)],
        };
        assert!(!ShardedErc1155::vet(&poisoned));
        // Two types never sum together: the object executes this batch,
        // so the gate must let it through.
        let two_types = Erc1155Op::BatchTransfer {
            from: AccountId::new(0),
            to: AccountId::new(1),
            entries: vec![(TypeId::new(0), u64::MAX), (TypeId::new(1), 1)],
        };
        assert!(ShardedErc1155::vet(&two_types));
        let token = ShardedErc1155::from_state(Erc1155State::deploy(
            2,
            ProcessId::new(0),
            &[u64::MAX, u64::MAX],
        ));
        assert_eq!(
            token.apply(ProcessId::new(0), &two_types),
            Erc1155Resp::TRUE
        );
        let fine = Erc1155Op::BatchTransfer {
            from: AccountId::new(0),
            to: AccountId::new(1),
            entries: vec![(TypeId::new(0), 5), (TypeId::new(1), 7)],
        };
        assert!(ShardedErc1155::vet(&fine));
    }
}
