//! Codec fuzzing: every [`Codec`] implementation the store persists and
//! the server speaks, against random bytes. Two documented invariants
//! under test (see the `codec` module docs):
//!
//! * **Total decoding** — hostile bytes produce `Ok` or a typed
//!   [`CodecError`], never a panic. The WAL recovery path and the wire
//!   server both stand on this.
//! * **Canonicality** — when random bytes *do* decode, re-encoding the
//!   value reproduces exactly the consumed prefix (encode → decode →
//!   encode is byte-identical), so a decoded value can never alias two
//!   different byte strings.
//! * **Restorable** — every state that decodes builds its served object,
//!   as recovery does with it: a decoder that let a state declare more
//!   than `MAX_DENSE_CELLS` would abort the process here.

use proptest::prelude::*;
use tokensync_core::codec::{Codec, CodecError};
use tokensync_core::erc20::{Erc20Delta, Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_core::standards::erc1155::{
    Erc1155Delta, Erc1155Op, Erc1155Resp, Erc1155State, ShardedErc1155,
};
use tokensync_core::standards::erc721::{
    Erc721Delta, Erc721Op, Erc721Resp, Erc721State, ShardedErc721,
};

/// Drives one codec over one byte string: decode must not panic; a
/// successful decode must re-encode to exactly the bytes it consumed and
/// that re-encoding must decode back to an equal value, which is
/// returned.
fn assert_codec_total<C: Codec + PartialEq + std::fmt::Debug>(bytes: &[u8]) -> Option<C> {
    let mut input = bytes;
    let Ok(value) = C::decode(&mut input) else {
        return None; // a typed error is a pass — only a panic would fail
    };
    let consumed = &bytes[..bytes.len() - input.len()];
    let reencoded = value.encode();
    assert_eq!(
        reencoded, consumed,
        "decoded {value:?} from a non-canonical byte string"
    );
    let mut again = reencoded.as_slice();
    let redecoded = C::decode(&mut again).expect("re-encoding must decode");
    assert!(again.is_empty(), "re-decode left trailing bytes");
    assert_eq!(redecoded, value);
    Some(value)
}

/// A state codec as [`assert_codec_total`] drives it, then what recovery
/// does with a decoded state: `restore` builds the served object.
fn assert_state_total<S: Codec + PartialEq + std::fmt::Debug, T>(
    bytes: &[u8],
    restore: impl FnOnce(S) -> T,
) {
    if let Some(state) = assert_codec_total::<S>(bytes) {
        drop(restore(state));
    }
}

/// All twelve persisted codecs over the same byte string.
fn assert_all_codecs_total(bytes: &[u8]) {
    assert_codec_total::<Erc20Op>(bytes);
    assert_codec_total::<Erc20Resp>(bytes);
    assert_state_total::<Erc20State, _>(bytes, ShardedErc20::from_state);
    assert_codec_total::<Erc20Delta>(bytes);
    assert_codec_total::<Erc721Op>(bytes);
    assert_codec_total::<Erc721Resp>(bytes);
    assert_state_total::<Erc721State, _>(bytes, ShardedErc721::from_state);
    assert_codec_total::<Erc721Delta>(bytes);
    assert_codec_total::<Erc1155Op>(bytes);
    assert_codec_total::<Erc1155Resp>(bytes);
    assert_state_total::<Erc1155State, _>(bytes, ShardedErc1155::from_state);
    assert_codec_total::<Erc1155Delta>(bytes);
}

proptest! {
    /// Uniform random bytes: mostly invalid tags and truncations — the
    /// error paths.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        assert_all_codecs_total(&bytes);
    }

    /// Low-valued bytes: small integers are where the valid enum tags,
    /// short lengths, and in-range ids live, so decodes succeed far more
    /// often and the canonicality branch actually runs.
    #[test]
    fn structured_bytes_never_panic(bytes in proptest::collection::vec(0u8..=3, 0..256)) {
        assert_all_codecs_total(&bytes);
    }

    /// A valid encoding with a tail of garbage: decode must stop exactly
    /// at the value boundary, leaving the garbage unconsumed.
    #[test]
    fn decode_stops_at_value_boundary(
        to in 0usize..64,
        value in 0u64..1_000,
        tail in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let op = Erc20Op::Transfer { to: tokensync_spec::AccountId::new(to), value };
        let mut bytes = op.encode();
        let boundary = bytes.len();
        bytes.extend_from_slice(&tail);
        let mut input = bytes.as_slice();
        let decoded = Erc20Op::decode(&mut input).expect("valid prefix must decode");
        assert_eq!(decoded, op);
        assert_eq!(input.len(), bytes.len() - boundary, "consumed past the value");
    }

    /// Truncation at every boundary of a valid encoding: always a clean
    /// `Err`, never a panic, never a bogus success.
    #[test]
    fn truncations_fail_cleanly(
        account in 0usize..64,
        spender in 0usize..64,
        value in 0u64..u64::MAX,
    ) {
        let op = Erc20Op::Allowance {
            account: tokensync_spec::AccountId::new(account),
            spender: tokensync_spec::ProcessId::new(spender),
        };
        let approve = Erc20Op::Approve {
            spender: tokensync_spec::ProcessId::new(spender),
            value,
        };
        for op in [op, approve] {
            let bytes = op.encode();
            for cut in 0..bytes.len() {
                let mut input = &bytes[..cut];
                assert!(
                    Erc20Op::decode(&mut input).is_err(),
                    "decode of a strict prefix ({cut}/{} bytes) succeeded",
                    bytes.len()
                );
            }
        }
    }

    /// CRC-valid but hostile ERC1155 bytes: two entries of one type whose
    /// amounts sum past `u64::MAX`, the declared supply set to the
    /// wrapped sum so that wrapping arithmetic would accept it. The state
    /// decoder must answer `Invalid` and the delta fold `false` — in
    /// debug builds (no overflow panic) and release builds (no wrap).
    #[test]
    fn erc1155_supply_overflow_is_rejected_not_wrapped(
        first in (u64::MAX / 2 + 1)..=u64::MAX,
        second in (u64::MAX / 2 + 1)..=u64::MAX,
    ) {
        let mut bytes = Vec::new();
        // 2 accounts; 1 type, its supply; 2 balance rows; 0 operators.
        (2u32, 1u32, first.wrapping_add(second)).encode_into(&mut bytes);
        (2u32, (0u32, 0u32, first), (0u32, 1u32, second), 0u32).encode_into(&mut bytes);
        assert_eq!(
            Erc1155State::decode(&mut bytes.as_slice()),
            Err(CodecError::Invalid("per-type supply exceeds u64"))
        );
        assert_codec_total::<Erc1155State>(&bytes);

        let delta = Erc1155Delta {
            balances: vec![(0, 0, first), (0, 1, second)],
            operators: Vec::new(),
        };
        let bytes = delta.encode();
        assert_codec_total::<Erc1155Delta>(&bytes);
        let decoded = Erc1155Delta::decode(&mut bytes.as_slice()).expect("deltas carry no bound");
        let mut base = Erc1155State::deploy(2, tokensync_spec::ProcessId::new(0), &[5]);
        assert!(!decoded.apply_to(&mut base), "fold past u64::MAX must be refused");
    }
}
