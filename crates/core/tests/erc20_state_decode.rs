//! The ERC20 state decoder's contract, pinned ahead of any rewrite of
//! it: every non-canonical or out-of-range payload fails with one exact
//! [`CodecError`] (variant *and* message — the first offence in wire
//! order wins), every strict prefix of a valid encoding is
//! [`CodecError::Truncated`], and decode ∘ encode is the identity on
//! states whose allowance rows were drained and refilled, the derived
//! approval index included (the derived `Eq` compares it).

use proptest::prelude::*;
use tokensync_core::codec::{Codec, CodecError};
use tokensync_core::erc20::Erc20State;
use tokensync_spec::{AccountId, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// An allowance row on the wire: the account, then its entries exactly
/// as listed (no sorting, no filtering).
type Row<'r> = (u32, &'r [(u32, u64)]);

/// An ERC20 state payload spelled field by field: the balance list,
/// then the allowance rows in the order given.
fn payload(balances: &[u64], rows: &[Row<'_>]) -> Vec<u8> {
    let mut out = Vec::new();
    (balances.len() as u32).encode_into(&mut out);
    for balance in balances {
        balance.encode_into(&mut out);
    }
    (rows.len() as u32).encode_into(&mut out);
    for (account, entries) in rows {
        (*account, entries.len() as u32).encode_into(&mut out);
        for entry in *entries {
            entry.encode_into(&mut out);
        }
    }
    out
}

fn decode(bytes: &[u8]) -> Result<Erc20State, CodecError> {
    Erc20State::decode(&mut &bytes[..])
}

#[test]
fn every_rejection_keeps_its_variant_and_message() {
    const ACCOUNT: &str = "allowance row account out of range";
    const SORTED: &str = "table rows not strictly sorted";
    const EMPTY: &str = "empty allowance row not canonical";
    const ZERO: &str = "zero allowance entry not canonical";
    const SPENDER: &str = "allowance spender out of range";
    const OVERFLOW: &str = "balance sum overflows the supply";
    let three = [1u64, 1, 1];
    let cases: &[(&str, Vec<u8>, &str)] = &[
        (
            "account out of range",
            payload(&[5, 0], &[(7, &[(1, 5)])]),
            ACCOUNT,
        ),
        (
            "account one past the end",
            payload(&three, &[(3, &[(1, 5)])]),
            ACCOUNT,
        ),
        (
            "rows out of order",
            payload(&three, &[(1, &[(0, 5)]), (0, &[(1, 5)])]),
            SORTED,
        ),
        (
            "duplicate rows",
            payload(&three, &[(0, &[(1, 5)]), (0, &[(2, 5)])]),
            SORTED,
        ),
        ("empty row", payload(&three, &[(0, &[])]), EMPTY),
        (
            "empty row behind a valid one",
            payload(&three, &[(0, &[(1, 5)]), (2, &[])]),
            EMPTY,
        ),
        ("zero allowance", payload(&three, &[(0, &[(1, 0)])]), ZERO),
        (
            "spender out of range",
            payload(&three, &[(0, &[(3, 5)])]),
            SPENDER,
        ),
        (
            "spenders out of order",
            payload(&three, &[(0, &[(2, 5), (1, 5)])]),
            SORTED,
        ),
        (
            "duplicate spenders",
            payload(&three, &[(0, &[(1, 5), (1, 6)])]),
            SORTED,
        ),
        (
            "balances overflow the supply",
            payload(&[u64::MAX, 1], &[]),
            OVERFLOW,
        ),
        // The first offence in wire order decides the message.
        (
            "overflow before an out-of-range row",
            payload(&[u64::MAX, 1], &[(9, &[(1, 5)])]),
            OVERFLOW,
        ),
        (
            "out-of-range account before its out-of-order position",
            payload(&three, &[(2, &[(0, 5)]), (7, &[(1, 5)])]),
            ACCOUNT,
        ),
        (
            "empty row before its out-of-order position",
            payload(&three, &[(1, &[(0, 5)]), (0, &[])]),
            EMPTY,
        ),
        (
            "out-of-range spender before its zero value",
            payload(&three, &[(0, &[(8, 0)])]),
            SPENDER,
        ),
        (
            "zero value before its out-of-order position",
            payload(&three, &[(0, &[(2, 5), (1, 0)])]),
            ZERO,
        ),
        (
            "out-of-range spender behind a valid one",
            payload(&three, &[(0, &[(1, 5), (5, 5)])]),
            SPENDER,
        ),
    ];
    for (what, bytes, message) in cases {
        assert_eq!(
            decode(bytes),
            Err(CodecError::Invalid(message)),
            "{what}: wrong rejection"
        );
    }
}

#[test]
fn every_strict_prefix_is_truncated() {
    let mut state = Erc20State::with_deployer(4, p(0), 50);
    state.approve(p(0), p(2), 7).unwrap();
    state.approve(p(0), p(3), 1).unwrap();
    state.approve(p(3), p(1), 4).unwrap();
    let bytes = state.encode();
    assert_eq!(decode(&bytes), Ok(state));
    for cut in 0..bytes.len() {
        assert_eq!(
            decode(&bytes[..cut]),
            Err(CodecError::Truncated),
            "prefix of {cut}/{} bytes",
            bytes.len()
        );
    }
}

#[test]
fn decode_stops_at_the_state_boundary() {
    let mut state = Erc20State::from_balances(vec![3, 0, 9]);
    state.approve(p(2), p(0), 2).unwrap();
    let mut bytes = state.encode();
    let end = bytes.len();
    bytes.extend_from_slice(&[0xAB; 5]);
    let mut input = &bytes[..];
    assert_eq!(Erc20State::decode(&mut input), Ok(state));
    assert_eq!(input.len(), bytes.len() - end);
}

/// One step of a script that drains and refills allowance rows.
#[derive(Clone, Copy, Debug)]
enum Step {
    Approve(usize, usize, u64),
    Spend(usize, usize, usize, u64),
    Transfer(usize, usize, u64),
}

const N: usize = 6;

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..N, 0..N, 0u64..4).prop_map(|(c, s, v)| Step::Approve(c, s, v)),
        (0..N, 0..N, 0..N, 0u64..4).prop_map(|(c, f, t, v)| Step::Spend(c, f, t, v)),
        (0..N, 0..N, 0u64..4).prop_map(|(c, t, v)| Step::Transfer(c, t, v)),
    ]
}

proptest! {
    /// Random approve / transferFrom / transfer scripts over a few
    /// accounts: rows fill, drain to empty (revocation or spending) and
    /// refill. Every intermediate state survives the codec unchanged,
    /// approval index and supply cache included, and re-encodes to the
    /// same bytes.
    #[test]
    fn drained_and_refilled_rows_round_trip(steps in proptest::collection::vec(arb_step(), 0..48)) {
        let mut state = Erc20State::from_balances(vec![5; N]);
        for step in steps {
            let _ = match step {
                Step::Approve(c, s, v) => state.approve(p(c), p(s), v),
                Step::Spend(c, f, t, v) => state.transfer_from(p(c), a(f), a(t), v),
                Step::Transfer(c, t, v) => state.transfer(p(c), a(t), v),
            };
            let bytes = state.encode();
            let back = decode(&bytes).expect("an encoded state decodes");
            prop_assert_eq!(&back, &state);
            prop_assert_eq!(back.encode(), bytes);
            prop_assert_eq!(back.total_supply(), 5 * N as u64);
            let indexed: Vec<usize> = back.accounts_with_approvals().map(|x| x.index()).collect();
            let nonempty: Vec<usize> = (0..N).filter(|&i| back.approval_count(a(i)) > 0).collect();
            prop_assert_eq!(indexed, nonempty);
            prop_assert_eq!(back.outstanding_approvals(), state.outstanding_approvals());
        }
    }
}
