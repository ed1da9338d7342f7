//! Golden byte vectors for the twelve persisted codecs.
//!
//! These encodings are on disk (WAL records, snapshots, delta files) and
//! on the wire (server frames, replica shipping), so a refactor of
//! `codec.rs` must reproduce them **byte for byte**. Round-trip and fuzz
//! tests cannot see a layout change that encoder and decoder make
//! together; these vectors can. Each case asserts
//! `value.encode() == golden` and `decode(golden) == value` with every
//! byte consumed.
//!
//! A deliberate format change bumps `StateCodec::VERSION` and regenerates
//! the vectors in the same commit.

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_core::erc20::{Erc20Delta, Erc20Op, Erc20Resp, Erc20State, SpenderMap};
use tokensync_core::standards::erc1155::{
    Erc1155Delta, Erc1155Op, Erc1155Resp, Erc1155State, TypeId,
};
use tokensync_core::standards::erc721::{Erc721Delta, Erc721Op, Erc721Resp, Erc721State, TokenId};
use tokensync_spec::{AccountId, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(golden: &str) -> Vec<u8> {
    assert!(golden.len() % 2 == 0, "odd-length golden vector");
    (0..golden.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).expect("hex digit"))
        .collect()
}

#[track_caller]
fn pin<T: Codec + PartialEq + std::fmt::Debug>(value: T, golden: &str) {
    assert_eq!(hex(&value.encode()), golden, "encoding of {value:?} moved");
    let bytes = unhex(golden);
    let mut input = bytes.as_slice();
    let decoded = T::decode(&mut input).expect("golden vector decodes");
    assert!(input.is_empty(), "decode left {} golden bytes", input.len());
    assert_eq!(decoded, value);
}

#[test]
fn standard_tags_and_versions_are_pinned() {
    assert_eq!((Erc20State::STANDARD, Erc20State::VERSION), (0x20, 1));
    assert_eq!((Erc721State::STANDARD, Erc721State::VERSION), (0x21, 1));
    assert_eq!((Erc1155State::STANDARD, Erc1155State::VERSION), (0x55, 1));
}

#[test]
fn erc20_ops_and_resps() {
    pin(
        Erc20Op::Transfer {
            to: a(7),
            value: 42,
        },
        "00070000002a00000000000000",
    );
    pin(
        Erc20Op::TransferFrom {
            from: a(1),
            to: a(0x0102_0304),
            value: u64::MAX,
        },
        "010100000004030201ffffffffffffffff",
    );
    pin(
        Erc20Op::Approve {
            spender: p(3),
            value: 0x1122_3344_5566_7788,
        },
        "02030000008877665544332211",
    );
    pin(Erc20Op::BalanceOf { account: a(4) }, "0304000000");
    pin(
        Erc20Op::Allowance {
            account: a(5),
            spender: p(6),
        },
        "040500000006000000",
    );
    pin(Erc20Op::TotalSupply, "05");
    pin(Erc20Resp::TRUE, "0001");
    pin(Erc20Resp::FALSE, "0000");
    pin(Erc20Resp::Amount(123_456_789), "0115cd5b0700000000");
}

#[test]
fn erc20_state_and_delta() {
    let mut state = Erc20State::from_balances(vec![100, 0, 7, 0, 300]);
    state.set_allowance(a(0), p(4), 9);
    state.set_allowance(a(0), p(1), 2);
    state.set_allowance(a(2), p(3), u64::MAX);
    pin(state, "0500000064000000000000000000000000000000070000000000000000000000000000002c01000000000000020000000000000002000000010000000200000000000000040000000900000000000000020000000100000003000000ffffffffffffffff");

    let mut row = SpenderMap::new();
    row.set(3, 9);
    row.set(1, 4);
    pin(
        Erc20Delta {
            rows: vec![(1, 50, row), (4, 0, SpenderMap::new())],
        },
        "020000000100000032000000000000000200000001000000040000000000000003000000090000000000000004000000000000000000000000000000",
    );
    pin(Erc20Delta::default(), "00000000");
}

#[test]
fn erc721_ops_and_resps() {
    pin(
        Erc721Op::Mint {
            to: p(2),
            token: TokenId::new(40),
        },
        "000200000028000000",
    );
    pin(
        Erc721Op::TransferFrom {
            from: p(1),
            to: p(2),
            token: TokenId::new(0x00ab_cdef),
        },
        "010100000002000000efcdab00",
    );
    pin(
        Erc721Op::Approve {
            approved: Some(p(3)),
            token: TokenId::new(9),
        },
        "02010300000009000000",
    );
    pin(
        Erc721Op::Approve {
            approved: None,
            token: TokenId::new(9),
        },
        "020009000000",
    );
    pin(
        Erc721Op::SetApprovalForAll {
            operator: p(5),
            on: true,
        },
        "030500000001",
    );
    pin(
        Erc721Op::SetApprovalForAll {
            operator: p(5),
            on: false,
        },
        "030500000000",
    );
    pin(
        Erc721Op::OwnerOf {
            token: TokenId::new(77),
        },
        "044d000000",
    );
    pin(
        Erc721Op::GetApproved {
            token: TokenId::new(78),
        },
        "054e000000",
    );
    pin(Erc721Resp::TRUE, "0001");
    pin(Erc721Resp::Process(Some(p(4))), "010104000000");
    pin(Erc721Resp::Process(None), "0100");
}

#[test]
fn erc721_state_and_delta() {
    let mut state = Erc721State::minted_round_robin(4, 50, 3);
    state.put_token(TokenId::new(1), p(1), Some(p(3))); // single-use approval
    state.put_token(TokenId::new(40), p(2), None);
    state.set_operator(p(1), p(2), true);
    state.set_operator(p(0), p(3), true);
    pin(state, "040000003200000004000000000000000000000000010000000100000001030000000200000002000000002800000002000000000200000000000000030000000100000002000000");

    pin(
        Erc721Delta {
            tokens: vec![(0, 1, None), (7, 2, Some(3))],
            operators: vec![(1, 2, true), (2, 1, false)], // second pair disabled
        },
        "020000000000000001000000000700000002000000010300000002000000010000000200000001020000000100000000",
    );
    pin(Erc721Delta::default(), "0000000000000000");
}

#[test]
fn erc1155_ops_and_resps() {
    pin(
        Erc1155Op::Transfer {
            from: a(0),
            to: a(1),
            type_id: TypeId::new(2),
            value: 3,
        },
        "000000000001000000020000000300000000000000",
    );
    pin(
        Erc1155Op::BatchTransfer {
            from: a(6),
            to: a(5),
            // Unsorted with a repeated type: batches are lists, not tables.
            entries: vec![(TypeId::new(3), 9), (TypeId::new(0), 1), (TypeId::new(3), 2)],
        },
        "01060000000500000003000000030000000900000000000000000000000100000000000000030000000200000000000000",
    );
    pin(
        Erc1155Op::SetApprovalForAll {
            operator: p(1),
            on: false,
        },
        "020100000000",
    );
    pin(
        Erc1155Op::BalanceOf {
            account: a(4),
            type_id: TypeId::new(1),
        },
        "030400000001000000",
    );
    pin(
        Erc1155Op::TotalSupply {
            type_id: TypeId::new(1),
        },
        "0401000000",
    );
    pin(Erc1155Resp::TRUE, "0001");
    pin(Erc1155Resp::FALSE, "0000");
    pin(Erc1155Resp::Amount(42), "012a00000000000000");
}

#[test]
fn erc1155_state_and_delta() {
    let mut state = Erc1155State::deploy(4, p(1), &[10, 3]); // two types
    state.set_balance(a(1), TypeId::new(0), 6);
    state.set_balance(a(2), TypeId::new(0), 4);
    state.set_balance(a(3), TypeId::new(1), 0x0100);
    state.set_operator(a(2), p(3), true);
    state.set_operator(a(0), p(1), true);
    pin(state, "04000000020000000a00000000000000030100000000000004000000000000000100000006000000000000000000000002000000040000000000000001000000010000000300000000000000010000000300000000010000000000000200000000000000010000000200000003000000");

    pin(
        Erc1155Delta {
            // (0, 2) carries zero: the cell was emptied.
            balances: vec![(0, 1, 5), (0, 2, 0), (1, 0, 7)],
            operators: vec![(0, 3, true), (2, 1, false)], // second pair disabled
        },
        "0300000000000000010000000500000000000000000000000200000000000000000000000100000000000000070000000000000002000000000000000300000001020000000100000000",
    );
    pin(Erc1155Delta::default(), "0000000000000000");
}
