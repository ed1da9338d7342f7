//! Property-based correctness of the generic pipeline per Section 6
//! standard — the same three obligations the ERC20 suite imposes, now
//! for ERC721 and ERC1155 traffic through the *identical* engine:
//!
//! 1. the commit log's recorded responses replay exactly against the
//!    standard's sequential spec (no divergence),
//! 2. the commit history passes [`check_linearizable`],
//! 3. the served object ends in the state a plain submission-order
//!    sequential replay reaches — the pipeline may reorder only
//!    commuting operations, and commuting reorders cannot change the
//!    final state.
//!
//! Property 3 is the sharp one: it fails if a standard's footprint
//! catalog ever under-approximates (two non-commuting ops sharing a
//! wave) — e.g. an NFT double-claim slipping into one wave, or two
//! ERC1155 batches with intersecting cell sets racing.

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::shared::ConcurrentObject;
use tokensync_core::standards::erc1155::{
    Erc1155Op, Erc1155Spec, Erc1155State, ShardedErc1155, TypeId,
};
use tokensync_core::standards::erc721::{
    Erc721Op, Erc721Spec, Erc721State, ShardedErc721, TokenId,
};
use tokensync_pipeline::{run_script, BatchConfig, PipelineConfig, ScheduleConfig};
use tokensync_spec::{check_linearizable, AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// Runs `script` through the pipeline over `object` and checks the three
/// properties against `spec` (whose initial state must match the
/// object's starting state).
fn check_pipeline<T, S>(object: &T, spec: &S, script: &[(ProcessId, T::Op)], batch: usize)
where
    T: ConcurrentObject,
    S: ObjectType<Op = T::Op, Resp = T::Resp, State = T::State>,
    T::State: Eq + std::hash::Hash,
    T::Op: PartialEq,
{
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        schedule: ScheduleConfig {
            max_parallel_waves: 3,
        },
        ..PipelineConfig::default()
    };
    let run = run_script(object, script, &cfg);
    assert_eq!(run.stats.ops as usize, script.len());

    // (1) Recorded responses are consistent with the committed order.
    let committed_state = run
        .log
        .replay(spec)
        .expect("commit log replays without divergence");

    // (2) The commit history linearizes against the spec.
    check_linearizable(spec, &spec.initial_state(), &run.log.to_history())
        .expect("commit log linearizes");

    // (3) Final state equals the sequential submission-order replay.
    let mut sequential = spec.initial_state();
    for (caller, op) in script {
        spec.apply(&mut sequential, *caller, op);
    }
    assert_eq!(
        committed_state, sequential,
        "pipeline state diverged from sequential replay"
    );
    assert_eq!(object.snapshot(), sequential);
}

const N: usize = 5;
const SPAN: usize = 8;
const TYPES: usize = 3;

fn arb_721_op() -> impl Strategy<Value = Erc721Op> {
    prop_oneof![
        (0..N, 0..SPAN).prop_map(|(to, token)| Erc721Op::Mint {
            to: p(to),
            token: TokenId::new(token),
        }),
        (0..N, 0..N, 0..SPAN).prop_map(|(from, to, token)| Erc721Op::TransferFrom {
            from: p(from),
            to: p(to),
            token: TokenId::new(token),
        }),
        (0..=N, 0..SPAN).prop_map(|(ap, token)| Erc721Op::Approve {
            approved: (ap < N).then(|| p(ap)),
            token: TokenId::new(token),
        }),
        (0..N, 0..2usize).prop_map(|(op, on)| Erc721Op::SetApprovalForAll {
            operator: p(op),
            on: on == 1,
        }),
        (0..SPAN).prop_map(|token| Erc721Op::OwnerOf {
            token: TokenId::new(token)
        }),
        (0..SPAN).prop_map(|token| Erc721Op::GetApproved {
            token: TokenId::new(token)
        }),
    ]
}

fn arb_1155_op() -> impl Strategy<Value = Erc1155Op> {
    prop_oneof![
        (0..N, 0..N, 0..TYPES, 0u64..4).prop_map(|(from, to, ty, value)| Erc1155Op::Transfer {
            from: a(from),
            to: a(to),
            type_id: TypeId::new(ty),
            value,
        }),
        (0..N, 0..N, vec((0..TYPES, 0u64..4), 0..3)).prop_map(|(from, to, rows)| {
            Erc1155Op::BatchTransfer {
                from: a(from),
                to: a(to),
                entries: rows
                    .into_iter()
                    .map(|(ty, v)| (TypeId::new(ty), v))
                    .collect(),
            }
        }),
        (0..N, 0..2usize).prop_map(|(op, on)| Erc1155Op::SetApprovalForAll {
            operator: p(op),
            on: on == 1,
        }),
        (0..N, 0..TYPES).prop_map(|(account, ty)| Erc1155Op::BalanceOf {
            account: a(account),
            type_id: TypeId::new(ty),
        }),
        (0..TYPES).prop_map(|ty| Erc1155Op::TotalSupply {
            type_id: TypeId::new(ty)
        }),
    ]
}

proptest! {
    /// ERC721 marketplace soup — mints, owner and operator transfers,
    /// approvals, reads — linearizes and matches the sequential replay
    /// at several batch sizes.
    #[test]
    fn erc721_scripts_linearize_and_match_sequential(
        premint in 0..SPAN,
        operators in vec((0..N, 0..N), 0..3),
        callers in vec(0..N, 1..32),
        ops in vec(arb_721_op(), 1..32),
        batch in 1usize..12,
    ) {
        let mut initial = Erc721State::minted_round_robin(N, SPAN, premint);
        for &(h, o) in &operators {
            initial.set_operator(p(h), p(o), true);
        }
        let script: Vec<(ProcessId, Erc721Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        let nft = ShardedErc721::from_state(initial.clone());
        let spec = Erc721Spec::new(initial);
        check_pipeline(&nft, &spec, &script, batch);
    }

    /// ERC1155 batch soup — single and batched transfers, operator
    /// toggles, reads — linearizes and matches the sequential replay.
    #[test]
    fn erc1155_scripts_linearize_and_match_sequential(
        balances in vec((0..TYPES, 0..N, 1u64..6), 0..8),
        operators in vec((0..N, 0..N), 0..3),
        callers in vec(0..N, 1..32),
        ops in vec(arb_1155_op(), 1..32),
        batch in 1usize..12,
    ) {
        let mut initial = Erc1155State::deploy(N, p(0), &[0; TYPES]);
        for &(ty, acct, v) in &balances {
            let old = initial.balance_of(a(acct), TypeId::new(ty));
            initial.set_balance(a(acct), TypeId::new(ty), old.max(v));
        }
        for &(h, o) in &operators {
            initial.set_operator(a(h), p(o), true);
        }
        let script: Vec<(ProcessId, Erc1155Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        let multi = ShardedErc1155::from_state(initial.clone());
        let spec = Erc1155Spec::new(initial);
        check_pipeline(&multi, &spec, &script, batch);
    }

    /// The ERC721 hot-token regime: several claimants race transferFrom
    /// on a handful of token ids (the §6 consensus race, served): the
    /// pipeline must serialize the claims and still match the
    /// sequential order exactly.
    #[test]
    fn erc721_hot_token_races_keep_submission_order(
        claims in vec((0..N, 0..N, 0..2usize), 1..24),
        batch in 2usize..16,
    ) {
        // All tokens owned by p0; everyone enabled via operator rows.
        let mut initial = Erc721State::minted_round_robin(N, SPAN, 2);
        for i in 1..N {
            initial.set_operator(p(0), p(i), true);
        }
        let script: Vec<(ProcessId, Erc721Op)> = claims
            .iter()
            .map(|&(caller, to, token)| {
                (
                    p(caller),
                    Erc721Op::TransferFrom {
                        from: p(0),
                        to: p(to),
                        token: TokenId::new(token),
                    },
                )
            })
            .collect();
        let nft = ShardedErc721::from_state(initial.clone());
        let spec = Erc721Spec::new(initial);
        check_pipeline(&nft, &spec, &script, batch);
    }
}
