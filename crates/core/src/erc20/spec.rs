//! Definition 3 as an [`ObjectType`].

use tokensync_spec::{ObjectType, ProcessId};

use super::ops::{Erc20Op, Erc20Resp};
use super::state::Erc20State;

/// The ERC20 token object type `T = (Q, q0, O, R, Δ)` (Definition 3 of the
/// paper) over `n` accounts/processes.
///
/// The transition function is total: operations referencing out-of-range
/// accounts or processes return `FALSE` (mutators) or `0` (reads) without
/// changing the state, exactly like their insufficient-funds counterparts.
///
/// # Example
///
/// ```
/// use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec};
/// use tokensync_spec::{AccountId, ObjectType, ProcessId};
///
/// let spec = Erc20Spec::deployed(2, ProcessId::new(0), 5);
/// let mut q = spec.initial_state();
/// let r = spec.apply(&mut q, ProcessId::new(0), &Erc20Op::Transfer {
///     to: AccountId::new(1),
///     value: 5,
/// });
/// assert_eq!(r, Erc20Resp::TRUE);
/// assert_eq!(q.balance(AccountId::new(1)), 5);
/// ```
#[derive(Clone, Debug)]
pub struct Erc20Spec {
    initial: Erc20State,
}

impl Erc20Spec {
    /// Object type starting from an arbitrary state `q` (the paper's `T_q`).
    pub fn new(initial: Erc20State) -> Self {
        Self { initial }
    }

    /// Object type starting from the standard's `q0`: deployer holds the
    /// whole supply, allowances zero.
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`.
    pub fn deployed(n: usize, deployer: ProcessId, total_supply: u64) -> Self {
        Self::new(Erc20State::with_deployer(n, deployer, total_supply))
    }

    /// Number of accounts/processes `n`.
    pub fn accounts(&self) -> usize {
        self.initial.accounts()
    }
}

impl ObjectType for Erc20Spec {
    type State = Erc20State;
    type Op = Erc20Op;
    type Resp = Erc20Resp;

    fn initial_state(&self) -> Erc20State {
        self.initial.clone()
    }

    fn apply(&self, state: &mut Erc20State, process: ProcessId, op: &Erc20Op) -> Erc20Resp {
        state.apply_op(process, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokensync_spec::AccountId;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn example_1_full_trace() {
        // The complete Example 1 of the paper, op by op.
        let spec = Erc20Spec::deployed(3, p(0), 10);
        let mut q = spec.initial_state();

        // q1: Alice transfers 3 to Bob.
        let r = spec.apply(&mut q, p(0), &Erc20Op::Transfer { to: a(1), value: 3 });
        assert_eq!(r, Erc20Resp::TRUE);
        assert_eq!(
            (q.balance(a(0)), q.balance(a(1)), q.balance(a(2))),
            (7, 3, 0)
        );

        // q2: Bob approves Charlie for 5.
        let r = spec.apply(
            &mut q,
            p(1),
            &Erc20Op::Approve {
                spender: p(2),
                value: 5,
            },
        );
        assert_eq!(r, Erc20Resp::TRUE);
        assert_eq!(q.allowance(a(1), p(2)), 5);

        // q3 = q2: Charlie's transferFrom of 5 fails on balance.
        let before = q.clone();
        let r = spec.apply(
            &mut q,
            p(2),
            &Erc20Op::TransferFrom {
                from: a(1),
                to: a(2),
                value: 5,
            },
        );
        assert_eq!(r, Erc20Resp::FALSE);
        assert_eq!(q, before);

        // q4: Charlie transfers 1 from Bob to Alice.
        let r = spec.apply(
            &mut q,
            p(2),
            &Erc20Op::TransferFrom {
                from: a(1),
                to: a(0),
                value: 1,
            },
        );
        assert_eq!(r, Erc20Resp::TRUE);
        assert_eq!(
            (q.balance(a(0)), q.balance(a(1)), q.balance(a(2))),
            (8, 2, 0)
        );
        assert_eq!(q.allowance(a(1), p(2)), 4);
    }

    #[test]
    fn reads_are_read_only() {
        let spec = Erc20Spec::deployed(2, p(0), 9);
        let q = spec.initial_state();
        for op in [
            Erc20Op::BalanceOf { account: a(0) },
            Erc20Op::Allowance {
                account: a(0),
                spender: p(1),
            },
            Erc20Op::TotalSupply,
        ] {
            assert!(spec.is_read_only(&q, p(1), &op), "{op:?} must be read-only");
        }
    }

    #[test]
    fn failing_mutators_are_semantically_read_only() {
        let spec = Erc20Spec::deployed(2, p(0), 1);
        let q = spec.initial_state();
        // p1 has no balance: its transfer of 1 fails and changes nothing.
        assert!(spec.is_read_only(&q, p(1), &Erc20Op::Transfer { to: a(0), value: 1 }));
        // p1 has no allowance on a0.
        assert!(spec.is_read_only(
            &q,
            p(1),
            &Erc20Op::TransferFrom {
                from: a(0),
                to: a(1),
                value: 1
            }
        ));
    }

    #[test]
    fn out_of_range_ops_are_total_and_read_only() {
        let spec = Erc20Spec::deployed(1, p(0), 1);
        let mut q = spec.initial_state();
        let r = spec.apply(&mut q, p(0), &Erc20Op::Transfer { to: a(9), value: 1 });
        assert_eq!(r, Erc20Resp::FALSE);
        let r = spec.apply(&mut q, p(0), &Erc20Op::BalanceOf { account: a(9) });
        assert_eq!(r, Erc20Resp::Amount(0));
        assert_eq!(q, spec.initial_state());
    }

    #[test]
    fn typed_and_formal_interfaces_agree() {
        // The typed transitions of `Erc20State` and the formal `Δ` of
        // `Erc20Spec` are one object: same responses, same states.
        let spec = Erc20Spec::deployed(3, p(0), 10);
        let mut typed = spec.initial_state();
        let mut formal = spec.initial_state();

        assert!(typed.transfer(p(0), a(1), 3).is_ok());
        let r = spec.apply(&mut formal, p(0), &Erc20Op::Transfer { to: a(1), value: 3 });
        assert_eq!(r, Erc20Resp::TRUE);

        assert!(typed.approve(p(1), p(2), 5).is_ok());
        let approve = Erc20Op::Approve {
            spender: p(2),
            value: 5,
        };
        assert_eq!(spec.apply(&mut formal, p(1), &approve), Erc20Resp::TRUE);

        assert!(typed.transfer_from(p(2), a(1), a(2), 4).is_err());
        let overdraw = Erc20Op::TransferFrom {
            from: a(1),
            to: a(2),
            value: 4,
        };
        assert_eq!(spec.apply(&mut formal, p(2), &overdraw), Erc20Resp::FALSE);

        assert_eq!(typed, formal);
        assert_eq!(formal.allowance(a(1), p(2)), 5);
        let r = spec.apply(&mut formal, p(0), &Erc20Op::BalanceOf { account: a(1) });
        assert_eq!(r, Erc20Resp::Amount(typed.balance(a(1))));
    }

    #[test]
    fn total_supply_reported() {
        let spec = Erc20Spec::deployed(3, p(1), 42);
        let mut q = spec.initial_state();
        assert_eq!(
            spec.apply(&mut q, p(0), &Erc20Op::TotalSupply),
            Erc20Resp::Amount(42)
        );
    }
}
