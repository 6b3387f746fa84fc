//! The credit economy.
//!
//! RIPE Atlas charges credits per measurement result. The replication
//! needed "hundreds of millions" of credits and a specially upgraded
//! account (§4.1.1); the credit ledger makes that cost a first-class,
//! reportable output of every experiment.

use std::fmt;

/// Credits per ping packet, following RIPE Atlas's published rates: a
/// 3-packet ping result costs 3 credits.
pub const CREDITS_PER_PING_PACKET: u64 = 1;

/// Credits per traceroute result.
pub const CREDITS_PER_TRACEROUTE: u64 = 10;

/// Error: the account ran out of credits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsufficientCredits {
    /// Credits the operation needed.
    pub needed: u64,
    /// Credits remaining in the account.
    pub available: u64,
}

impl fmt::Display for InsufficientCredits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "insufficient credits: need {}, have {}",
            self.needed, self.available
        )
    }
}

impl std::error::Error for InsufficientCredits {}

/// A credit account with a balance and a spending ledger.
///
/// Accounting identity: `initial_balance == balance() + spent()` at all
/// times.
#[derive(Debug, Clone)]
pub struct CreditAccount {
    balance: u64,
    spent: u64,
}

impl CreditAccount {
    /// An account with the given starting balance.
    pub fn new(balance: u64) -> CreditAccount {
        CreditAccount { balance, spent: 0 }
    }

    /// The upgraded account RIPE granted the authors: effectively
    /// unconstrained for one replication run.
    pub fn upgraded() -> CreditAccount {
        CreditAccount::new(u64::MAX / 2)
    }

    /// Remaining balance.
    pub fn balance(&self) -> u64 {
        self.balance
    }

    /// Total credits spent so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Charges for `packets` ping packets; an overdraft is refused and
    /// leaves the account untouched.
    pub fn charge_pings(&mut self, packets: u64) -> Result<(), InsufficientCredits> {
        let cost = packets.saturating_mul(CREDITS_PER_PING_PACKET);
        if cost > self.balance {
            return Err(InsufficientCredits {
                needed: cost,
                available: self.balance,
            });
        }
        self.balance -= cost;
        self.spent += cost;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_and_tracks() {
        let mut acc = CreditAccount::new(100);
        acc.charge_pings(30).unwrap();
        acc.charge_pings(50).unwrap();
        assert_eq!(acc.balance(), 100 - 30 - 50);
        assert_eq!(acc.spent(), 80);
    }

    #[test]
    fn rejects_overdraft() {
        let mut acc = CreditAccount::new(5);
        let err = acc.charge_pings(10).unwrap_err();
        assert_eq!(err.needed, 10);
        assert_eq!(err.available, 5);
        // Balance untouched on failure.
        assert_eq!(acc.balance(), 5);
        assert_eq!(acc.spent(), 0);
    }

    #[test]
    fn upgraded_account_is_practically_unlimited() {
        let mut acc = CreditAccount::upgraded();
        acc.charge_pings(500_000_000).unwrap();
        assert!(acc.balance() > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The ledger identity `initial == balance + spent` holds after
            /// every charge, for any interleaving of charges that fit and
            /// overdrafts that are refused.
            #[test]
            fn accounting_identity_survives_any_interleaving(
                initial in 0u64..100_000,
                ops in prop::collection::vec(0u64..20_000, 0..64),
            ) {
                let mut acc = CreditAccount::new(initial);
                for packets in ops {
                    let before = acc.balance();
                    let cost = match acc.charge_pings(packets) {
                        Ok(()) => packets * CREDITS_PER_PING_PACKET,
                        Err(_) => 0,
                    };
                    prop_assert_eq!(acc.balance(), before - cost);
                    prop_assert_eq!(acc.balance() + acc.spent(), initial);
                }
            }
        }
    }
}
