//! Monetary amounts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A monetary amount in the smallest indivisible unit of the chain's native token
/// (satoshis for Bitcoin-like chains, wei-scaled units for account chains).
///
/// Arithmetic is checked where overflow is plausible ([`Amount::checked_add`],
/// [`Amount::checked_sub`]); the operator impls panic on overflow, which in this
/// workspace indicates a logic error in a simulator or test.
///
/// # Examples
///
/// ```
/// use blockconc_types::Amount;
///
/// let a = Amount::from_sats(1_000);
/// let b = Amount::from_sats(500);
/// assert_eq!((a + b).sats(), 1_500);
/// assert_eq!(a.checked_sub(b), Some(Amount::from_sats(500)));
/// assert_eq!(b.checked_sub(a), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Amount(u64);

impl Amount {
    /// The zero amount.
    pub const ZERO: Amount = Amount(0);

    /// One whole coin expressed in base units (10^8, the Bitcoin convention).
    pub const COIN: Amount = Amount(100_000_000);

    /// Creates an amount from base units ("sats").
    pub const fn from_sats(sats: u64) -> Self {
        Amount(sats)
    }

    /// Creates an amount from whole coins.
    ///
    /// # Panics
    ///
    /// Panics if the result overflows `u64`.
    pub fn from_coins(coins: u64) -> Self {
        Amount(coins.checked_mul(Self::COIN.0).expect("amount overflow"))
    }

    /// Returns the amount in base units.
    pub const fn sats(&self) -> u64 {
        self.0
    }

    /// Returns the amount as a floating-point number of whole coins.
    pub fn as_coins(&self) -> f64 {
        self.0 as f64 / Self::COIN.0 as f64
    }

    /// Returns `true` if the amount is zero.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Amount {
    type Output = Amount;
    fn add(self, rhs: Amount) -> Amount {
        Amount(self.0.checked_add(rhs.0).expect("amount overflow"))
    }
}

impl AddAssign for Amount {
    fn add_assign(&mut self, rhs: Amount) {
        *self = *self + rhs;
    }
}

impl Sub for Amount {
    type Output = Amount;
    fn sub(self, rhs: Amount) -> Amount {
        Amount(self.0.checked_sub(rhs.0).expect("amount underflow"))
    }
}

impl SubAssign for Amount {
    fn sub_assign(&mut self, rhs: Amount) {
        *self = *self - rhs;
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Debug for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Amount({})", self.0)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.8}", self.as_coins())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_conversion() {
        assert_eq!(Amount::from_coins(2).sats(), 200_000_000);
        assert!((Amount::from_sats(150_000_000).as_coins() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Amount::from_sats(10);
        let b = Amount::from_sats(4);
        assert_eq!((a + b).sats(), 14);
        assert_eq!((a - b).sats(), 6);
        let mut c = a;
        c += b;
        c -= Amount::from_sats(1);
        assert_eq!(c.sats(), 13);
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert_eq!(
            Amount::from_sats(u64::MAX).checked_add(Amount::from_sats(1)),
            None
        );
        assert_eq!(Amount::ZERO.checked_sub(Amount::from_sats(1)), None);
        assert_eq!(
            Amount::ZERO.saturating_sub(Amount::from_sats(1)),
            Amount::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "amount underflow")]
    fn sub_panics_on_underflow() {
        let _ = Amount::ZERO - Amount::from_sats(1);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Amount = (1..=4u64).map(Amount::from_sats).sum();
        assert_eq!(total.sats(), 10);
    }

    #[test]
    fn display_uses_coin_precision() {
        assert_eq!(format!("{}", Amount::from_coins(1)), "1.00000000");
    }
}
