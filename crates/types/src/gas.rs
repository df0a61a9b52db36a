//! Gas quantities for account-based execution.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A quantity of gas, the execution-cost unit of account-based blockchains.
///
/// The paper weights Ethereum's per-block conflict metrics by gas consumption, so gas
/// is a first-class type across the workspace rather than a bare `u64`.
///
/// # Examples
///
/// ```
/// use blockconc_types::Gas;
///
/// let base = Gas::new(21_000);
/// let extra = Gas::new(9_000);
/// assert_eq!((base + extra).value(), 30_000);
/// assert!(base < base + extra);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gas(u64);

impl Gas {
    /// Zero gas.
    pub const ZERO: Gas = Gas(0);

    /// The intrinsic cost of a plain value-transfer transaction (Ethereum's 21000).
    pub const BASE_TX: Gas = Gas(21_000);

    /// Creates a gas quantity.
    pub const fn new(value: u64) -> Self {
        Gas(value)
    }

    /// Returns the raw gas value.
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// Returns `true` if zero.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` if `rhs` exceeds `self` (out-of-gas).
    pub fn checked_sub(self, rhs: Gas) -> Option<Gas> {
        self.0.checked_sub(rhs.0).map(Gas)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Gas) -> Gas {
        Gas(self.0.saturating_add(rhs.0))
    }

    /// Converts to `f64` for weighted-average computations.
    pub fn as_f64(&self) -> f64 {
        self.0 as f64
    }
}

impl Add for Gas {
    type Output = Gas;
    fn add(self, rhs: Gas) -> Gas {
        Gas(self.0.checked_add(rhs.0).expect("gas overflow"))
    }
}

impl AddAssign for Gas {
    fn add_assign(&mut self, rhs: Gas) {
        *self = *self + rhs;
    }
}

impl Sub for Gas {
    type Output = Gas;
    fn sub(self, rhs: Gas) -> Gas {
        Gas(self.0.checked_sub(rhs.0).expect("gas underflow"))
    }
}

impl SubAssign for Gas {
    fn sub_assign(&mut self, rhs: Gas) {
        *self = *self - rhs;
    }
}

impl Sum for Gas {
    fn sum<I: Iterator<Item = Gas>>(iter: I) -> Gas {
        iter.fold(Gas::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Debug for Gas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gas({})", self.0)
    }
}

impl fmt::Display for Gas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Gas {
    fn from(value: u64) -> Self {
        Gas(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let a = Gas::new(100);
        let b = Gas::new(40);
        assert_eq!((a + b).value(), 140);
        assert_eq!((a - b).value(), 60);
        assert!(b < a);
    }

    #[test]
    fn checked_sub_models_out_of_gas() {
        assert_eq!(Gas::new(10).checked_sub(Gas::new(11)), None);
        assert_eq!(Gas::new(10).checked_sub(Gas::new(10)), Some(Gas::ZERO));
    }

    #[test]
    fn sum_and_conversion() {
        let total: Gas = [1u64, 2, 3].into_iter().map(Gas::from).sum();
        assert_eq!(total.value(), 6);
        assert!((total.as_f64() - 6.0).abs() < f64::EPSILON);
    }

    #[test]
    fn base_tx_constant_matches_ethereum() {
        assert_eq!(Gas::BASE_TX.value(), 21_000);
    }
}
