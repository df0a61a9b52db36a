//! Account / contract addresses.

use crate::Hash;
use std::fmt;

/// A 20-byte account or contract address, as used by account-based blockchains.
///
/// # Examples
///
/// ```
/// use blockconc_types::Address;
///
/// let alice = Address::from_low(1);
/// let bob = Address::from_low(2);
/// assert_ne!(alice, bob);
/// assert_eq!(format!("{alice}"), "0x0100000000");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address([u8; 20]);

impl Address {
    /// The all-zero address, used for contract-creation receivers and sentinels.
    pub const ZERO: Address = Address([0u8; 20]);

    /// Creates an address from raw bytes.
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// Creates an address whose low 8 bytes are `value` (little-endian), rest zero.
    ///
    /// Predictable addresses make tests and examples readable; simulations that need
    /// well-distributed addresses should use [`Address::from_hash`] instead.
    pub const fn from_low(value: u64) -> Self {
        let mut bytes = [0u8; 20];
        let v = value.to_le_bytes();
        let mut i = 0;
        while i < 8 {
            bytes[i] = v[i];
            i += 1;
        }
        Address(bytes)
    }

    /// Derives an address from a hash (takes the first 20 bytes).
    pub fn from_hash(hash: Hash) -> Self {
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&hash.as_bytes()[..20]);
        Address(bytes)
    }

    /// Returns the raw bytes of the address.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Returns the low 64 bits of the address, little-endian.
    pub fn low_u64(&self) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.0[..8]);
        u64::from_le_bytes(buf)
    }

    /// Returns `true` if this is the all-zero address.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 20]
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({self})")
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0[..5] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 20]> for Address {
    fn from(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_low_is_deterministic_and_distinct() {
        assert_eq!(Address::from_low(7), Address::from_low(7));
        assert_ne!(Address::from_low(7), Address::from_low(8));
    }

    #[test]
    fn from_hash_takes_prefix() {
        let h = Hash::of_bytes(b"addr");
        let a = Address::from_hash(h);
        assert_eq!(a.as_bytes()[..], h.as_bytes()[..20]);
    }

    #[test]
    fn zero_checks() {
        assert!(Address::ZERO.is_zero());
        assert!(Address::default().is_zero());
        assert!(!Address::from_low(1).is_zero());
    }

    #[test]
    fn display_is_short_hex() {
        assert_eq!(format!("{}", Address::from_low(0xAB)), "0xab00000000");
    }

    #[test]
    fn low_u64_roundtrip() {
        assert_eq!(Address::from_low(123_456).low_u64(), 123_456);
    }
}
