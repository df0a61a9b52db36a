//! 256-bit hashes and transaction identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 256-bit hash value.
///
/// The workspace does not need cryptographic strength — hashes only serve as unique,
/// collision-resistant-enough identifiers inside simulations and tests — so [`Hash`](struct@Hash)
/// uses a fast non-cryptographic mixing function (a fixed-key variant of
/// SplitMix64/xxHash-style avalanche mixing applied per 8-byte lane). The important
/// property, exercised by the test-suite, is that distinct inputs essentially never
/// collide at the scales we simulate.
///
/// # Examples
///
/// ```
/// use blockconc_types::Hash;
///
/// let h = Hash::of_bytes(b"hello");
/// assert_eq!(h, Hash::of_bytes(b"hello"));
/// assert_ne!(h, Hash::of_bytes(b"world"));
/// println!("{h}"); // short hex form, e.g. "3f92a1..."
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hash([u8; 32]);

impl Hash {
    /// The all-zero hash, used as a sentinel (e.g. "no parent").
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Creates a hash from raw bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }

    /// Hashes an arbitrary byte string.
    pub fn of_bytes(data: &[u8]) -> Self {
        let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
        for (i, chunk) in data.chunks(8).enumerate() {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            let v = u64::from_le_bytes(buf) ^ ((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let lane = i % 4;
            lanes[lane] = mix64(lanes[lane] ^ v);
        }
        // Finalisation: fold every lane into the accumulator first so each output lane
        // depends on the whole input, then squeeze four output words.
        let mut acc = mix64(data.len() as u64 ^ 0x51_7c_c1_b7_27_22_0a_95);
        for (lane, item) in lanes.iter().enumerate() {
            acc = mix64(acc ^ item.rotate_left(lane as u32 * 17 + 1));
        }
        let mut out = [0u8; 32];
        for lane in 0..4 {
            acc = mix64(acc ^ lanes[lane]);
            out[lane * 8..lane * 8 + 8].copy_from_slice(&acc.to_le_bytes());
        }
        Hash(out)
    }

    /// Creates a hash whose low 8 bytes are `value` and whose remaining bytes are zero.
    ///
    /// Useful in tests and examples where readable, predictable identifiers matter more
    /// than uniform distribution.
    pub const fn from_low(value: u64) -> Self {
        let mut bytes = [0u8; 32];
        let v = value.to_le_bytes();
        let mut i = 0;
        while i < 8 {
            bytes[i] = v[i];
            i += 1;
        }
        Hash(bytes)
    }

    /// Returns the raw bytes of the hash.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns the low 64 bits of the hash, little-endian.
    pub fn low_u64(&self) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.0[..8]);
        u64::from_le_bytes(buf)
    }

    /// Combines two hashes into one (order-sensitive).
    pub fn combine(&self, other: &Hash) -> Hash {
        let mut data = [0u8; 64];
        data[..32].copy_from_slice(&self.0);
        data[32..].copy_from_slice(&other.0);
        Hash::of_bytes(&data)
    }

    /// Renders the full 64-character hexadecimal representation.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({})", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &self.to_hex()[..12])
    }
}

impl Default for Hash {
    fn default() -> Self {
        Hash::ZERO
    }
}

impl From<[u8; 32]> for Hash {
    fn from(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A transaction identifier: the hash of the transaction.
///
/// A thin newtype over [`Hash`](struct@Hash) so that transaction ids cannot be confused with block
/// hashes or other hashed material ([C-NEWTYPE]).
///
/// # Examples
///
/// ```
/// use blockconc_types::TxId;
///
/// let id = TxId::from_low(42);
/// assert_eq!(id, TxId::from_low(42));
/// assert_ne!(id, TxId::from_low(43));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct TxId(Hash);

impl TxId {
    /// Creates a transaction id from an existing hash.
    pub const fn new(hash: Hash) -> Self {
        TxId(hash)
    }

    /// Creates a transaction id whose low 8 bytes are `value`.
    pub const fn from_low(value: u64) -> Self {
        TxId(Hash::from_low(value))
    }

    /// Hashes arbitrary bytes into a transaction id.
    pub fn of_bytes(data: &[u8]) -> Self {
        TxId(Hash::of_bytes(data))
    }

    /// Returns the underlying hash.
    pub const fn hash(&self) -> Hash {
        self.0
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxId({})", &self.0.to_hex()[..12])
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &self.0.to_hex()[..8])
    }
}

impl From<Hash> for TxId {
    fn from(hash: Hash) -> Self {
        TxId(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn identical_inputs_hash_identically() {
        assert_eq!(Hash::of_bytes(b"abc"), Hash::of_bytes(b"abc"));
    }

    #[test]
    fn different_inputs_hash_differently() {
        assert_ne!(Hash::of_bytes(b"abc"), Hash::of_bytes(b"abd"));
        assert_ne!(Hash::of_bytes(b""), Hash::of_bytes(b"\0"));
    }

    #[test]
    fn no_collisions_over_many_sequential_inputs() {
        let mut seen = HashSet::new();
        for i in 0u64..50_000 {
            assert!(seen.insert(Hash::of_bytes(&i.to_le_bytes())));
        }
    }

    #[test]
    fn from_low_stores_value_in_low_bytes() {
        let h = Hash::from_low(0xDEADBEEF);
        assert_eq!(h.low_u64(), 0xDEADBEEF);
        assert_eq!(&h.as_bytes()[8..], &[0u8; 24]);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Hash::of_bytes(b"a");
        let b = Hash::of_bytes(b"b");
        assert_ne!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn hex_is_64_chars() {
        assert_eq!(Hash::of_bytes(b"x").to_hex().len(), 64);
        assert_eq!(Hash::ZERO.to_hex(), "0".repeat(64));
    }

    #[test]
    fn display_is_short_hex_prefix() {
        let h = Hash::of_bytes(b"display");
        assert_eq!(format!("{h}"), &h.to_hex()[..12]);
    }

    #[test]
    fn txid_roundtrips_through_hash() {
        let h = Hash::of_bytes(b"tx");
        assert_eq!(TxId::new(h).hash(), h);
        assert_eq!(TxId::from(h).hash(), h);
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(Hash::default(), Hash::ZERO);
        assert_eq!(TxId::default().hash(), Hash::ZERO);
    }

    #[test]
    fn short_inputs_affect_all_lanes() {
        // Single-byte inputs must still produce non-zero high lanes thanks to the
        // finalisation pass.
        let h = Hash::of_bytes(b"z");
        assert_ne!(&h.as_bytes()[24..], &[0u8; 8]);
    }
}
