//! Block heights and timestamps.

use std::fmt;
use std::ops::{Add, Sub};

/// A block height (position of a block in the chain, genesis = 0).
///
/// # Examples
///
/// ```
/// use blockconc_types::BlockHeight;
///
/// let genesis = BlockHeight::GENESIS;
/// let next = genesis.next();
/// assert_eq!(next.value(), 1);
/// assert!(genesis < next);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockHeight(u64);

impl BlockHeight {
    /// The genesis block height.
    pub const GENESIS: BlockHeight = BlockHeight(0);

    /// Creates a block height.
    pub const fn new(value: u64) -> Self {
        BlockHeight(value)
    }

    /// Returns the raw value.
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// Returns the next height.
    pub const fn next(&self) -> BlockHeight {
        BlockHeight(self.0 + 1)
    }

    /// Returns the previous height, or `None` at genesis.
    pub fn prev(&self) -> Option<BlockHeight> {
        self.0.checked_sub(1).map(BlockHeight)
    }
}

impl Add<u64> for BlockHeight {
    type Output = BlockHeight;
    fn add(self, rhs: u64) -> BlockHeight {
        BlockHeight(self.0 + rhs)
    }
}

impl Sub for BlockHeight {
    type Output = u64;
    fn sub(self, rhs: BlockHeight) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for BlockHeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockHeight({})", self.0)
    }
}

impl fmt::Display for BlockHeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for BlockHeight {
    fn from(value: u64) -> Self {
        BlockHeight(value)
    }
}

/// A Unix timestamp in seconds.
///
/// Histories span years (Bitcoin 2009–2019, Ethereum 2015–2019), so timestamps are
/// used both to order blocks and to bucket them into the time series the paper plots.
///
/// # Examples
///
/// ```
/// use blockconc_types::Timestamp;
///
/// let t0 = Timestamp::from_unix(1_230_768_000); // 2009-01-01
/// let t1 = t0.plus_seconds(600);
/// assert_eq!(t1.seconds_since(t0), 600);
/// assert!((t0.as_year_fraction() - 2009.0).abs() < 0.01);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// Average number of seconds in a (Gregorian) year.
const SECONDS_PER_YEAR: f64 = 365.2425 * 86_400.0;
/// Unix timestamp of 1970-01-01, expressed as a year.
const UNIX_EPOCH_YEAR: f64 = 1970.0;

impl Timestamp {
    /// Creates a timestamp from Unix seconds.
    pub const fn from_unix(seconds: u64) -> Self {
        Timestamp(seconds)
    }

    /// Creates an (approximate) timestamp from a fractional calendar year, e.g. `2016.5`.
    pub fn from_year_fraction(year: f64) -> Self {
        let seconds = (year - UNIX_EPOCH_YEAR) * SECONDS_PER_YEAR;
        Timestamp(seconds.max(0.0) as u64)
    }

    /// Returns the Unix seconds value.
    pub const fn as_unix(&self) -> u64 {
        self.0
    }

    /// Returns the timestamp as a fractional calendar year (approximate).
    pub fn as_year_fraction(&self) -> f64 {
        UNIX_EPOCH_YEAR + self.0 as f64 / SECONDS_PER_YEAR
    }

    /// Returns a new timestamp `seconds` later.
    pub const fn plus_seconds(&self, seconds: u64) -> Timestamp {
        Timestamp(self.0 + seconds)
    }

    /// Returns the number of seconds elapsed since `earlier` (saturating at zero).
    pub fn seconds_since(&self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Timestamp({})", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_year_fraction())
    }
}

impl From<u64> for Timestamp {
    fn from(value: u64) -> Self {
        Timestamp(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_navigation() {
        assert_eq!(BlockHeight::GENESIS.prev(), None);
        assert_eq!(BlockHeight::new(5).prev(), Some(BlockHeight::new(4)));
        assert_eq!(BlockHeight::new(5).next().value(), 6);
        assert_eq!(BlockHeight::new(9) - BlockHeight::new(4), 5);
        assert_eq!((BlockHeight::new(4) + 3).value(), 7);
    }

    #[test]
    fn year_fraction_roundtrip() {
        for year in [2009.0, 2015.5, 2019.25] {
            let t = Timestamp::from_year_fraction(year);
            assert!((t.as_year_fraction() - year).abs() < 1e-3, "year {year}");
        }
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_unix(1_000);
        assert_eq!(t.plus_seconds(500).seconds_since(t), 500);
        assert_eq!(t.seconds_since(t.plus_seconds(500)), 0);
    }

    #[test]
    fn ordering_follows_time() {
        assert!(Timestamp::from_year_fraction(2016.0) < Timestamp::from_year_fraction(2017.0));
    }
}
