//! Workload contention profiling: hot accounts and dependency-component growth.
//!
//! The paper's speedup bound is governed by how transactions fuse into
//! dependency components — a handful of hot accounts (exchange wallets, \
//! popular contracts) weld otherwise-independent transactions into one
//! serial chain. This profiler quantifies exactly that, per block over time,
//! from nothing but per-transaction access sets, grouped by the storage-level
//! relation of [`conflict_groups`].

use blockconc_account::{AccessSet, StateKey};
use blockconc_graph::conflict_groups;
use std::collections::HashMap;

/// One state key's touch count across the profiled window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HotAccount {
    /// Key label: the rendered address for a balance.
    pub account: String,
    /// Transactions touching the key (all classes).
    pub touches: u64,
    /// Transactions reading it.
    pub reads: u64,
    /// Transactions writing it.
    pub writes: u64,
    /// Transactions delta-merging it. A hot account whose touches are almost
    /// all deltas is a dissolved hotspot: it no longer welds a component.
    pub deltas: u64,
    /// Share of all transactions touching it.
    pub share: f64,
}

/// The contention profile of a block sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionProfile {
    /// Blocks profiled.
    pub blocks: usize,
    /// Transactions profiled.
    pub txs: usize,
    /// Top-K accounts by touch count, descending.
    pub hot_accounts: Vec<HotAccount>,
    /// CDF over dependency-component sizes: `(size, share of txs in
    /// components of at most that size)`, ascending by size.
    pub component_cdf: Vec<(usize, f64)>,
    /// Largest-component share of each block's transactions, in block order —
    /// the fusion trend over time.
    pub largest_share_over_time: Vec<f64>,
}

/// Profiles blocks of transactions, each transaction its access set.
///
/// A block's components are its [`conflict_groups`]: sharing a key fuses
/// transactions only when the sharing orders them (a write, or a read among
/// deltas); pure read sharing and pure delta sharing commute and fuse nothing.
pub fn profile_blocks(blocks: &[Vec<AccessSet>], top_k: usize) -> ContentionProfile {
    let mut hot: HashMap<StateKey, HotAccount> = HashMap::new();
    let mut component_sizes: Vec<usize> = Vec::new();
    let mut largest_share_over_time = Vec::with_capacity(blocks.len());
    let mut txs = 0usize;
    for block in blocks {
        for access in block {
            // A transaction touches a key once, whatever classes it uses.
            let mut touched = [access.reads(), access.writes(), access.deltas()].concat();
            touched.sort_unstable();
            touched.dedup();
            for key in touched {
                hot.entry(key).or_default().touches += 1;
            }
            for key in access.reads() {
                hot.entry(*key).or_default().reads += 1;
            }
            for key in access.writes() {
                hot.entry(*key).or_default().writes += 1;
            }
            for key in access.deltas() {
                hot.entry(*key).or_default().deltas += 1;
            }
        }
        txs += block.len();
        let sizes = conflict_groups(block).group_sizes().to_vec();
        let largest = sizes.iter().copied().max().unwrap_or(0);
        largest_share_over_time.push(if block.is_empty() {
            0.0
        } else {
            largest as f64 / block.len() as f64
        });
        component_sizes.extend(sizes);
    }

    let mut hot_accounts: Vec<HotAccount> = hot
        .into_iter()
        .map(|(key, counts)| HotAccount {
            account: label(&key),
            share: counts.touches as f64 / txs.max(1) as f64,
            ..counts
        })
        .collect();
    hot_accounts.sort_by(|a, b| b.touches.cmp(&a.touches).then(a.account.cmp(&b.account)));
    hot_accounts.truncate(top_k);

    // CDF weighted by transactions: a component of size s holds s txs.
    component_sizes.sort_unstable();
    let mut component_cdf: Vec<(usize, f64)> = Vec::new();
    let mut cum = 0usize;
    for &size in &component_sizes {
        cum += size;
        let share = cum as f64 / txs.max(1) as f64;
        match component_cdf.last_mut() {
            Some((last, last_share)) if *last == size => *last_share = share,
            _ => component_cdf.push((size, share)),
        }
    }

    ContentionProfile {
        blocks: blocks.len(),
        txs,
        hot_accounts,
        component_cdf,
        largest_share_over_time,
    }
}

/// A key's label in the report: a balance is its account's address.
fn label(key: &StateKey) -> String {
    match key {
        StateKey::Balance(address) => address.to_string(),
        other => format!("{other:?}"),
    }
}

impl ContentionProfile {
    /// Renders the profile as an aligned text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "contention profile — {} blocks, {} txs\n\n",
            self.blocks, self.txs
        ));
        out.push_str(&format!(
            "top {} hot accounts:\n{:<16} {:>8} {:>6} {:>6} {:>6} {:>8}\n",
            self.hot_accounts.len(),
            "account",
            "touches",
            "reads",
            "writes",
            "deltas",
            "share"
        ));
        for hot in &self.hot_accounts {
            out.push_str(&format!(
                "{:<16} {:>8} {:>6} {:>6} {:>6} {:>7.1}%\n",
                hot.account,
                hot.touches,
                hot.reads,
                hot.writes,
                hot.deltas,
                hot.share * 100.0
            ));
        }
        out.push_str("\ncomponent-size CDF (share of txs in components ≤ size):\n");
        for (size, share) in &self.component_cdf {
            out.push_str(&format!("  ≤{:<6} {:>6.1}%\n", size, share * 100.0));
        }
        out.push_str("\nlargest-component share per block:\n  ");
        for share in &self.largest_share_over_time {
            out.push_str(&format!("{:.2} ", share));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::Address;

    /// The balance key of a named account (names up to eight bytes).
    fn account(name: &str) -> StateKey {
        let low = name.bytes().fold(0, |low, b| low << 8 | u64::from(b));
        StateKey::Balance(Address::from_low(low))
    }

    /// A transaction reading, writing and delta-merging the named accounts.
    fn tx(reads: &[&str], writes: &[&str], deltas: &[&str]) -> AccessSet {
        let mut set = AccessSet::new();
        reads.iter().for_each(|name| set.record_read(account(name)));
        writes
            .iter()
            .for_each(|name| set.record_write(account(name)));
        deltas
            .iter()
            .for_each(|name| set.record_delta(account(name)));
        set
    }

    #[test]
    fn hot_accounts_and_components() {
        // Block 0: three txs all writing the exchange → one component of 3.
        // Block 1: two independent transfers → two components of 1.
        let blocks = vec![
            vec![
                tx(&[], &["exchange", "a"], &[]),
                tx(&[], &["exchange", "b"], &[]),
                tx(&[], &["exchange", "c"], &[]),
            ],
            vec![tx(&[], &["d"], &["e"]), tx(&[], &["f"], &["g"])],
        ];
        let profile = profile_blocks(&blocks, 3);
        assert_eq!(profile.blocks, 2);
        assert_eq!(profile.txs, 5);
        assert_eq!(profile.hot_accounts[0].account, label(&account("exchange")));
        assert_eq!(profile.hot_accounts[0].touches, 3);
        assert_eq!(profile.largest_share_over_time, vec![1.0, 0.5]);
        // Components: sizes [3] and [1, 1] → CDF: ≤1 covers 2/5, ≤3 covers 5/5.
        assert_eq!(profile.component_cdf, vec![(1, 0.4), (3, 1.0)]);
    }

    #[test]
    fn delta_only_sharing_does_not_fuse() {
        // Three fee payers all crediting the sink with commutative deltas:
        // under write tracking this is one component of 3; with deltas they
        // commute and stay independent.
        let blocks = vec![vec![
            tx(&[], &["a"], &["sink"]),
            tx(&[], &["b"], &["sink"]),
            tx(&[], &["c"], &["sink"]),
        ]];
        let profile = profile_blocks(&blocks, 3);
        assert_eq!(profile.largest_share_over_time, vec![1.0 / 3.0]);
        assert_eq!(profile.component_cdf, vec![(1, 1.0)]);
        assert_eq!(profile.hot_accounts[0].account, label(&account("sink")));
        assert_eq!(profile.hot_accounts[0].touches, 3);
        assert_eq!(profile.hot_accounts[0].deltas, 3);
        assert_eq!(profile.hot_accounts[0].writes, 0);
    }

    #[test]
    fn a_write_on_the_shared_account_fuses_everyone() {
        // Same sink, but one tx overwrites it — everyone orders against it.
        let blocks = vec![vec![
            tx(&[], &["a"], &["sink"]),
            tx(&[], &["b", "sink"], &[]),
            tx(&[], &["c"], &["sink"]),
        ]];
        let profile = profile_blocks(&blocks, 1);
        assert_eq!(profile.largest_share_over_time, vec![1.0]);
        assert_eq!(profile.hot_accounts[0].writes, 1);
        assert_eq!(profile.hot_accounts[0].deltas, 2);
    }

    #[test]
    fn a_reader_among_deltas_fuses_by_upgrade() {
        // A balance reader on the sink orders against each delta contributor,
        // welding the component back together.
        let blocks = vec![vec![
            tx(&[], &["a"], &["sink"]),
            tx(&[], &["b"], &["sink"]),
            tx(&["sink"], &["watcher"], &[]),
        ]];
        let profile = profile_blocks(&blocks, 1);
        assert_eq!(profile.largest_share_over_time, vec![1.0]);
        assert_eq!(profile.hot_accounts[0].reads, 1);
        assert_eq!(profile.hot_accounts[0].deltas, 2);
    }

    #[test]
    fn read_only_sharing_does_not_fuse() {
        let blocks = vec![vec![
            tx(&["oracle"], &["a"], &[]),
            tx(&["oracle"], &["b"], &[]),
        ]];
        let profile = profile_blocks(&blocks, 1);
        assert_eq!(profile.component_cdf, vec![(1, 1.0)]);
    }

    /// A transaction touches a key once, whatever it does there: a
    /// self-payment's write subsumes its credit, and a read-modify-write
    /// counts as one touch in two classes.
    #[test]
    fn a_key_counts_each_transaction_once() {
        let blocks = vec![vec![tx(&[], &["a"], &["a"]), tx(&["b"], &["b"], &[])]];
        let profile = profile_blocks(&blocks, 2);
        let counts: Vec<_> = profile
            .hot_accounts
            .iter()
            .map(|hot| (hot.touches, hot.reads, hot.writes, hot.deltas))
            .collect();
        assert_eq!(counts, [(1, 0, 1, 0), (1, 1, 1, 0)]);
    }
}
