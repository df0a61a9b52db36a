//! Benchmarks storage-level conflict detection over [`AccessSet`]s: the
//! sorted-small-vec representation's pairwise `conflicts_with` (a two-pointer
//! merge with no per-key hashing, spanning the read/write/**delta** class
//! triple) and the one-pass `conflict_groups` over a block's worth of recorded
//! access sets, which applies the same relation key by key with no pair list.
//!
//! This is the regression guard for the `HashSet` → sorted-`Vec` refactor: if
//! `conflicts_with` ever regresses to per-key hashing or allocation, these numbers
//! move first. The `delta_commute` group covers the fee-sink shape — every set
//! delta-merges the same hot key — where the answer is "no conflict" but both
//! the pairwise walk and the block pass still have to cross all three classes.

use blockconc::account::{AccessSet, StateKey};
use blockconc::graph::conflict_groups;
use blockconc::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A deterministic access set shaped like a real transfer/contract-call mix:
/// 2–8 keys drawn from a population with hot spots, rotating through all three
/// access classes. Hot-slot accesses are recorded as deltas (the fee-sink
/// increment), cold keys rotate read → write → delta.
fn access_set(tx: u64, keys: u64) -> AccessSet {
    let mut set = AccessSet::new();
    for i in 0..keys {
        let raw = tx.wrapping_mul(31).wrapping_add(i.wrapping_mul(17)) % 5_000;
        // ~10% of accesses hit a hot contract slot with a commutative
        // increment, mirroring fee-sink workloads.
        if raw % 10 == 0 {
            set.record_delta(StateKey::Storage(Address::from_low(1), raw % 4));
            continue;
        }
        let key = StateKey::Balance(Address::from_low(100 + raw));
        match i % 3 {
            0 => set.record_read(key),
            1 => set.record_write(key),
            _ => set.record_delta(key),
        }
    }
    set
}

fn pairwise_conflicts(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_set_conflicts_with");
    for &keys in &[2u64, 8, 32] {
        let sets: Vec<AccessSet> = (0..64).map(|tx| access_set(tx, keys)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(keys), &sets, |b, sets| {
            b.iter(|| {
                let mut conflicts = 0usize;
                for (i, a) in sets.iter().enumerate() {
                    for b in &sets[i + 1..] {
                        conflicts += usize::from(
                            std::hint::black_box(a).conflicts_with(std::hint::black_box(b)),
                        );
                    }
                }
                conflicts
            })
        });
    }
    group.finish();
}

/// The fee-sink shape: every transaction delta-merges the same hot key plus a
/// couple of private keys. `conflicts_with` and `conflict_groups` must report
/// *no* conflicts (deltas commute) while still walking all three classes — the
/// cost of the answer "these all parallelize" is what this group pins.
fn delta_commute(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_set_delta_commute");
    for &keys in &[2u64, 8] {
        let sets: Vec<AccessSet> = (0..64)
            .map(|tx: u64| {
                let mut set = AccessSet::new();
                set.record_delta(StateKey::Storage(Address::from_low(1), 0));
                for i in 0..keys {
                    set.record_delta(StateKey::Balance(Address::from_low(1_000 + tx * keys + i)));
                }
                set
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(keys), &sets, |b, sets| {
            b.iter(|| {
                let mut conflicts = 0usize;
                for (i, a) in sets.iter().enumerate() {
                    for b in &sets[i + 1..] {
                        conflicts += usize::from(
                            std::hint::black_box(a).conflicts_with(std::hint::black_box(b)),
                        );
                    }
                }
                assert_eq!(conflicts, 0, "pure delta sets must commute");
                conflicts
            })
        });
        group.bench_with_input(BenchmarkId::new("block", keys), &sets, |b, sets| {
            b.iter(|| {
                let groups = conflict_groups(std::hint::black_box(sets));
                assert_eq!(groups.conflicted_count(), 0, "pure delta sets must commute");
                groups
            })
        });
    }
    group.finish();
}

fn block_conflict_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_groups_block");
    for &txs in &[64u64, 256] {
        let sets: Vec<AccessSet> = (0..txs).map(|tx| access_set(tx, 4)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(txs), &sets, |b, sets| {
            b.iter(|| conflict_groups(std::hint::black_box(sets)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    pairwise_conflicts,
    delta_commute,
    block_conflict_detection
);
criterion_main!(benches);
