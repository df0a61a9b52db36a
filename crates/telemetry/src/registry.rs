//! The [`TelemetryRegistry`]: the one handle instrumented code touches.
//!
//! A registry is either **disabled** (the default — every record call is a
//! single branch on a `None`; what an enabled one costs by the clock is
//! `driver.trace_overhead_share` of `BENCHMARK.json`) or **enabled**, in which
//! case it owns the
//! stage histograms, counters, distributions and the flight recorder. It is
//! `Clone` (cheap: an `Arc` + an `Option<Arc>`) so configs can carry it by
//! value into every layer.
//!
//! Even a disabled registry carries a [`SharedClock`], so drivers route *all*
//! their wall measurements through [`TelemetryRegistry::now_nanos`] and tests
//! can swap in a [`MockClock`](crate::MockClock) regardless of whether
//! collection is on.

use crate::clock::{SharedClock, WallClock};
use crate::hist::Histogram;
use crate::snapshot::{CounterSnapshot, DistSnapshot, StageSnapshot, TelemetrySnapshot};
use crate::span::{FlightRecorder, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default flight-recorder capacity (sealed block trees kept).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

macro_rules! named_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $text:literal),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant),+
        }

        impl $name {
            /// All variants, in index order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Stable snake_case name used in snapshots and JSON artifacts.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $text),+
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

named_enum! {
    /// Pipeline stages with a (wall, count) histogram pair each.
    Stage {
        /// Mempool ingest / routing.
        Ingest => "ingest",
        /// Block packing (ready-chain selection).
        Pack => "pack",
        /// Transaction execution.
        Execute => "execute",
        /// State/store commit.
        Store => "store",
        /// Cluster merge of the shards' micro-block records into the height's
        /// final block.
        Merge => "merge",
        /// Cluster account re-homing.
        Rehome => "rehome",
    }
}

named_enum! {
    /// Monotonic event counters.
    Count {
        /// Transactions admitted into a mempool.
        MempoolAdmitted => "mempool_admitted",
        /// Admissions that replaced a same-sender transaction.
        MempoolReplaced => "mempool_replaced",
        /// Transactions evicted by capacity pressure.
        MempoolEvicted => "mempool_evicted",
        /// Offers rejected (underpriced / full / nonce).
        MempoolRejected => "mempool_rejected",
        /// Incremental-TDG maintenance operations (`IncrementalTdg::op_units`:
        /// edge inserts/removes plus folded and compacted entries).
        TdgOps => "tdg_ops",
        /// Bytes appended to the store journal.
        JournalBytes => "journal_bytes",
        /// Journal writes: one per committed block.
        JournalFlushes => "journal_flushes",
        /// Store compaction (snapshot + truncate) passes.
        StoreCompactions => "store_compactions",
        /// Cross-shard credit receipts applied.
        CrossShardReceipts => "cross_shard_receipts",
        /// Accounts re-homed between shards.
        RehomedAccounts => "rehomed_accounts",
        /// Optimistic-engine conflicts (aborted speculative lanes).
        EngineConflicts => "engine_conflicts",
        /// Optimistic-engine read-set validation passes.
        EngineValidations => "engine_validations",
        /// Optimistic-engine incarnation aborts (failed validations).
        EngineAborts => "engine_aborts",
        /// Optimistic-engine transaction re-executions after aborts.
        EngineReExecutions => "engine_re_executions",
        /// Commutative delta contributions committed without ordering
        /// (delta-cell engine; each one is a conflict that did not happen).
        DeltaMerges => "delta_merges",
        /// Delta-cell reads that ordered the reader after the contributors
        /// (a commutative cell downgraded to an ordered dependency).
        DeltaDowngrades => "delta_downgrades",
    }
}

named_enum! {
    /// Value distributions that are not per-stage timings.
    Dist {
        /// Largest per-shard share of an ingest batch (items offered to one shard;
        /// the name dates from per-shard admission queues).
        IngestQueueDepth => "ingest_queue_depth",
        /// TDG maintenance operations per block.
        TdgBlockUnits => "tdg_block_units",
        /// Bytes committed to the store per block.
        CommitBytes => "commit_bytes",
        /// Cross-shard receipt latency in blocks (apply − emit height).
        ReceiptLatencyBlocks => "receipt_latency_blocks",
        /// Transactions packed per block.
        BlockTxs => "block_txs",
    }
}

#[derive(Debug)]
struct StagePair {
    wall: Histogram,
    units: Histogram,
}

#[derive(Debug)]
struct Inner {
    stages: Vec<StagePair>,
    counters: Vec<AtomicU64>,
    dists: Vec<Histogram>,
    recorder: FlightRecorder,
}

/// The observability handle threaded through configs (see module docs).
#[derive(Debug, Clone)]
pub struct TelemetryRegistry {
    clock: SharedClock,
    inner: Option<Arc<Inner>>,
}

impl Default for TelemetryRegistry {
    /// A disabled registry on the wall clock — the zero-cost default every
    /// config starts from.
    fn default() -> Self {
        TelemetryRegistry::disabled()
    }
}

impl TelemetryRegistry {
    /// A disabled registry: all record calls are single-branch no-ops, but
    /// [`now_nanos`](Self::now_nanos) still works (wall clock).
    pub fn disabled() -> Self {
        TelemetryRegistry {
            clock: WallClock::shared(),
            inner: None,
        }
    }

    /// An enabled registry on the wall clock with the default flight-recorder
    /// capacity.
    pub fn enabled() -> Self {
        TelemetryRegistry::enabled_with(WallClock::shared(), DEFAULT_FLIGHT_CAPACITY)
    }

    /// An enabled registry with an explicit clock and flight-recorder
    /// capacity.
    pub fn enabled_with(clock: SharedClock, flight_capacity: usize) -> Self {
        TelemetryRegistry {
            clock,
            inner: Some(Arc::new(Inner {
                stages: Stage::ALL
                    .iter()
                    .map(|_| StagePair {
                        wall: Histogram::new(),
                        units: Histogram::new(),
                    })
                    .collect(),
                counters: Count::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
                dists: Dist::ALL.iter().map(|_| Histogram::new()).collect(),
                recorder: FlightRecorder::new(flight_capacity),
            })),
        }
    }

    /// Whether collection is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The registry's clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Current clock reading — use this instead of `Instant::now()` in
    /// instrumented code so mock clocks govern all timing.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Records one (wall, count) observation for a stage.
    pub fn stage(&self, stage: Stage, wall_nanos: u64, units: u64) {
        if let Some(inner) = &self.inner {
            let pair = &inner.stages[stage.index()];
            pair.wall.record(wall_nanos);
            pair.units.record(units);
        }
    }

    /// Adds `n` to a counter.
    pub fn count(&self, counter: Count, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter_value(&self, counter: Count) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner.counters[counter.index()].load(Ordering::Relaxed)
        })
    }

    /// Records one sample into a value distribution.
    pub fn dist(&self, dist: Dist, value: u64) {
        if let Some(inner) = &self.inner {
            inner.dists[dist.index()].record(value);
        }
    }

    /// Opens a span at the current clock reading. Returns [`SpanId::ROOT`]
    /// when disabled (all span calls on a disabled registry are no-ops, and
    /// `SpanId::ROOT` is a valid parent everywhere).
    pub fn begin_span(&self, name: &str, parent: SpanId) -> SpanId {
        match &self.inner {
            Some(inner) => inner.recorder.begin(name, parent, self.clock.now_nanos()),
            None => SpanId::ROOT,
        }
    }

    /// Attaches a numeric attribute to an open span.
    pub fn span_attr(&self, span: SpanId, key: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.recorder.attr(span, key, value);
        }
    }

    /// Closes a span at the current clock reading, attributing the count
    /// `units` to it. Closing a root span seals its tree into the flight
    /// recorder.
    pub fn end_span(&self, span: SpanId, units: u64) {
        if let Some(inner) = &self.inner {
            inner.recorder.end(span, self.clock.now_nanos(), units);
        }
    }

    /// Records an already-measured span (work timed in a worker thread,
    /// reported serially).
    pub fn record_span(
        &self,
        name: &str,
        parent: SpanId,
        start_nanos: u64,
        end_nanos: u64,
        units: u64,
        attrs: &[(&str, u64)],
    ) -> SpanId {
        match &self.inner {
            Some(inner) => {
                inner
                    .recorder
                    .record(name, parent, start_nanos, end_nanos, units, attrs)
            }
            None => SpanId::ROOT,
        }
    }

    /// Exports the flight recorder's ring as JSONL (empty when disabled).
    pub fn flight_jsonl(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |inner| inner.recorder.to_jsonl())
    }

    /// Clones the flight recorder's sealed span trees, oldest first (empty
    /// when disabled) — the input to trace exporters and analyzers.
    pub fn flight_trees(&self) -> Vec<crate::span::SpanTree> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.recorder.trees())
    }

    /// Summarizes everything collected so far; `None` when disabled, so
    /// reports stay bit-identical to pre-telemetry runs by default.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let inner = self.inner.as_ref()?;
        let mut stages: Vec<StageSnapshot> = Stage::ALL
            .iter()
            .filter_map(|stage| {
                let pair = &inner.stages[stage.index()];
                (pair.wall.count() > 0).then(|| StageSnapshot {
                    stage: stage.name().to_string(),
                    wall_nanos: pair.wall.snapshot(),
                    units: pair.units.snapshot(),
                })
            })
            .collect();
        stages.sort_by(|a, b| a.stage.cmp(&b.stage));
        let mut counters: Vec<CounterSnapshot> = Count::ALL
            .iter()
            .filter_map(|counter| {
                let value = inner.counters[counter.index()].load(Ordering::Relaxed);
                (value > 0).then(|| CounterSnapshot {
                    name: counter.name().to_string(),
                    value,
                })
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut dists: Vec<DistSnapshot> = Dist::ALL
            .iter()
            .filter_map(|dist| {
                let h = &inner.dists[dist.index()];
                (h.count() > 0).then(|| DistSnapshot {
                    name: dist.name().to_string(),
                    dist: h.snapshot(),
                })
            })
            .collect();
        dists.sort_by(|a, b| a.name.cmp(&b.name));
        Some(TelemetrySnapshot {
            stages,
            counters,
            dists,
            spans_recorded: inner.recorder.recorded_total(),
            blocks_sealed: inner.recorder.sealed_total(),
            trees_dropped: inner.recorder.dropped_total(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;

    #[test]
    fn disabled_registry_is_inert_but_keeps_time() {
        let registry = TelemetryRegistry::disabled();
        assert!(!registry.is_enabled());
        registry.stage(Stage::Pack, 100, 10);
        registry.count(Count::TdgOps, 5);
        registry.dist(Dist::BlockTxs, 128);
        let span = registry.begin_span("block", SpanId::ROOT);
        registry.end_span(span, 1);
        assert_eq!(registry.snapshot(), None);
        assert_eq!(registry.flight_jsonl(), "");
        // Time still flows.
        let a = registry.now_nanos();
        let b = registry.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn enabled_registry_collects_everything() {
        let registry = TelemetryRegistry::enabled_with(MockClock::shared(10), 8);
        registry.stage(Stage::Pack, 50, 5);
        registry.stage(Stage::Pack, 70, 7);
        registry.count(Count::MempoolAdmitted, 3);
        registry.count(Count::MempoolAdmitted, 2);
        registry.dist(Dist::CommitBytes, 4_096);

        let block = registry.begin_span("block", SpanId::ROOT);
        let pack = registry.begin_span("pack", block);
        registry.span_attr(pack, "txs", 12);
        registry.end_span(pack, 5);
        registry.end_span(block, 12);

        let snapshot = registry.snapshot().unwrap();
        assert_eq!(snapshot.stage("pack").unwrap().wall_nanos.count, 2);
        assert_eq!(snapshot.stage("pack").unwrap().units.sum, 12);
        assert_eq!(snapshot.counter("mempool_admitted"), 5);
        assert_eq!(snapshot.dist("commit_bytes").unwrap().max, 4_096);
        assert_eq!(snapshot.blocks_sealed, 1);
        assert_eq!(snapshot.spans_recorded, 2);

        // Mock clock: begin/end at steps 0,10,20,30 → pack = [10,20].
        let jsonl = registry.flight_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let pack_span = crate::span::SpanRecord::from_jsonl_line(lines[1]).unwrap();
        assert_eq!(pack_span.start_nanos, 10);
        assert_eq!(pack_span.end_nanos, 20);
    }

    #[test]
    fn snapshot_surfaces_flight_ring_overflow() {
        let registry = TelemetryRegistry::enabled_with(MockClock::shared(1), 2);
        for _ in 0..5 {
            let block = registry.begin_span("block", SpanId::ROOT);
            registry.end_span(block, 1);
        }
        let snapshot = registry.snapshot().unwrap();
        assert_eq!(snapshot.blocks_sealed, 5);
        assert_eq!(snapshot.trees_dropped, 3);
        assert_eq!(registry.flight_trees().len(), 2);
    }

    #[test]
    fn clones_share_state() {
        let registry = TelemetryRegistry::enabled();
        let clone = registry.clone();
        clone.count(Count::JournalFlushes, 4);
        assert_eq!(registry.counter_value(Count::JournalFlushes), 4);
    }

    #[test]
    fn enum_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.extend(Count::ALL.iter().map(|c| c.name()));
        names.extend(Dist::ALL.iter().map(|d| d.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
