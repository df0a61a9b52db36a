//! Zero-dependency in-process observability for the blockconc workspace.
//!
//! The layer has four pieces, smallest to largest:
//!
//! 1. **Clocks** ([`Clock`], [`WallClock`], [`MockClock`]) — every wall
//!    measurement in the workspace flows through a [`SharedClock`], so tests
//!    can make time deterministic.
//! 2. **Histograms** ([`Histogram`], [`HistogramSnapshot`]) — lock-free
//!    log-bucketed recording (≤12.5% relative bucket width) with p50/p95/p99
//!    extraction and order-independent snapshot merging.
//! 3. **Spans** ([`SpanRecord`], [`FlightRecorder`]) — named intervals that
//!    carry *both* wall nanos and a count with block → phase → shard
//!    causality, kept in a bounded ring and exportable as JSONL.
//! 4. **The registry** ([`TelemetryRegistry`]) — the one handle instrumented
//!    code touches. Disabled (the default) it costs a single branch per call;
//!    enabled it feeds the histograms, counters ([`Count`]), distributions
//!    ([`Dist`]), per-stage timings ([`Stage`]) and the flight recorder, and
//!    summarizes into a [`TelemetrySnapshot`] for run reports.
//!
//! The count/wall duality: each stage's count (transactions executed, records
//! committed, candidates considered, ...) is the deterministic "how much work"
//! axis, in that stage's own currency and never summed across stages; wall
//! nanos are the "how long did it really take" axis. Spans and stages record
//! both so a trajectory can show, e.g., that execute-stage p99 wall time grew
//! while its count profile stayed flat — a scheduling problem, not a workload
//! change.
//!
//! # Example
//!
//! ```
//! use blockconc_telemetry::{Count, Dist, SpanId, Stage, TelemetryRegistry};
//!
//! let telemetry = TelemetryRegistry::enabled();
//! let block = telemetry.begin_span("block", SpanId::ROOT);
//! telemetry.span_attr(block, "height", 1);
//!
//! let start = telemetry.now_nanos();
//! // ... pack a block ...
//! telemetry.stage(Stage::Pack, telemetry.now_nanos() - start, 42);
//! telemetry.count(Count::MempoolAdmitted, 100);
//! telemetry.dist(Dist::BlockTxs, 42);
//!
//! telemetry.end_span(block, 42);
//! let snapshot = telemetry.snapshot().unwrap();
//! assert_eq!(snapshot.counter("mempool_admitted"), 100);
//! assert_eq!(snapshot.blocks_sealed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use clock::{Clock, MockClock, SharedClock, WallClock};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Count, Dist, Stage, TelemetryRegistry, DEFAULT_FLIGHT_CAPACITY};
pub use snapshot::{CounterSnapshot, DistSnapshot, StageSnapshot, TelemetrySnapshot};
pub use span::{FlightRecorder, SpanId, SpanRecord, SpanTree};
