//! Trace *analysis* on top of the `blockconc-telemetry` fabric.
//!
//! PR 6 made every layer record spans, histograms and counters; this crate
//! turns those recordings into explanations:
//!
//! - [`trace`] exports [`FlightRecorder`](blockconc_telemetry::FlightRecorder)
//!   span trees as Chrome trace-event JSON, so any pipeline or cluster run
//!   opens in `chrome://tracing` / Perfetto, and validates exported traces
//!   (B/E pairing, monotone timestamps, stable pids/tids) for CI.
//! - [`critpath`] walks sealed span trees, attributes every nanosecond of
//!   end-to-end block latency to a stage, shard or the driver gap (the sweep
//!   sums *exactly* to the measured wall time), and computes Amdahl-style
//!   what-if bounds: "if pack were free", "if the slowest shard matched the
//!   median", "serial-section speedup ceiling".
//! - [`contention`] profiles workload contention from per-transaction access
//!   sets: top-K hot accounts and dependency-component size CDFs over time,
//!   the components being `blockconc_graph::conflict_groups`, the evaluators'
//!   own storage-level grouping.
//!
//! The `obs` binary (`src/bin/obs.rs`) exposes the first two over
//! flight-recorder JSONL exports and the third over a synthetic arrival stream.
//! See `README.md` for a guided tour. (Watching for wall-clock regressions is
//! `benchmark/`'s job: `BENCHMARK.json` declares `better` and `bound` per
//! metric.)

pub mod contention;
pub mod critpath;
pub mod trace;

use blockconc_telemetry::{SpanRecord, SpanTree};

/// Parses a flight-recorder JSONL export (one [`SpanRecord`] per line, trees
/// in seal order, root first within a tree) back into [`SpanTree`]s — the
/// inverse of `TelemetryRegistry::flight_jsonl`.
///
/// A root span (parent 0) starts a new tree; every other span must belong to
/// the tree opened by the most recent root.
pub fn trees_from_jsonl(jsonl: &str) -> Result<Vec<SpanTree>, String> {
    let mut trees: Vec<SpanTree> = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let span = SpanRecord::from_jsonl_line(line)
            .map_err(|err| format!("line {}: unparseable span: {err}", lineno + 1))?;
        if span.parent == 0 {
            trees.push(SpanTree { spans: vec![span] });
        } else {
            let tree = trees
                .last_mut()
                .ok_or_else(|| format!("line {}: child span before any root", lineno + 1))?;
            if !tree.spans.iter().any(|s| s.id == span.parent) {
                return Err(format!(
                    "line {}: span {} references parent {} outside the current tree",
                    lineno + 1,
                    span.id,
                    span.parent
                ));
            }
            tree.spans.push(span);
        }
    }
    Ok(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_telemetry::{MockClock, SpanId, TelemetryRegistry};

    #[test]
    fn jsonl_round_trips_to_trees() {
        let registry = TelemetryRegistry::enabled_with(MockClock::shared(10), 8);
        for _ in 0..2 {
            let block = registry.begin_span("block", SpanId::ROOT);
            let pack = registry.begin_span("pack", block);
            registry.span_attr(pack, "txs", 4);
            registry.end_span(pack, 4);
            registry.end_span(block, 4);
        }
        let trees = trees_from_jsonl(&registry.flight_jsonl()).unwrap();
        assert_eq!(trees, registry.flight_trees());
    }

    /// The export's bytes for one span whose name and attribute key need
    /// escaping, as every earlier build wrote them: a change here breaks
    /// `obs` on older exports.
    #[test]
    fn span_jsonl_line_is_pinned() {
        let span = SpanRecord {
            id: 3,
            parent: 0,
            name: "pa\"ck\\\nx".to_string(),
            start_nanos: 10,
            end_nanos: 25,
            units: 4,
            attrs: vec![
                ("sh\"ard\\\n".to_string(), u64::MAX),
                ("height".to_string(), 0),
            ],
        };
        let line = r#"{"id":3,"parent":0,"name":"pa\"ck\\\nx","start_nanos":10,"end_nanos":25,"units":4,"attrs":[["sh\"ard\\\n",18446744073709551615],["height",0]]}"#;
        assert_eq!(span.to_jsonl_line(), line);
        assert_eq!(
            trees_from_jsonl(line).unwrap(),
            vec![SpanTree { spans: vec![span] }]
        );
    }

    #[test]
    fn orphan_child_is_rejected() {
        let line = r#"{"id":5,"parent":3,"name":"pack","start_nanos":0,"end_nanos":1,"units":0,"attrs":[]}"#;
        assert!(trees_from_jsonl(line)
            .unwrap_err()
            .contains("before any root"));
    }
}
