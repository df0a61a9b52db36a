//! Chrome trace-event export of flight-recorder span trees.
//!
//! The exported JSON opens directly in `chrome://tracing` or Perfetto: the
//! driver's serial spans (block, ingest, pack, execute, store, merge, settle,
//! rehome) render on one "driver (serial)" track, and each parallel `shard`
//! span renders on its own `shard N` track, so a cluster block reads as a
//! serial spine with a fan of shard lanes between pack and merge. Span model
//! units, conflict counts and other numeric attributes travel as event `args`.
//!
//! [`validate_chrome_trace`] is the CI gate: it re-parses an export and checks
//! the structural invariants a viewer silently forgives but an analyzer must
//! not — every `B` has a matching `E` on the same thread, timestamps are
//! monotone, and every referenced `(pid, tid)` is named by metadata.

use blockconc_telemetry::{SpanRecord, SpanTree};
use serde_json::Value;
use std::collections::BTreeMap;

/// The single process id used by exports (one trace = one run).
pub const TRACE_PID: u64 = 1;
/// Thread id of the driver's serial track.
pub const DRIVER_TID: u64 = 1;
/// Shard `k` renders on thread id `SHARD_TID_BASE + k`.
pub const SHARD_TID_BASE: u64 = 10;

/// Thread id a span renders on: `shard` spans get their own per-shard track,
/// everything else shares the driver's serial track.
fn tid_for(span: &SpanRecord) -> u64 {
    match (span.name.as_str(), span.attr("shard")) {
        ("shard", Some(index)) => SHARD_TID_BASE + index,
        _ => DRIVER_TID,
    }
}

struct Event {
    ts_nanos: u64,
    /// Sort rank at equal timestamps: closing non-empty spans first (inner
    /// before outer), then opens in id order — a zero-length span's close
    /// rides directly behind its own open (`2*id + 1`).
    order: (u8, u64),
    ph: char,
    tid: u64,
    name: String,
    args: Vec<(String, u64)>,
}

/// Renders sealed span trees as a Chrome trace-event JSON document.
///
/// Timestamps are normalized so the earliest root starts at 0 and converted to
/// fractional microseconds (the trace-event unit). Events are emitted as
/// `B`/`E` pairs sorted by timestamp with nesting-safe tie-breaks, preceded by
/// `M` metadata naming the process and every thread track.
pub fn chrome_trace(trees: &[SpanTree]) -> String {
    let origin = trees
        .iter()
        .map(|tree| tree.root().start_nanos)
        .min()
        .unwrap_or(0);
    let mut events: Vec<Event> = Vec::new();
    for tree in trees {
        for span in &tree.spans {
            let tid = tid_for(span);
            let start = span.start_nanos.saturating_sub(origin);
            let end = span.end_nanos.saturating_sub(origin);
            let mut args = vec![("units".to_string(), span.units)];
            args.extend(span.attrs.iter().cloned());
            events.push(Event {
                ts_nanos: start,
                order: (1, span.id * 2),
                ph: 'B',
                tid,
                name: span.name.clone(),
                args,
            });
            events.push(Event {
                ts_nanos: end,
                order: if end == start {
                    (1, span.id * 2 + 1)
                } else {
                    (0, u64::MAX - span.id)
                },
                ph: 'E',
                tid,
                name: span.name.clone(),
                args: Vec::new(),
            });
        }
    }
    events.sort_by_key(|event| (event.ts_nanos, event.order));

    let mut trace_events: Vec<Value> = Vec::new();
    trace_events.push(metadata_event("process_name", 0, "blockconc"));
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let label = if tid == DRIVER_TID {
            "driver (serial)".to_string()
        } else {
            format!("shard {}", tid - SHARD_TID_BASE)
        };
        trace_events.push(metadata_event("thread_name", tid, &label));
    }
    for event in &events {
        let mut fields = vec![
            ("name".to_string(), Value::Str(event.name.clone())),
            ("cat".to_string(), Value::Str("blockconc".to_string())),
            ("ph".to_string(), Value::Str(event.ph.to_string())),
            ("ts".to_string(), Value::Float(event.ts_nanos as f64 / 1e3)),
            ("pid".to_string(), Value::UInt(TRACE_PID)),
            ("tid".to_string(), Value::UInt(event.tid)),
        ];
        if !event.args.is_empty() {
            fields.push((
                "args".to_string(),
                Value::Map(
                    event
                        .args
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ));
        }
        trace_events.push(Value::Map(fields));
    }
    let document = Value::Map(vec![
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ("traceEvents".to_string(), Value::Seq(trace_events)),
    ]);
    serde_json::to_string_pretty(&document).expect("trace document serializes")
}

fn metadata_event(name: &str, tid: u64, label: &str) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::UInt(TRACE_PID)),
        ("tid".to_string(), Value::UInt(tid)),
        (
            "args".to_string(),
            Value::Map(vec![("name".to_string(), Value::Str(label.to_string()))]),
        ),
    ])
}

/// Summary statistics of a validated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// Distinct thread tracks referenced by span events.
    pub tracks: usize,
}

fn number(value: &Value, what: &str) -> Result<f64, String> {
    match value {
        Value::UInt(v) => Ok(*v as f64),
        Value::Int(v) => Ok(*v as f64),
        Value::Float(v) => Ok(*v),
        other => Err(format!("{what} is not a number: {other:?}")),
    }
}

fn field<'a>(event: &'a Value, key: &str) -> Result<&'a Value, String> {
    event
        .get(key)
        .ok_or_else(|| format!("event missing required field {key:?}: {event:?}"))
}

/// Validates an exported Chrome trace: well-formed JSON, every `ph` one of
/// `B`/`E`/`M`, timestamps monotone non-decreasing across span events, `B`/`E`
/// properly nested per `(pid, tid)` with matching names, and every span
/// event's `(pid, tid)` named by a `thread_name` metadata record.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let document: Value =
        serde_json::from_str(json).map_err(|err| format!("trace is not valid JSON: {err}"))?;
    let Some(Value::Seq(events)) = document.get("traceEvents") else {
        return Err("trace has no traceEvents array".to_string());
    };
    let mut named_tracks: Vec<(f64, f64)> = Vec::new();
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut spans = 0usize;
    for event in events {
        let ph = match field(event, "ph")? {
            Value::Str(ph) => ph.clone(),
            other => return Err(format!("ph is not a string: {other:?}")),
        };
        let pid = number(field(event, "pid")?, "pid")?;
        let tid = number(field(event, "tid")?, "tid")?;
        match ph.as_str() {
            "M" => {
                if let Some(Value::Str(kind)) = event.get("name") {
                    if kind == "thread_name" || kind == "process_name" {
                        named_tracks.push((pid, tid));
                    }
                }
            }
            "B" | "E" => {
                let ts = number(field(event, "ts")?, "ts")?;
                let name = match field(event, "name")? {
                    Value::Str(name) => name.clone(),
                    other => return Err(format!("name is not a string: {other:?}")),
                };
                if ts < last_ts {
                    return Err(format!(
                        "timestamps regress: {ts} after {last_ts} at {name:?}"
                    ));
                }
                last_ts = ts;
                if !named_tracks.contains(&(pid, tid)) {
                    return Err(format!(
                        "span event {name:?} on unnamed track (pid {pid}, tid {tid})"
                    ));
                }
                let stack = stacks.entry((pid as u64, tid as u64)).or_default();
                if ph == "B" {
                    stack.push(name);
                } else {
                    match stack.pop() {
                        Some(open) if open == name => spans += 1,
                        Some(open) => {
                            return Err(format!(
                                "E {name:?} closes B {open:?} on tid {tid} — misnested"
                            ))
                        }
                        None => return Err(format!("E {name:?} on tid {tid} without a B")),
                    }
                }
            }
            other => return Err(format!("unknown event phase {other:?}")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "span {open:?} on (pid {pid}, tid {tid}) never closed"
            ));
        }
    }
    let tracks = stacks.len();
    Ok(ChromeTraceStats {
        events: events.len(),
        spans,
        tracks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_telemetry::{FlightRecorder, SpanId};

    /// A two-block cluster-shaped recording: serial ingest, parallel shards,
    /// serial merge under each block root.
    fn cluster_trees() -> Vec<SpanTree> {
        let recorder = FlightRecorder::new(8);
        for height in 0..2u64 {
            let t0 = 1_000 + height * 500;
            let block = recorder.begin("block", SpanId::ROOT, t0);
            recorder.attr(block, "height", height);
            recorder.record("ingest", block, t0, t0 + 40, 10, &[]);
            recorder.record(
                "shard",
                block,
                t0 + 40,
                t0 + 300,
                90,
                &[("shard", 0), ("txs", 9)],
            );
            recorder.record(
                "shard",
                block,
                t0 + 40,
                t0 + 220,
                70,
                &[("shard", 1), ("txs", 7)],
            );
            recorder.record("merge", block, t0 + 300, t0 + 340, 16, &[]);
            recorder.end(block, t0 + 360, 176);
        }
        recorder.trees()
    }

    #[test]
    fn export_validates_and_maps_shards_to_tracks() {
        let json = chrome_trace(&cluster_trees());
        let stats = validate_chrome_trace(&json).unwrap();
        // 2 blocks × 5 spans, plus process + 3 thread-name metadata records.
        assert_eq!(stats.spans, 10);
        assert_eq!(stats.tracks, 3);
        assert_eq!(stats.events, 10 * 2 + 4);
        assert!(json.contains("\"shard 1\""));
        assert!(json.contains("\"driver (serial)\""));
        // The earliest root is normalized to ts 0.
        assert!(json.contains("\"ts\": 0.0"));
    }

    #[test]
    fn zero_length_spans_pair_correctly() {
        let recorder = FlightRecorder::new(4);
        let block = recorder.begin("block", SpanId::ROOT, 100);
        recorder.record("pack", block, 150, 150, 0, &[]);
        recorder.record("execute", block, 150, 180, 5, &[]);
        recorder.end(block, 200, 5);
        let json = chrome_trace(&recorder.trees());
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.spans, 3);
    }

    #[test]
    fn tampered_trace_is_rejected() {
        let json = chrome_trace(&cluster_trees());
        // Dropping one E event breaks pairing.
        let mut doc: Value = serde_json::from_str(&json).unwrap();
        if let Value::Map(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "traceEvents" {
                    if let Value::Seq(events) = value {
                        let index = events
                            .iter()
                            .rposition(|e| matches!(e.get("ph"), Some(Value::Str(ph)) if ph == "E"))
                            .unwrap();
                        events.remove(index);
                    }
                }
            }
        }
        let tampered = serde_json::to_string(&doc).unwrap();
        assert!(validate_chrome_trace(&tampered).is_err());
    }

    #[test]
    fn misnamed_track_is_rejected() {
        let json = chrome_trace(&cluster_trees());
        let without_metadata = json.replace("thread_name", "thread_labl");
        assert!(validate_chrome_trace(&without_metadata).is_err());
    }
}
