//! Structured spans and the flight recorder.
//!
//! A span is a named interval carrying **both** wall nanoseconds and a count
//! of the work it covered, with parent/child causality: a block span owns phase spans (ingest,
//! pack, execute, store), and a phase span may own per-shard spans. The
//! [`FlightRecorder`] keeps a bounded ring of the most recent *sealed* block
//! span trees (a tree seals when its root span ends), exportable as JSONL for
//! post-mortem inspection without holding an entire run in memory.

use serde_json::Value;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Identifier of an open or recorded span. `SpanId::ROOT` (0) is the
/// pseudo-parent of top-level spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The pseudo-parent of root spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// A completed span: a named `[start, end]` wall interval plus a count of the
/// work it covered, and optional numeric attributes (block height, shard id,
/// transaction count, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the run (ids increase in open order).
    pub id: u64,
    /// Parent span id; 0 for root spans.
    pub parent: u64,
    /// Span name, e.g. `"block"`, `"pack"`, `"shard"`.
    pub name: String,
    /// Clock reading when the span opened.
    pub start_nanos: u64,
    /// Clock reading when the span closed.
    pub end_nanos: u64,
    /// Count of the work covered by the span, in the span's own currency
    /// (transactions, records, candidates, ...).
    pub units: u64,
    /// Numeric attributes (`("height", 7)`, `("shard", 2)`, ...).
    pub attrs: Vec<(String, u64)>,
}

impl SpanRecord {
    /// Wall duration of the span.
    pub fn wall_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// One sealed root-span tree (typically one block), spans sorted by id so the
/// root comes first.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// All spans of the tree, root first (ascending id).
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// The tree's root span (the sealed block span).
    pub fn root(&self) -> &SpanRecord {
        &self.spans[0]
    }

    /// Direct children of `parent`, in id order.
    pub fn children_of(&self, parent: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |span| span.parent == parent)
    }

    /// Looks up a span by id.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|span| span.id == id)
    }

    /// The root span's numeric attribute, if present (e.g. `"height"`).
    pub fn root_attr(&self, key: &str) -> Option<u64> {
        self.root()
            .attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }
}

impl SpanRecord {
    /// The span's numeric attribute, if present.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The span as one JSONL line, without the newline: an object with the
    /// fields in declaration order, `attrs` as `[key, value]` pairs. The one
    /// writer of the flight recorder's export; [`SpanRecord::from_jsonl_line`]
    /// reads it back.
    pub fn to_jsonl_line(&self) -> String {
        let attrs = self
            .attrs
            .iter()
            .map(|(k, v)| Value::Seq(vec![Value::Str(k.clone()), Value::UInt(*v)]))
            .collect();
        let object = Value::Map(vec![
            ("id".to_string(), Value::UInt(self.id)),
            ("parent".to_string(), Value::UInt(self.parent)),
            ("name".to_string(), Value::Str(self.name.clone())),
            ("start_nanos".to_string(), Value::UInt(self.start_nanos)),
            ("end_nanos".to_string(), Value::UInt(self.end_nanos)),
            ("units".to_string(), Value::UInt(self.units)),
            ("attrs".to_string(), Value::Seq(attrs)),
        ]);
        serde_json::to_string(&object).expect("a span holds no floats")
    }

    /// Parses one line written by [`SpanRecord::to_jsonl_line`].
    ///
    /// # Errors
    ///
    /// Returns what is wrong: the line is not JSON, or a field is missing or
    /// of the wrong type. Members the span does not have are ignored.
    pub fn from_jsonl_line(line: &str) -> Result<SpanRecord, String> {
        let object = serde_json::from_str(line).map_err(|err| err.to_string())?;
        let field = |key: &str| {
            object
                .get(key)
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let uint = |key: &str| match field(key)? {
            Value::UInt(v) => Ok(*v),
            other => Err(format!("`{key}` is not an unsigned integer: {other:?}")),
        };
        let string = |value: &Value, what: &str| match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("{what} is not a string: {other:?}")),
        };
        let Value::Seq(pairs) = field("attrs")? else {
            return Err("`attrs` is not an array".to_string());
        };
        let attrs = pairs
            .iter()
            .map(|pair| match pair {
                Value::Seq(kv) if kv.len() == 2 => match &kv[1] {
                    Value::UInt(v) => Ok((string(&kv[0], "an attribute key")?, *v)),
                    other => Err(format!(
                        "an attribute value is not an unsigned integer: {other:?}"
                    )),
                },
                other => Err(format!(
                    "an attribute is not a [key, value] pair: {other:?}"
                )),
            })
            .collect::<Result<_, _>>()?;
        Ok(SpanRecord {
            id: uint("id")?,
            parent: uint("parent")?,
            name: string(field("name")?, "`name`")?,
            start_nanos: uint("start_nanos")?,
            end_nanos: uint("end_nanos")?,
            units: uint("units")?,
            attrs,
        })
    }
}

struct OpenSpan {
    record: SpanRecord,
    root: u64,
}

struct RecorderState {
    next_id: u64,
    open: HashMap<u64, OpenSpan>,
    /// Closed spans waiting for their root to close, keyed by root id.
    pending: HashMap<u64, Vec<SpanRecord>>,
    ring: VecDeque<SpanTree>,
    sealed_total: u64,
    recorded_total: u64,
    dropped_total: u64,
}

/// A bounded ring of recent sealed span trees.
///
/// All methods take `&self` (internal mutex); recording a span is one short
/// critical section, so shard threads can share a recorder, though the
/// drivers in this workspace record from their serial sections.
pub struct FlightRecorder {
    state: Mutex<RecorderState>,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` sealed trees.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            state: Mutex::new(RecorderState {
                next_id: 1,
                open: HashMap::new(),
                pending: HashMap::new(),
                ring: VecDeque::new(),
                sealed_total: 0,
                recorded_total: 0,
                dropped_total: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Opens a span. `parent` must be [`SpanId::ROOT`] or a currently-open
    /// span; a dangling parent is treated as root so a late caller cannot
    /// poison the recorder.
    pub fn begin(&self, name: &str, parent: SpanId, start_nanos: u64) -> SpanId {
        let mut state = self.state.lock().unwrap();
        let id = state.next_id;
        state.next_id += 1;
        let (parent, root) = match state.open.get(&parent.0) {
            Some(open) => (parent.0, open.root),
            None => (0, id),
        };
        state.open.insert(
            id,
            OpenSpan {
                record: SpanRecord {
                    id,
                    parent,
                    name: name.to_string(),
                    start_nanos,
                    end_nanos: start_nanos,
                    units: 0,
                    attrs: Vec::new(),
                },
                root,
            },
        );
        SpanId(id)
    }

    /// Attaches a numeric attribute to an open span (no-op if already closed).
    pub fn attr(&self, span: SpanId, key: &str, value: u64) {
        let mut state = self.state.lock().unwrap();
        if let Some(open) = state.open.get_mut(&span.0) {
            open.record.attrs.push((key.to_string(), value));
        }
    }

    /// Closes a span, recording its end time and work count. Closing a root
    /// span seals its tree into the ring (children still open are force-closed
    /// at the root's end time so every exported span is closed).
    pub fn end(&self, span: SpanId, end_nanos: u64, units: u64) {
        let mut state = self.state.lock().unwrap();
        let Some(mut open) = state.open.remove(&span.0) else {
            return;
        };
        open.record.end_nanos = end_nanos.max(open.record.start_nanos);
        open.record.units = units;
        let root = open.root;
        state.pending.entry(root).or_default().push(open.record);
        if root == span.0 {
            self.seal(&mut state, root, end_nanos);
        }
    }

    /// Records an already-measured span in one call (used when work is timed
    /// inside worker threads and reported serially afterwards).
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        start_nanos: u64,
        end_nanos: u64,
        units: u64,
        attrs: &[(&str, u64)],
    ) -> SpanId {
        let mut state = self.state.lock().unwrap();
        let id = state.next_id;
        state.next_id += 1;
        let (parent, root) = match state.open.get(&parent.0) {
            Some(open) => (parent.0, open.root),
            None => (0, id),
        };
        let record = SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_nanos,
            end_nanos: end_nanos.max(start_nanos),
            units,
            attrs: attrs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        };
        state.pending.entry(root).or_default().push(record);
        if root == id {
            // A parentless synthesized span is its own (already closed) tree.
            self.seal(&mut state, root, end_nanos);
        }
        SpanId(id)
    }

    fn seal(&self, state: &mut RecorderState, root: u64, end_nanos: u64) {
        // Force-close any children the caller forgot, so exported trees are
        // always fully closed.
        let stragglers: Vec<u64> = state
            .open
            .iter()
            .filter(|(_, open)| open.root == root)
            .map(|(id, _)| *id)
            .collect();
        for id in stragglers {
            let mut open = state.open.remove(&id).unwrap();
            open.record.end_nanos = end_nanos.max(open.record.start_nanos);
            state.pending.entry(root).or_default().push(open.record);
        }
        let mut spans = state.pending.remove(&root).unwrap_or_default();
        spans.sort_by_key(|span| span.id);
        state.recorded_total += spans.len() as u64;
        state.sealed_total += 1;
        state.ring.push_back(SpanTree { spans });
        // Ring overwrite is data loss, not a silent rotation: every evicted
        // sealed tree is tallied so exports can say how much history is gone.
        while state.ring.len() > self.capacity {
            state.ring.pop_front();
            state.dropped_total += 1;
        }
    }

    /// The sealed trees currently in the ring, oldest first.
    pub fn trees(&self) -> Vec<SpanTree> {
        self.state.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Total trees sealed over the run (including ones evicted from the ring).
    pub fn sealed_total(&self) -> u64 {
        self.state.lock().unwrap().sealed_total
    }

    /// Total spans recorded into sealed trees over the run.
    pub fn recorded_total(&self) -> u64 {
        self.state.lock().unwrap().recorded_total
    }

    /// Sealed trees evicted from the ring by capacity pressure — history the
    /// JSONL export can no longer show.
    pub fn dropped_total(&self) -> u64 {
        self.state.lock().unwrap().dropped_total
    }

    /// Exports the ring as JSONL: one [`SpanRecord::to_jsonl_line`] per line,
    /// trees in seal order, spans within a tree in id order.
    pub fn to_jsonl(&self) -> String {
        let state = self.state.lock().unwrap();
        let mut out = String::new();
        for tree in &state.ring {
            for span in &tree.spans {
                out.push_str(&span.to_jsonl_line());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_tree_seals_when_root_ends() {
        let recorder = FlightRecorder::new(8);
        let block = recorder.begin("block", SpanId::ROOT, 100);
        recorder.attr(block, "height", 7);
        let pack = recorder.begin("pack", block, 110);
        recorder.end(pack, 150, 40);
        let execute = recorder.begin("execute", block, 150);
        recorder.end(execute, 400, 900);
        assert_eq!(recorder.sealed_total(), 0);
        recorder.end(block, 500, 940);
        assert_eq!(recorder.sealed_total(), 1);

        let trees = recorder.trees();
        assert_eq!(trees.len(), 1);
        let spans = &trees[0].spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "block");
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[0].attrs, vec![("height".to_string(), 7)]);
        assert_eq!(spans[1].name, "pack");
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].wall_nanos(), 40);
        assert_eq!(spans[2].units, 900);
    }

    #[test]
    fn ring_is_bounded() {
        let recorder = FlightRecorder::new(2);
        for height in 0..5u64 {
            let block = recorder.begin("block", SpanId::ROOT, height * 10);
            recorder.attr(block, "height", height);
            recorder.end(block, height * 10 + 5, 1);
        }
        assert_eq!(recorder.sealed_total(), 5);
        let trees = recorder.trees();
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].spans[0].attrs[0].1, 3);
        assert_eq!(trees[1].spans[0].attrs[0].1, 4);
    }

    #[test]
    fn ring_overflow_counts_dropped_trees() {
        let recorder = FlightRecorder::new(3);
        assert_eq!(recorder.dropped_total(), 0);
        for height in 0..10u64 {
            let block = recorder.begin("block", SpanId::ROOT, height * 10);
            recorder.end(block, height * 10 + 5, 1);
        }
        // 10 sealed, 3 retained: exactly 7 trees were overwritten, and the
        // loss is visible rather than silent.
        assert_eq!(recorder.sealed_total(), 10);
        assert_eq!(recorder.trees().len(), 3);
        assert_eq!(recorder.dropped_total(), 7);
        assert_eq!(
            recorder.sealed_total() - recorder.dropped_total(),
            recorder.trees().len() as u64
        );
    }

    #[test]
    fn tree_accessors_resolve_roots_children_and_attrs() {
        let recorder = FlightRecorder::new(4);
        let block = recorder.begin("block", SpanId::ROOT, 0);
        recorder.attr(block, "height", 9);
        let pack = recorder.begin("pack", block, 5);
        recorder.attr(pack, "txs", 3);
        recorder.end(pack, 15, 3);
        recorder.record("shard", block, 15, 40, 7, &[("shard", 2)]);
        recorder.end(block, 50, 10);

        let trees = recorder.trees();
        let tree = &trees[0];
        assert_eq!(tree.root().name, "block");
        assert_eq!(tree.root_attr("height"), Some(9));
        assert_eq!(tree.root_attr("missing"), None);
        let children: Vec<&str> = tree
            .children_of(tree.root().id)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(children, vec!["pack", "shard"]);
        let shard = tree.spans.iter().find(|s| s.name == "shard").unwrap();
        assert_eq!(shard.attr("shard"), Some(2));
        assert_eq!(tree.span(shard.id).unwrap().units, 7);
    }

    #[test]
    fn stragglers_are_force_closed_at_seal() {
        let recorder = FlightRecorder::new(4);
        let block = recorder.begin("block", SpanId::ROOT, 0);
        let _leaked = recorder.begin("store", block, 10);
        recorder.end(block, 100, 5);
        let trees = recorder.trees();
        let straggler = &trees[0].spans[1];
        assert_eq!(straggler.name, "store");
        assert_eq!(straggler.end_nanos, 100);
    }

    #[test]
    fn synthesized_spans_join_open_parents() {
        let recorder = FlightRecorder::new(4);
        let block = recorder.begin("block", SpanId::ROOT, 0);
        recorder.record("shard", block, 5, 25, 60, &[("shard", 3)]);
        recorder.record("shard", block, 5, 30, 80, &[("shard", 1)]);
        recorder.end(block, 40, 140);
        let trees = recorder.trees();
        assert_eq!(trees[0].spans.len(), 3);
        assert!(trees[0].spans[1..]
            .iter()
            .all(|s| s.parent == trees[0].spans[0].id));
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let recorder = FlightRecorder::new(4);
        let block = recorder.begin("block", SpanId::ROOT, 0);
        let pack = recorder.begin("pack", block, 1);
        recorder.end(pack, 9, 3);
        recorder.end(block, 10, 3);
        let jsonl = recorder.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let span = SpanRecord::from_jsonl_line(line).unwrap();
            assert!(span.end_nanos >= span.start_nanos);
        }
    }

    #[test]
    fn malformed_jsonl_lines_are_rejected() {
        let line = SpanRecord {
            id: 1,
            parent: 0,
            name: "block".to_string(),
            start_nanos: 0,
            end_nanos: 1,
            units: 0,
            attrs: vec![("height".to_string(), 7)],
        }
        .to_jsonl_line();
        for bad in [
            "not json",
            &line.replace("\"units\":0,", ""),
            &line.replace("\"id\":1", "\"id\":-1"),
            &line.replace("\"name\":\"block\"", "\"name\":7"),
            &line.replace("[\"height\",7]", "[\"height\"]"),
            &line.replace("[\"height\",7]", "[\"height\",7.5]"),
        ] {
            assert!(SpanRecord::from_jsonl_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn dangling_parent_degrades_to_root() {
        let recorder = FlightRecorder::new(4);
        let span = recorder.begin("orphan", SpanId(999), 0);
        recorder.end(span, 10, 1);
        let trees = recorder.trees();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].spans[0].parent, 0);
    }
}
