//! Benchmark-owned spans: one in-memory record per layer call-batch per block,
//! written out as JSONL when the run ends.
//!
//! The spans are recorded from this package, around the calls into each layer's
//! public functions — nothing inside the measured crates is instrumented.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One recorded span. `name` is `<layer>.<call>`; the part before the dot is the
/// layer the span's self time is charged to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based; `parent` refers to it.
    pub id: u64,
    pub parent: u64,
    /// Block height the span belongs to (0 outside any block).
    pub block: u64,
    /// Work items the span covered (transactions, unless the name says otherwise).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer (module) this span's self time belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its id; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: u64, block: u64) -> u64 {
        let start_ns = self.now();
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            id,
            parent,
            block,
            count: 0,
        });
        id
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u64, count: u64) {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Records a finished child of `parent` that started at `start_ns` and ends
    /// now. Returns the end time, so back-to-back spans share one clock read.
    pub fn leaf(&mut self, name: &'static str, parent: u64, start_ns: u64, count: u64) -> u64 {
        let end_ns = self.now();
        let block = self.spans[parent as usize - 1].block;
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            block,
            count,
        });
        end_ns
    }

    pub fn as_slice(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as JSONL, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"block\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.block, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, aligned with `spans`: the span's duration minus the
/// part of its interval that its child spans cover (overlapping children are
/// counted once; a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span log.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub self_ns: u64,
    pub count: u64,
    /// Duration of each span of this name, in milliseconds.
    pub durations_ms: Vec<f64>,
}

/// Aggregates self time, work count and per-span durations by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(s.name).or_default();
        entry.self_ns += self_ns;
        entry.count += s.count;
        entry.durations_ms.push(s.duration_ns() as f64 / 1e6);
    }
    out
}

/// Self time per layer (the span-name prefix), in nanoseconds.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        *out.entry(s.layer()).or_default() += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            block: 1,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("block.loop", 1, ROOT, 0, 100),
            span("pool.offer", 2, 1, 10, 30),
            span("itdg.apply", 3, 1, 30, 50),
            // Overlaps its sibling: the shared 10 ns are covered once.
            span("packer.pack", 4, 1, 40, 70),
            // Grandchild: only reduces its own parent.
            span("store.journal", 5, 4, 50, 60),
            // Sticks out of the parent: clipped to it.
            span("store.commit", 6, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        // Block: 100 − ([10,70) ∪ [90,100)) = 100 − 70 = 30.
        assert_eq!(selfs, vec![30, 20, 20, 20, 10, 30]);
        let layers = self_ns_by_layer(&spans);
        assert_eq!(layers["store"], 40);
        assert_eq!(layers["block"], 30);
        assert_eq!(layers["packer"], 20);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut log = Spans::new();
        let block = log.begin("block.loop", ROOT, 7);
        let t0 = log.now();
        let t1 = log.leaf("pool.offer", block, t0, 5);
        log.leaf("itdg.apply", block, t1, 5);
        log.end(block, 5);
        let spans = log.as_slice();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].block, 7);
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let selfs = self_times(spans);
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        assert_eq!(totals_by_name(spans)["pool.offer"].count, 5);
    }
}
