//! Serializable end-of-run telemetry summaries.
//!
//! A [`TelemetrySnapshot`] is what a driver folds into its run report and what
//! `benchmark/` reads its per-stage wall sums from. Snapshots from different shards
//! or nodes [`merge`](TelemetrySnapshot::merge) associatively and
//! commutatively: counters add, histograms add bucket-wise, and entries are
//! keyed by name so disjoint snapshots union cleanly.

use crate::hist::HistogramSnapshot;

/// Wall-clock and count histograms for one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// Stage name (`"pack"`, `"execute"`, ...).
    pub stage: String,
    /// Per-block wall-clock nanoseconds for the stage.
    pub wall_nanos: HistogramSnapshot,
    /// Per-block count of the stage's own work (transactions executed,
    /// records committed, ...).
    pub units: HistogramSnapshot,
}

/// A named monotonically-increasing counter value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Counter name (`"mempool_admitted"`, `"journal_bytes"`, ...).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A named value-distribution histogram (queue depths, sizes, latencies in
/// blocks — anything that is not a per-stage timing).
#[derive(Debug, Clone, PartialEq)]
pub struct DistSnapshot {
    /// Distribution name (`"ingest_queue_depth"`, `"commit_bytes"`, ...).
    pub name: String,
    /// The sampled distribution.
    pub dist: HistogramSnapshot,
}

/// A point-in-time summary of everything a [`TelemetryRegistry`] collected.
///
/// [`TelemetryRegistry`]: crate::TelemetryRegistry
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-stage wall/unit histograms, ascending by stage name.
    pub stages: Vec<StageSnapshot>,
    /// Counters, ascending by name. Zero-valued counters are omitted.
    pub counters: Vec<CounterSnapshot>,
    /// Value distributions, ascending by name. Empty ones are omitted.
    pub dists: Vec<DistSnapshot>,
    /// Spans recorded into sealed flight-recorder trees.
    pub spans_recorded: u64,
    /// Root span trees sealed (≈ blocks traced).
    pub blocks_sealed: u64,
    /// Sealed trees evicted from the flight-recorder ring — history that
    /// exports can no longer show. Non-zero means the ring was too small for
    /// the run.
    pub trees_dropped: u64,
}

impl TelemetrySnapshot {
    /// Looks up a stage snapshot by name.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Looks up a counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Looks up a distribution by name.
    pub fn dist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.dists.iter().find(|d| d.name == name).map(|d| &d.dist)
    }

    /// Folds `other` into `self`: same-name entries combine (counters add,
    /// histograms merge), unmatched entries are inserted in name order.
    /// Associative and commutative — property-tested in
    /// `tests/histogram_props.rs` — so per-shard snapshots fold in any order.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for stage in &other.stages {
            match self.stages.binary_search_by(|s| s.stage.cmp(&stage.stage)) {
                Ok(i) => {
                    self.stages[i].wall_nanos.merge(&stage.wall_nanos);
                    self.stages[i].units.merge(&stage.units);
                }
                Err(i) => self.stages.insert(i, stage.clone()),
            }
        }
        for counter in &other.counters {
            match self
                .counters
                .binary_search_by(|c| c.name.cmp(&counter.name))
            {
                Ok(i) => self.counters[i].value += counter.value,
                Err(i) => self.counters.insert(i, counter.clone()),
            }
        }
        for dist in &other.dists {
            match self.dists.binary_search_by(|d| d.name.cmp(&dist.name)) {
                Ok(i) => self.dists[i].dist.merge(&dist.dist),
                Err(i) => self.dists.insert(i, dist.clone()),
            }
        }
        self.spans_recorded += other.spans_recorded;
        self.blocks_sealed += other.blocks_sealed;
        self.trees_dropped += other.trees_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn snap(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn merge_unions_by_name() {
        let mut a = TelemetrySnapshot {
            stages: vec![StageSnapshot {
                stage: "pack".into(),
                wall_nanos: snap(&[10, 20]),
                units: snap(&[1, 2]),
            }],
            counters: vec![CounterSnapshot {
                name: "mempool_admitted".into(),
                value: 5,
            }],
            dists: vec![],
            spans_recorded: 3,
            blocks_sealed: 1,
            trees_dropped: 1,
        };
        let b = TelemetrySnapshot {
            stages: vec![
                StageSnapshot {
                    stage: "execute".into(),
                    wall_nanos: snap(&[100]),
                    units: snap(&[50]),
                },
                StageSnapshot {
                    stage: "pack".into(),
                    wall_nanos: snap(&[30]),
                    units: snap(&[3]),
                },
            ],
            counters: vec![CounterSnapshot {
                name: "mempool_admitted".into(),
                value: 7,
            }],
            dists: vec![DistSnapshot {
                name: "commit_bytes".into(),
                dist: snap(&[4_096]),
            }],
            spans_recorded: 4,
            blocks_sealed: 2,
            trees_dropped: 2,
        };
        a.merge(&b);
        assert_eq!(a.stages.len(), 2);
        assert_eq!(a.stages[0].stage, "execute");
        assert_eq!(a.stage("pack").unwrap().wall_nanos.count, 3);
        assert_eq!(a.counter("mempool_admitted"), 12);
        assert_eq!(a.dist("commit_bytes").unwrap().count, 1);
        assert_eq!(a.spans_recorded, 7);
        assert_eq!(a.blocks_sealed, 3);
        assert_eq!(a.trees_dropped, 3);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = TelemetrySnapshot {
            counters: vec![CounterSnapshot {
                name: "tdg_ops".into(),
                value: 9,
            }],
            ..TelemetrySnapshot::default()
        };
        let before = a.clone();
        a.merge(&TelemetrySnapshot::default());
        assert_eq!(a, before);

        let mut empty = TelemetrySnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
