//! The metric tables: every name the benchmark prints, with unit and direction.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `tables_match_benchmark_json` test keeps the two from drifting apart.

use std::collections::BTreeMap;

/// Name, unit, better.
pub type Def = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Printed with `--trace 0`, every one on every
/// workload, never 0.
pub const END_TO_END: [Def; 5] = [
    ("tx_per_s", "tx/s", "higher"),
    ("replay_tx_per_s", "tx/s", "higher"),
    ("replay_block_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Single layers. Printed with `--trace 1`, every one on every workload; a
/// metric that does not apply to a workload's layout reads 0.
pub const PER_LAYER: [Def; 78] = [
    // pipeline: pool
    ("pool.offer_ns_per_tx", "ns/tx", "lower"),
    ("pool.settle_ns_per_tx", "ns/tx", "lower"),
    ("pool.offered", "count", "lower"),
    ("pool.admitted", "count", "higher"),
    ("pool.replaced", "count", "lower"),
    ("pool.rejected", "count", "lower"),
    ("pool.evicted", "count", "lower"),
    ("pool.len_max", "count", "lower"),
    // pipeline: incremental TDG
    ("itdg.insert_ns_per_tx", "ns/tx", "lower"),
    ("itdg.remove_ns_per_tx", "ns/tx", "lower"),
    ("itdg.op_units_per_tx", "units/tx", "lower"),
    ("itdg.compactions", "count", "lower"),
    ("itdg.largest_component_share", "ratio", "lower"),
    // pipeline: packer
    ("packer.pack_ns_per_tx", "ns/tx", "lower"),
    ("packer.pack_ms_p95", "ms", "lower"),
    ("packer.considered_per_packed", "ratio", "lower"),
    ("packer.deferred_by_cap", "count", "lower"),
    ("packer.blocks", "count", "lower"),
    // execution
    ("execution.execute_ns_per_tx", "ns/tx", "lower"),
    ("execution.execute_ms_p95", "ms", "lower"),
    ("execution.validations_per_tx", "1/tx", "lower"),
    ("execution.aborts_per_tx", "1/tx", "lower"),
    ("execution.re_executions_per_tx", "1/tx", "lower"),
    ("execution.useful_share", "ratio", "higher"),
    ("execution.delta_merges_per_tx", "1/tx", "higher"),
    ("execution.sequential_fallbacks", "count", "lower"),
    ("execution.conflict_rate", "ratio", "lower"),
    ("execution.group_conflict_rate", "ratio", "lower"),
    ("execution.model_speedup", "ratio", "higher"),
    ("execution.speedup_vs_sequential", "ratio", "higher"),
    ("execution.ladder.sequential.ns_per_tx", "ns/tx", "lower"),
    ("execution.ladder.scheduled.ns_per_tx", "ns/tx", "lower"),
    ("execution.ladder.speculative.ns_per_tx", "ns/tx", "lower"),
    ("execution.ladder.optimistic.ns_per_tx", "ns/tx", "lower"),
    (
        "execution.ladder.optimistic-delta.ns_per_tx",
        "ns/tx",
        "lower",
    ),
    ("execution.replay_block_ms_p95", "ms", "lower"),
    // account
    ("account.fund_ns_per_tx", "ns/tx", "lower"),
    ("account.state_root_ms", "ms", "lower"),
    // store
    ("store.commit_ns_per_tx", "ns/tx", "lower"),
    ("store.commit_ms_p50", "ms", "lower"),
    ("store.commit_ms_p95", "ms", "lower"),
    ("store.journal_bytes_per_tx", "B/tx", "lower"),
    ("store.backend_reads_per_tx", "1/tx", "lower"),
    ("store.group_flushes", "count", "lower"),
    ("store.snapshots_written", "count", "lower"),
    ("store.reopen_ms", "ms", "lower"),
    ("store.disk_bytes_per_tx", "B/tx", "lower"),
    // shardpool
    ("shardpool.ingest_ns_per_tx", "ns/tx", "lower"),
    ("shardpool.pack_ns_per_tx", "ns/tx", "lower"),
    ("shardpool.migrated_chains", "count", "lower"),
    ("shardpool.rebalances", "count", "lower"),
    ("shardpool.shard_len_skew", "ratio", "lower"),
    // cluster
    ("cluster.critical_units_per_tx", "units/tx", "lower"),
    ("cluster.cross_shard_share", "ratio", "lower"),
    ("cluster.receipts_applied", "count", "lower"),
    ("cluster.receipt_latency_blocks", "blocks", "lower"),
    ("cluster.rehomed_components", "count", "lower"),
    ("cluster.moved_accounts", "count", "lower"),
    // telemetry cross-check: the drivers' own stage clocks
    ("driver.stage.ingest.ns_per_tx", "ns/tx", "lower"),
    ("driver.stage.pack.ns_per_tx", "ns/tx", "lower"),
    ("driver.stage.execute.ns_per_tx", "ns/tx", "lower"),
    ("driver.stage.store.ns_per_tx", "ns/tx", "lower"),
    ("driver.stage.merge.ns_per_tx", "ns/tx", "lower"),
    ("driver.stage.rehome.ns_per_tx", "ns/tx", "lower"),
    ("driver.trace_overhead_share", "ratio", "lower"),
    ("driver.unattributed_share", "ratio", "lower"),
    ("driver.failed_share", "ratio", "lower"),
    // chainsim
    ("chainsim.gen_ns_per_tx", "ns/tx", "lower"),
    // layer shares of the traced reference loop's wall (self time)
    ("share.pool", "ratio", "lower"),
    ("share.itdg", "ratio", "lower"),
    ("share.packer", "ratio", "lower"),
    ("share.execution", "ratio", "lower"),
    ("share.account", "ratio", "lower"),
    ("share.store", "ratio", "lower"),
    ("share.block", "ratio", "lower"),
    ("share.attributed", "ratio", "higher"),
    // sample counts behind the percentiles above
    ("samples.blocks", "count", "higher"),
    ("samples.passes", "count", "higher"),
];

/// The values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The run's metrics in table order; a name the run did not set reads 0.
    ///
    /// # Panics
    ///
    /// Panics if the run set a name the table does not list: that is a bug in the
    /// benchmark, and the contract would silently drop the value.
    pub fn in_table_order(&self, table: &[Def]) -> Vec<(Def, f64)> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(listed, _, _)| listed == name),
                "metric {name} is not in the table"
            );
        }
        table
            .iter()
            .map(|def| (*def, self.0.get(def.0).copied().unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` of one array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = |table: &[Def]| -> Vec<String> {
            table.iter().map(|(name, _, _)| name.to_string()).collect()
        };
        assert_eq!(names_in(&json, "end_to_end"), listed(&END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), listed(&PER_LAYER));
        let workloads: Vec<String> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["higher", "lower"].contains(better));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut values = Values::default();
        values.set("setup_s", 1.5);
        let rows = values.in_table_order(&END_TO_END);
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[4], (END_TO_END[4], 1.5));
        assert_eq!(rows[0].1, 0.0);
    }
}
