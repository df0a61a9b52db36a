//! One workload run: set-up, warm-up, the measured rounds (`--trace 0`) or the
//! traced passes (`--trace 1`), and the correctness gate.
//!
//! A run returns `Err` — and the process prints no result — unless every
//! output it can check is correct.

use crate::host::{self, ScratchDir};
use crate::measure::{self, Oracle, Produced, Replayed, Report};
use crate::metrics::Values;
use crate::reference::{self, Reference};
use crate::spans::{self, Spans};
use crate::stats;
use crate::workload::{Inputs, Layout, Workload, WARMUP_DIVISOR};
use blockconc::execution::ExecutionReport;
use blockconc::telemetry::TelemetryRegistry;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of `--seconds` a traced run spends repeating the reference loop; the
/// rest is left for the single-pass measurements that follow it.
const TRACED_PASS_SHARE: f64 = 0.4;

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Fresh (non-rebid) arrivals offered over the measured producer runs.
    pub attempted: u64,
    /// Of those, the ones not committed with a success receipt at the end.
    pub failed: u64,
    pub values: Values,
}

fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate: {}", what()))
    }
}

/// Step 1, once: materialise the arrivals, build the base state, construct the
/// engine (the parallel engines spawn their thread pool) and create the store
/// directory. Returns the inputs and the wall.
fn set_up(workload: &Workload, seed: u64, out: &Path) -> Result<(Inputs, f64), String> {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, seed);
    let engine = workload.build_engine();
    let store = ScratchDir::create(out, "setup")?;
    let wall = started.elapsed().as_secs_f64();
    drop((engine, store));
    Ok((inputs, wall))
}

/// Fresh arrivals a drained producer run left uncommitted: failed receipt,
/// evicted, rejected, or still pooled at the safety cap. Every committed
/// transaction is a distinct `(sender, nonce)`, hence one fresh arrival.
fn uncommitted(inputs: &Inputs, report: &Report) -> u64 {
    let committed = report.packed() - report.failed_receipts();
    inputs.fresh.saturating_sub(committed) as u64
}

/// The checks every producer run must pass.
fn check_produced(
    inputs: &Inputs,
    reference: &Reference,
    produced: &Produced,
) -> Result<(), String> {
    let report = &produced.report;
    gate(
        measure::pool_conserved(&report.pool_stats(), report.leftover()),
        || format!("pool conservation broken: {:?}", report.pool_stats()),
    )?;
    match report {
        // The reference loop performs the single-pool driver's exact sequence.
        Report::Pipeline(r) => gate(r.final_state_root == reference.state_root, || {
            format!(
                "producer root {} != reference-loop root {}",
                r.final_state_root, reference.state_root
            )
        }),
        // The sharded pool packs other blocks; once drained, the same
        // transactions have committed, so the state must be the same.
        Report::Shardpool(r) => gate(
            uncommitted(inputs, report) > 0 || r.run.final_state_root == reference.state_root,
            || "drained shardpool root != reference-loop root".to_string(),
        ),
        Report::Cluster(r) => {
            let expected = inputs.base.total_supply().sats() + inputs.funding_sats();
            gate(r.total_supply_sats == expected, || {
                format!(
                    "cluster supply {} != base + funding {expected}",
                    r.total_supply_sats
                )
            })
        }
    }
}

/// The reference loop in a scratch store, plus the checks on its own output.
fn reference_pass(
    workload: &Workload,
    inputs: &Inputs,
    out: &Path,
    spans: &mut Spans,
) -> Result<Reference, String> {
    let store = ScratchDir::create(out, "reference")?;
    let reference = reference::run(workload, inputs, store.path(), spans)?;
    gate(
        measure::pool_conserved(&reference.pool, reference.pool_leftover),
        || format!("reference pool conservation broken: {:?}", reference.pool),
    )?;
    Ok(reference)
}

/// The sequential oracle over the reference loop's blocks, held against the
/// reference loop's own root.
fn sequential_oracle(inputs: &Inputs, reference: &Reference) -> Result<Oracle, String> {
    let oracle = measure::oracle(inputs, &reference.blocks)?;
    gate(oracle.state_root == reference.state_root, || {
        format!(
            "sequential replay root {} != reference-loop root {}",
            oracle.state_root, reference.state_root
        )
    })?;
    Ok(oracle)
}

fn check_replayed(replayed: &Replayed, oracle_root: &str) -> Result<(), String> {
    gate(replayed.state_root == oracle_root, || {
        format!(
            "replay root {} != sequential root {oracle_root}",
            replayed.state_root
        )
    })
}

/// Sets every metric that comes from the traced reference passes: span self
/// times per layer call and the last pass's counts (which repeat exactly for a
/// seed). Returns the layers' self time per pass, in nanoseconds.
fn reference_values(
    values: &mut Values,
    reference: &Reference,
    log: &Spans,
    passes: u64,
    traced_wall_ns: u64,
) -> f64 {
    let txs = reference
        .blocks
        .iter()
        .map(|b| b.transaction_count())
        .sum::<usize>() as f64;
    let per_tx = |n: f64| n / txs.max(1.0);
    let by_name = spans::totals_by_name(log.as_slice());
    let ns_per_item = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64)
    };
    let p50 = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |t| stats::median(&t.durations_ms))
    };
    let p95 = |name: &str| {
        by_name
            .get(name)
            .and_then(|t| stats::percentile_if_supported(&t.durations_ms, stats::P95))
            .unwrap_or(0.0)
    };

    values.set("pool.offer_ns_per_tx", ns_per_item("pool.offer"));
    values.set("pool.settle_ns_per_tx", ns_per_item("pool.settle"));
    values.set("pool.offered", reference.offered as f64);
    values.set("pool.admitted", reference.pool.admitted as f64);
    values.set("pool.replaced", reference.pool.replaced as f64);
    values.set("pool.rejected", reference.rejected as f64);
    values.set("pool.evicted", reference.pool.evicted as f64);
    values.set("pool.len_max", reference.pool_len_max as f64);

    values.set("itdg.insert_ns_per_tx", ns_per_item("itdg.insert"));
    values.set("itdg.remove_ns_per_tx", ns_per_item("itdg.remove"));
    values.set(
        "itdg.op_units_per_tx",
        per_tx(reference.itdg_op_units as f64),
    );
    values.set("itdg.compactions", reference.itdg_compactions as f64);
    values.set(
        "itdg.largest_component_share",
        reference.itdg_largest_component_share,
    );

    values.set("packer.pack_ns_per_tx", ns_per_item("packer.pack"));
    values.set("packer.pack_ms_p95", p95("packer.pack"));
    values.set(
        "packer.considered_per_packed",
        per_tx(reference.pack_considered as f64),
    );
    values.set(
        "packer.deferred_by_cap",
        reference.pack_deferred_by_cap as f64,
    );
    values.set("packer.blocks", reference.blocks.len() as f64);

    let sum = |f: fn(&ExecutionReport) -> u64| reference.exec.iter().map(f).sum::<u64>() as f64;
    let re_executions = sum(|r| r.re_executions);
    values.set(
        "execution.execute_ns_per_tx",
        ns_per_item("execution.execute"),
    );
    values.set("execution.execute_ms_p95", p95("execution.execute"));
    values.set(
        "execution.validations_per_tx",
        per_tx(sum(|r| r.validations)),
    );
    values.set("execution.aborts_per_tx", per_tx(sum(|r| r.aborts)));
    values.set("execution.re_executions_per_tx", per_tx(re_executions));
    values.set(
        "execution.useful_share",
        txs / (txs + re_executions).max(1.0),
    );
    values.set(
        "execution.delta_merges_per_tx",
        per_tx(sum(|r| r.delta_merges)),
    );
    values.set(
        "execution.sequential_fallbacks",
        sum(|r| r.sequential_fallbacks),
    );

    values.set("account.fund_ns_per_tx", ns_per_item("account.fund"));
    values.set("account.state_root_ms", p50("account.state_root"));

    values.set("store.commit_ns_per_tx", ns_per_item("store.commit"));
    values.set("store.commit_ms_p50", p50("store.commit"));
    values.set("store.commit_ms_p95", p95("store.commit"));
    values.set(
        "store.journal_bytes_per_tx",
        per_tx(reference.journal_bytes as f64),
    );
    values.set(
        "store.backend_reads_per_tx",
        per_tx(reference.store.backend_reads as f64),
    );
    values.set("store.group_flushes", reference.store.group_flushes as f64);
    values.set(
        "store.snapshots_written",
        reference.store.snapshots_written as f64,
    );

    // Layer shares: self time over the wall of the traced passes.
    let layers = spans::self_ns_by_layer(log.as_slice());
    let wall_ns = (traced_wall_ns as f64).max(1.0);
    let mut layer_ns = 0u64;
    for (layer, metric) in [
        ("pool", "share.pool"),
        ("itdg", "share.itdg"),
        ("packer", "share.packer"),
        ("execution", "share.execution"),
        ("account", "share.account"),
        ("store", "share.store"),
    ] {
        let ns = layers.get(layer).copied().unwrap_or(0);
        layer_ns += ns;
        values.set(metric, ns as f64 / wall_ns);
    }
    let block_ns = layers.get("block").copied().unwrap_or(0);
    values.set("share.block", block_ns as f64 / wall_ns);
    values.set("share.attributed", (layer_ns + block_ns) as f64 / wall_ns);
    values.set("samples.passes", passes as f64);
    values.set(
        "samples.blocks",
        (reference.blocks.len() as u64 * passes) as f64,
    );
    layer_ns as f64 / passes as f64
}

/// Sets the metrics read off the sharded and cluster run reports.
fn layout_values(values: &mut Values, report: &Report) {
    match report {
        Report::Pipeline(_) => {}
        Report::Shardpool(r) => {
            values.set("shardpool.migrated_chains", r.migrated_chains as f64);
            values.set("shardpool.rebalances", r.rebalances as f64);
            // Block mean of the fullest shard over the mean shard.
            let skews: Vec<f64> = r
                .phases
                .iter()
                .filter(|phase| phase.shard_lens.iter().any(|&len| len > 0))
                .map(|phase| {
                    let max = *phase.shard_lens.iter().max().expect("shards") as f64;
                    let mean = phase.shard_lens.iter().sum::<usize>() as f64
                        / phase.shard_lens.len() as f64;
                    max / mean
                })
                .collect();
            values.set(
                "shardpool.shard_len_skew",
                skews.iter().sum::<f64>() / skews.len().max(1) as f64,
            );
        }
        Report::Cluster(r) => {
            values.set(
                "cluster.critical_units_per_tx",
                r.total_units() as f64 / r.total_txs.max(1) as f64,
            );
            values.set("cluster.cross_shard_share", r.cross_shard_fraction());
            values.set("cluster.receipts_applied", r.receipts_applied as f64);
            values.set("cluster.receipt_latency_blocks", r.mean_receipt_latency());
            values.set("cluster.rehomed_components", r.rehomed_components as f64);
            values.set("cluster.moved_accounts", r.moved_accounts as f64);
        }
    }
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Outcome, String> {
    let (inputs, first_set_up) = set_up(workload, seed, out)?;
    // `setup_s` is the median of this set-up and one more before every measured
    // round, so that the samples spread over the whole run.
    let mut setup_walls = vec![first_set_up];

    // The reference loop yields the blocks to replay and the root every
    // single-pool producer run must reach; a sequential replay is the oracle
    // both are held to.
    let reference = reference_pass(workload, &inputs, out, &mut Spans::new())?;
    let oracle = sequential_oracle(&inputs, &reference)?;

    // Warm-up: a short stream through the same driver layout, discarded.
    {
        let store = ScratchDir::create(out, "warmup")?;
        let total = (workload.arrivals / WARMUP_DIVISOR).max(1);
        measure::produce(
            workload,
            seed,
            total,
            store.path(),
            TelemetryRegistry::disabled(),
        )?;
    }

    let mut tx_per_s = Vec::new();
    let mut replay_tx_per_s = Vec::new();
    let mut replay_block_ms_p50 = Vec::new();
    let mut block_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        setup_walls.push(set_up(workload, seed, out)?.1);

        let store = ScratchDir::create(out, "produce")?;
        let produced = measure::produce(
            workload,
            seed,
            workload.arrivals,
            store.path(),
            TelemetryRegistry::disabled(),
        )?;
        check_produced(&inputs, &reference, &produced)?;
        let lost = uncommitted(&inputs, &produced.report);
        attempted += inputs.fresh as u64;
        failed += lost;
        let committed = inputs.fresh as u64 - lost;
        tx_per_s.push(committed as f64 / (produced.net_ns() as f64 / 1e9));
        if workload.disk {
            let (_, recovered) = measure::reopen(store.path())?;
            gate(recovered == reference.state_root, || {
                format!("reopened store root {recovered} != run root")
            })?;
        }
        drop(store);

        let store = ScratchDir::create(out, "replay")?;
        let replayed = measure::replay(
            &inputs,
            &reference.blocks,
            workload.engine,
            &workload.backend(store.path()),
        )?;
        check_replayed(&replayed, &oracle.state_root)?;
        replay_tx_per_s.push(replayed.txs as f64 / (replayed.total_ns() as f64 / 1e9));
        let round_ms: Vec<f64> = replayed
            .block_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        replay_block_ms_p50.push(stats::median(&round_ms));
        block_ms.extend(round_ms);

        if Instant::now() >= deadline {
            break;
        }
    }

    // The host only ever disturbs a round towards slower (other tenants of the
    // machine take cycles; nothing gives them back), and on the sandbox this was
    // written on it does so for seconds at a time, moving the median of a run's
    // rounds by a fifth. The fastest round is what the code costs when the host
    // leaves it alone, and it repeats (see README, "Repeatability study").
    let fastest = |rounds: &[f64]| rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let quickest = |rounds: &[f64]| rounds.iter().copied().fold(f64::INFINITY, f64::min);
    let mut values = Values::default();
    values.set("tx_per_s", fastest(&tx_per_s));
    values.set("replay_tx_per_s", fastest(&replay_tx_per_s));
    values.set("replay_block_ms_p50", quickest(&replay_block_ms_p50));
    values.set("peak_rss_mb", host::peak_rss_mib()?);
    values.set("setup_s", stats::median(&setup_walls));

    eprintln!("[{}] rounds setup_s {setup_walls:.4?}", workload.name);
    eprintln!("[{}] rounds tx_per_s {tx_per_s:.0?}", workload.name);
    eprintln!(
        "[{}] rounds replay_tx_per_s {replay_tx_per_s:.0?}",
        workload.name
    );
    eprintln!(
        "[{}] rounds replay_block_ms_p50 {replay_block_ms_p50:.4?}",
        workload.name
    );
    let mut sorted = block_ms;
    stats::sort(&mut sorted);
    eprintln!(
        "[{}] replay block time over all {} blocks: p50 {:.3} ms{}",
        workload.name,
        sorted.len(),
        stats::percentile(&sorted, 500),
        stats::highest_supported(sorted.len()).map_or(String::new(), |p| format!(
            ", p{} {:.3} ms",
            p as f64 / 10.0,
            stats::percentile(&sorted, p)
        )),
    );
    Ok(Outcome {
        attempted,
        failed,
        values,
    })
}

/// `--trace 1`: the per-layer metrics, and the span file.
pub fn per_layer(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
    span_file: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let (inputs, _) = set_up(workload, seed, out)?;
    let mut values = Values::default();

    // Traced passes of the reference loop, all into one span log.
    let mut log = Spans::new();
    let (mut passes, mut traced_wall_ns) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * TRACED_PASS_SHARE);
    let reference = loop {
        let pass = reference_pass(workload, &inputs, out, &mut log)?;
        passes += 1;
        traced_wall_ns += pass.wall_ns;
        if Instant::now() >= deadline {
            break pass;
        }
    };
    log.write_jsonl(span_file)
        .map_err(|err| format!("write {}: {err}", span_file.display()))?;
    let layer_ns_per_pass = reference_values(&mut values, &reference, &log, passes, traced_wall_ns);
    let oracle = sequential_oracle(&inputs, &reference)?;
    values.set("execution.conflict_rate", oracle.conflict_rate);
    values.set("execution.group_conflict_rate", oracle.group_conflict_rate);
    // Equation 2 of the paper at two cores.
    values.set(
        "execution.model_speedup",
        blockconc::model::group_speedup(oracle.group_conflict_rate.clamp(0.0, 1.0), 2),
    );

    // Producer runs with the registry disabled and enabled: the drivers' own stage
    // clocks, the cost of tracing, and the driver cost no span explains.
    let produce = |telemetry: TelemetryRegistry| -> Result<(Produced, ScratchDir), String> {
        let store = ScratchDir::create(out, "produce")?;
        let produced =
            measure::produce(workload, seed, workload.arrivals, store.path(), telemetry)?;
        check_produced(&inputs, &reference, &produced)?;
        Ok((produced, store))
    };
    let (plain, plain_store) = produce(TelemetryRegistry::disabled())?;
    let lost = uncommitted(&inputs, &plain.report);
    let committed = (inputs.fresh as u64 - lost) as f64;
    values.set(
        "driver.failed_share",
        lost as f64 / inputs.fresh.max(1) as f64,
    );
    values.set(
        "chainsim.gen_ns_per_tx",
        plain.gen_ns as f64 / workload.arrivals as f64,
    );
    layout_values(&mut values, &plain.report);
    if workload.disk {
        let bytes = host::dir_bytes(plain_store.path()).map_err(|e| e.to_string())?;
        values.set("store.disk_bytes_per_tx", bytes as f64 / committed.max(1.0));
        let (reopen_ms, recovered) = measure::reopen(plain_store.path())?;
        gate(recovered == reference.state_root, || {
            format!("reopened store root {recovered} != run root")
        })?;
        values.set("store.reopen_ms", reopen_ms);
    }
    drop(plain_store);

    // Tracing overhead from four runs in the order off, on, on, off, so that a
    // drift of the host's speed falls on both sides alike.
    let (traced, _) = produce(TelemetryRegistry::enabled())?;
    let (traced_again, _) = produce(TelemetryRegistry::enabled())?;
    let (plain_again, _) = produce(TelemetryRegistry::disabled())?;
    let plain_ns = (plain.net_ns() + plain_again.net_ns()) as f64;
    values.set(
        "driver.trace_overhead_share",
        (traced.net_ns() + traced_again.net_ns()) as f64 / plain_ns - 1.0,
    );
    values.set(
        "driver.unattributed_share",
        1.0 - layer_ns_per_pass / (plain_ns / 2.0),
    );
    let snapshot = traced
        .report
        .telemetry()
        .ok_or("enabled registry returned no snapshot")?;
    for (stage, metric) in [
        ("ingest", "driver.stage.ingest.ns_per_tx"),
        ("pack", "driver.stage.pack.ns_per_tx"),
        ("execute", "driver.stage.execute.ns_per_tx"),
        ("store", "driver.stage.store.ns_per_tx"),
        ("merge", "driver.stage.merge.ns_per_tx"),
        ("rehome", "driver.stage.rehome.ns_per_tx"),
    ] {
        let wall = snapshot.stage(stage).map_or(0, |s| s.wall_nanos.sum);
        values.set(metric, wall as f64 / traced.report.packed().max(1) as f64);
    }

    // The engine ladder: every engine on the same blocks, every root the same.
    let rungs = measure::ladder(&inputs, &reference.blocks)?;
    let sequential = &rungs[0];
    for rung in &rungs {
        gate(rung.state_root == sequential.state_root, || {
            format!(
                "ladder: {} root {} != sequential root {}",
                rung.engine.label(),
                rung.state_root,
                sequential.state_root
            )
        })?;
        values.set(rung.engine.ladder_metric(), rung.ns_per_tx);
        if rung.engine == workload.engine {
            values.set(
                "execution.speedup_vs_sequential",
                sequential.ns_per_tx / rung.ns_per_tx,
            );
        }
    }

    if workload.layout == Layout::Shardpool {
        let calls = measure::shardpool_calls(workload, &inputs)?;
        values.set(
            "shardpool.ingest_ns_per_tx",
            calls.ingest_ns as f64 / calls.ingested.max(1) as f64,
        );
        values.set(
            "shardpool.pack_ns_per_tx",
            calls.pack_ns as f64 / calls.packed.max(1) as f64,
        );
    }

    // What is left of `--seconds` goes to replays, for the tail of the block time.
    let mut block_ms = Vec::new();
    loop {
        let store = ScratchDir::create(out, "replay")?;
        let replayed = measure::replay(
            &inputs,
            &reference.blocks,
            workload.engine,
            &workload.backend(store.path()),
        )?;
        check_replayed(&replayed, &oracle.state_root)?;
        block_ms.extend(replayed.block_ns.iter().map(|&ns| ns as f64 / 1e6));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    values.set(
        "execution.replay_block_ms_p95",
        stats::percentile_if_supported(&block_ms, stats::P95).unwrap_or(0.0),
    );

    Ok(Outcome {
        attempted: inputs.fresh as u64,
        failed: lost,
        values,
    })
}
