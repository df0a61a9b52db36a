//! `obs` — trace analysis CLI over the telemetry fabric.
//!
//! ```text
//! obs trace <flight.jsonl> [-o out.trace.json] [--check]
//! obs critpath <flight.jsonl> [--check]
//! obs contention [--blocks N] [--txs-per-block T] [--seed S] [--zipf Z] [--top K]
//! ```
//!
//! Inputs are flight-recorder JSONL exports (`TelemetryRegistry::flight_jsonl`;
//! `examples/telemetry_demo` writes one and prints its path). `--check` modes
//! exit non-zero on violation; `tests/trace_checks.rs` makes the same library
//! calls on a 4-shard cluster run in `cargo test`.

use blockconc_account::{AccessSet, StateKey};
use blockconc_chainsim::{AccountWorkloadParams, ArrivalStream, HotspotSpec};
use blockconc_graph::receiver_edge_is_weak;
use blockconc_obsctl::{contention, critpath, trace, trees_from_jsonl};
use std::process::ExitCode;

const USAGE: &str = "usage:
  obs trace <flight.jsonl> [-o out.trace.json] [--check]
  obs critpath <flight.jsonl> [--check]
  obs contention [--blocks N] [--txs-per-block T] [--seed S] [--zipf Z] [--top K]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace") => cmd_trace(&args[1..]),
        Some("critpath") => cmd_critpath(&args[1..]),
        Some("contention") => cmd_contention(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("obs: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value following `flag` out of `args`, removing both.
fn take_option(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(index) => {
            if index + 1 >= args.len() {
                return Err(format!("{flag} needs a value"));
            }
            let value = args.remove(index + 1);
            args.remove(index);
            Ok(Some(value))
        }
        None => Ok(None),
    }
}

/// Removes `flag` from `args`, reporting whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(index) => {
            args.remove(index);
            true
        }
        None => false,
    }
}

/// Pulls the value following `flag` out of `args` and parses it, or parses
/// `default` when the flag is absent.
fn parsed_option<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: &str,
) -> Result<T, String> {
    let value = take_option(args, flag)?.unwrap_or_else(|| default.into());
    value
        .parse()
        .map_err(|_| format!("invalid {flag}: {value:?}"))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
}

fn read_trees(path: &str) -> Result<Vec<blockconc_telemetry::SpanTree>, String> {
    let trees = trees_from_jsonl(&read_file(path)?)?;
    if trees.is_empty() {
        return Err(format!("{path} holds no sealed span trees"));
    }
    Ok(trees)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let check = take_flag(&mut args, "--check");
    let out = take_option(&mut args, "-o")?;
    let [input] = args.as_slice() else {
        return Err(format!("trace takes one input file\n{USAGE}"));
    };
    let trees = read_trees(input)?;
    let json = trace::chrome_trace(&trees);
    if check {
        let stats = trace::validate_chrome_trace(&json)?;
        println!(
            "trace OK: {} events, {} spans, {} tracks",
            stats.events, stats.spans, stats.tracks
        );
    }
    let out = out.unwrap_or_else(|| format!("{input}.trace.json"));
    std::fs::write(&out, &json).map_err(|err| format!("cannot write {out}: {err}"))?;
    println!(
        "wrote {} ({} trees) — open in chrome://tracing or https://ui.perfetto.dev",
        out,
        trees.len()
    );
    Ok(())
}

fn cmd_critpath(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let check = take_flag(&mut args, "--check");
    let [input] = args.as_slice() else {
        return Err(format!("critpath takes one input file\n{USAGE}"));
    };
    let report = critpath::analyze(&read_trees(input)?);
    print!("{}", report.render());
    if check {
        report.check()?;
        println!("critpath OK: attribution sums exactly to end-to-end wall time");
    }
    Ok(())
}

fn cmd_contention(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let blocks: usize = parsed_option(&mut args, "--blocks", "10")?;
    let txs_per_block: usize = parsed_option(&mut args, "--txs-per-block", "100")?;
    let seed: u64 = parsed_option(&mut args, "--seed", "42")?;
    let zipf: f64 = parsed_option(&mut args, "--zipf", "0.4")?;
    let top: usize = parsed_option(&mut args, "--top", "10")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}\n{USAGE}"));
    }

    let params = AccountWorkloadParams {
        txs_per_block: txs_per_block as f64,
        user_population: 10_000,
        fresh_receiver_share: 0.5,
        zipf_exponent: zipf,
        hotspots: vec![HotspotSpec::exchange(0.4), HotspotSpec::contract(0.1, 3)],
        contract_create_share: 0.01,
    };
    let total = blocks * txs_per_block;
    let access_sets: Vec<AccessSet> = ArrivalStream::new(params, 10.0, total, seed)
        .map(|arrival| {
            // The sender's balance and nonce are read-modify-write: an
            // ordering write. The receiver gains a commutative credit where the
            // packer's graph calls its edge weak, and is written otherwise; a
            // creation records no receiver.
            let tx = &arrival.tx;
            let mut access = AccessSet::new();
            access.record_write(StateKey::Balance(tx.sender()));
            let receiver = StateKey::Balance(tx.receiver());
            if receiver_edge_is_weak(tx) {
                access.record_delta(receiver);
            } else if !tx.is_contract_creation() {
                access.record_write(receiver);
            }
            access
        })
        .collect();
    let block_list: Vec<Vec<AccessSet>> = access_sets
        .chunks(txs_per_block.max(1))
        .map(<[AccessSet]>::to_vec)
        .collect();
    let profile = contention::profile_blocks(&block_list, top);
    print!("{}", profile.render());
    Ok(())
}
