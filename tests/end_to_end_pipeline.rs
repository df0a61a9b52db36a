//! End-to-end pipeline test: simulate histories for all seven chains, run the full
//! analysis (bucketed weighted series, cross-chain comparisons, speed-up
//! extrapolation), and assert the qualitative findings the paper reports.
//!
//! Absolute numbers differ from the paper's (the substrate is a calibrated simulator,
//! not BigQuery), but every directional claim must hold: which chains are more
//! concurrent, how the two metrics relate, and roughly how large the potential
//! speed-ups are.

use blockconc::prelude::*;

/// One shared dataset for all assertions (generation dominates the test's cost).
fn dataset() -> Dataset {
    Dataset::generate_all(HistoryConfig::new(8, 2, 20_2006))
}

fn mean_rate(dataset: &Dataset, chain: ChainId, metric: MetricKind) -> f64 {
    dataset
        .series(chain, metric, BlockWeight::TxCount, 4)
        .expect("chain present")
        .mean()
}

#[test]
fn paper_findings_hold_on_the_simulated_dataset() {
    let dataset = dataset();

    // Finding 1: there is more concurrency (lower conflict) in UTXO-based blockchains
    // than in account-based ones.
    let comparison = compare::by_data_model(
        &dataset,
        MetricKind::SingleTxConflictRate,
        BlockWeight::TxCount,
        4,
    );
    let max_utxo = comparison
        .utxo_chains
        .iter()
        .map(|s| s.mean())
        .fold(0.0f64, f64::max);
    let min_account = comparison
        .account_chains
        .iter()
        .map(|s| s.mean())
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_account > max_utxo,
        "account chains ({min_account:.2}) must conflict more than UTXO chains ({max_utxo:.2})"
    );

    // Bitcoin's single-transaction conflict rate is moderate (paper: ~13-15%) and its
    // group conflict rate is tiny (paper: ~1%); Ethereum's are far higher.
    let btc_single = mean_rate(&dataset, ChainId::Bitcoin, MetricKind::SingleTxConflictRate);
    let btc_group = mean_rate(&dataset, ChainId::Bitcoin, MetricKind::GroupConflictRate);
    let eth_single = mean_rate(
        &dataset,
        ChainId::Ethereum,
        MetricKind::SingleTxConflictRate,
    );
    let eth_group = mean_rate(&dataset, ChainId::Ethereum, MetricKind::GroupConflictRate);
    assert!(btc_single < 0.3, "bitcoin single {btc_single}");
    assert!(btc_group < 0.05, "bitcoin group {btc_group}");
    assert!(eth_single > 0.5, "ethereum single {eth_single}");
    assert!(
        eth_group > 0.1 && eth_group < 0.5,
        "ethereum group {eth_group}"
    );

    // Finding 2: the group conflict rate is (much) lower than the single-transaction
    // conflict rate, on every chain.
    for chain in dataset.chains() {
        let single = mean_rate(&dataset, chain, MetricKind::SingleTxConflictRate);
        let group = mean_rate(&dataset, chain, MetricKind::GroupConflictRate);
        assert!(
            group <= single + 1e-9,
            "{chain}: group {group} exceeds single {single}"
        );
    }
    assert!(
        eth_group < eth_single / 2.0,
        "the gap on Ethereum is large (paper: ~20% vs ~60%)"
    );

    // Finding 3: chains with more transactions per block can have *lower* conflict
    // rates (Ethereum vs Ethereum Classic, Bitcoin vs Bitcoin Cash).
    let eth_txs = mean_rate(&dataset, ChainId::Ethereum, MetricKind::TxCount);
    let etc_txs = mean_rate(&dataset, ChainId::EthereumClassic, MetricKind::TxCount);
    let etc_group = mean_rate(
        &dataset,
        ChainId::EthereumClassic,
        MetricKind::GroupConflictRate,
    );
    assert!(eth_txs > etc_txs * 3.0, "ETH {eth_txs} vs ETC {etc_txs}");
    assert!(
        etc_group > eth_group + 0.15,
        "ETC group {etc_group} vs ETH {eth_group}"
    );

    let btc_txs = mean_rate(&dataset, ChainId::Bitcoin, MetricKind::TxCount);
    let bch_txs = mean_rate(&dataset, ChainId::BitcoinCash, MetricKind::TxCount);
    let bch_single = mean_rate(
        &dataset,
        ChainId::BitcoinCash,
        MetricKind::SingleTxConflictRate,
    );
    assert!(btc_txs > bch_txs * 2.0, "BTC {btc_txs} vs BCH {bch_txs}");
    assert!(
        bch_single > btc_single,
        "BCH {bch_single} vs BTC {btc_single}"
    );

    // Zilliqa conflicts heavily despite sharding.
    let zil_single = mean_rate(&dataset, ChainId::Zilliqa, MetricKind::SingleTxConflictRate);
    assert!(zil_single > 0.5, "zilliqa single {zil_single}");
}

#[test]
fn figure10_speedups_reach_paper_magnitudes() {
    let history = HistoryConfig::new(8, 2, 88).generate(ChainId::Ethereum);
    let figure = speedup::speedup_figure(&history, 8, &CoreSweep::figure10_cores());

    // Panel (a): single-transaction speed-ups stay modest (roughly 1-2x).
    for series in &figure.speculative {
        let max = series.max_value().unwrap();
        assert!(max < 2.5, "{}: {max}", series.label());
    }

    // Panel (b): group-concurrency speed-ups are several times larger; with 8 and 64
    // cores the later buckets reach the 3-8x band the paper reports (~6x at 8 cores).
    let eight: &Series = figure
        .group
        .iter()
        .find(|s| s.label() == "8 cores")
        .expect("8-core series");
    let last = eight.last_value().unwrap();
    assert!(last > 2.5 && last <= 8.0, "8-core group speed-up {last}");

    let four: &Series = figure
        .group
        .iter()
        .find(|s| s.label() == "4 cores")
        .unwrap();
    assert!(four.max_value().unwrap() <= 4.0 + 1e-9);

    // Group speed-ups dominate speculative speed-ups point for point.
    for (spec, group) in figure.speculative.iter().zip(figure.group.iter()) {
        for (s, g) in spec.points().iter().zip(group.points()) {
            assert!(g.value + 1e-9 >= s.value);
        }
    }
}

#[test]
fn exported_series_roundtrip_and_report_render() {
    let history = HistoryConfig::new(5, 1, 3).generate(ChainId::Dogecoin);
    let series = vec![
        bucketed_series(history.blocks(), MetricKind::TxCount, BlockWeight::Unit, 5),
        bucketed_series(
            history.blocks(),
            MetricKind::SingleTxConflictRate,
            BlockWeight::TxCount,
            5,
        ),
    ];
    let csv = export::to_csv(&series);
    assert!(csv.lines().count() >= 2);
    assert!(csv.starts_with("year,"));

    // The CSV reads back to the series, to its printed precision: one column
    // per series, one row per point.
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let labels: Vec<&str> = series.iter().map(|s| s.label()).collect();
    assert_eq!(header[1..], labels[..]);
    let rows: Vec<Vec<f64>> = lines
        .map(|line| line.split(',').map(|cell| cell.parse().unwrap()).collect())
        .collect();
    for (column, s) in series.iter().enumerate() {
        assert_eq!(rows.len(), s.len());
        for (row, point) in rows.iter().zip(s.points()) {
            assert!((row[0] - point.year).abs() < 1e-3);
            assert!((row[column + 1] - point.value).abs() < 1e-6);
        }
    }

    let table = report::series_table("Dogecoin", &series);
    assert!(table.contains("Dogecoin"));
    assert!(report::table1().contains("Zilliqa"));
}

#[test]
fn zilliqa_final_blocks_are_sane_and_heavily_conflicted() {
    // Each Zilliqa final block is a round ordered by the sender's canonical shard;
    // make sure the resulting metrics are sane and heavily conflicted, as the paper
    // observes.
    let history = HistoryConfig::new(4, 3, 5).generate(ChainId::Zilliqa);
    assert_eq!(history.len(), 12);
    for metrics in history.blocks() {
        assert!(metrics.tx_count() >= 1);
        assert!(metrics.lcc_size() <= metrics.tx_count());
    }
    let avg_single = history
        .blocks()
        .iter()
        .map(|m| m.single_tx_conflict_rate())
        .sum::<f64>()
        / history.len() as f64;
    assert!(avg_single > 0.4, "zilliqa single-tx conflict {avg_single}");
}
