//! Execution reports.

/// What an execution engine measured while executing one block.
///
/// The abstract unit quantities use the paper's cost model — every transaction costs
/// one time unit — so they can be compared directly against Equations (1) and (2):
/// `sequential_units = x`, `parallel_units = T'`, and `unit_speedup` corresponds to
/// the modelled `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Engine name ("sequential", "speculative", "scheduled", "optimistic").
    pub engine: String,
    /// Worker threads used (1 for the sequential engine).
    pub threads: usize,
    /// Number of transactions in the block.
    pub tx_count: usize,
    /// Number of transactions that were found to conflict (speculative engine) or that
    /// belong to a multi-transaction component (scheduled engine); 0 for sequential.
    pub conflicted_transactions: usize,
    /// Size of the largest connected component / sequential bin, in transactions.
    pub largest_group: usize,
    /// Abstract execution time of the sequential baseline (= number of transactions).
    pub sequential_units: u64,
    /// Abstract execution time of this engine under the paper's unit-cost model.
    pub parallel_units: u64,
    /// Read-set validations performed (optimistic engine; 0 for the others).
    pub validations: u64,
    /// Validation failures that aborted an incarnation (optimistic engine).
    /// Conflicts are counted per `StateKey` cell: calls into one contract that
    /// touch disjoint slots report none. The count depends on how the workers
    /// interleaved — a diagnostic, not an invariant of the block.
    pub aborts: u64,
    /// Transaction executions beyond the first per transaction (optimistic engine).
    pub re_executions: u64,
    /// Whole-block fallbacks to sequential execution after the abort bound was
    /// exceeded (optimistic engine; 0 or 1 per block).
    pub sequential_fallbacks: u64,
    /// Commutative delta contributions committed without ordering (optimistic
    /// engine; 0 for the others and on the sequential-fallback path). Every
    /// merge is a same-cell collision that would have serialized — or aborted —
    /// under write tracking.
    pub delta_merges: u64,
    /// Committed reads that observed a delta-accumulated cell and were
    /// therefore ordered after each contributor (the reader-upgrade path).
    /// High merge counts with low downgrade counts are the commutative ideal;
    /// downgrades approaching merges mean the "hot sink" is also hot to read.
    pub delta_downgrades: u64,
}

impl ExecutionReport {
    /// A report of `tx_count` unit-cost transactions with the optimistic
    /// engine's counters at zero (it fills its own in by struct update).
    pub(crate) fn new(
        engine: &str,
        threads: usize,
        tx_count: usize,
        conflicted_transactions: usize,
        largest_group: usize,
        parallel_units: u64,
    ) -> Self {
        ExecutionReport {
            engine: engine.to_string(),
            threads,
            tx_count,
            conflicted_transactions,
            largest_group,
            sequential_units: tx_count as u64,
            parallel_units,
            validations: 0,
            aborts: 0,
            re_executions: 0,
            sequential_fallbacks: 0,
            delta_merges: 0,
            delta_downgrades: 0,
        }
    }

    /// The speed-up in abstract time units, `sequential_units / parallel_units`
    /// (0 when the parallel time is 0).
    pub fn unit_speedup(&self) -> f64 {
        if self.parallel_units == 0 {
            0.0
        } else {
            self.sequential_units as f64 / self.parallel_units as f64
        }
    }

    /// The single-transaction conflict rate observed by the engine.
    pub fn conflict_rate(&self) -> f64 {
        if self.tx_count == 0 {
            0.0
        } else {
            self.conflicted_transactions as f64 / self.tx_count as f64
        }
    }

    /// The group conflict rate (relative size of the largest group) observed.
    pub fn group_conflict_rate(&self) -> f64 {
        if self.tx_count == 0 {
            0.0
        } else {
            self.largest_group as f64 / self.tx_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport::new("test", 4, 100, 40, 20, 66)
    }

    #[test]
    fn speedups_and_rates() {
        let r = report();
        assert!((r.unit_speedup() - 100.0 / 66.0).abs() < 1e-12);
        assert!((r.conflict_rate() - 0.4).abs() < 1e-12);
        assert!((r.group_conflict_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = ExecutionReport {
            parallel_units: 0,
            tx_count: 0,
            ..report()
        };
        assert_eq!(r.unit_speedup(), 0.0);
        assert_eq!(r.conflict_rate(), 0.0);
        assert_eq!(r.group_conflict_rate(), 0.0);
    }
}
