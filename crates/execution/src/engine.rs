//! The execution-engine trait.

use crate::ExecutionReport;
use blockconc_account::{AccountBlock, ExecutedBlock, WorldState};
use blockconc_types::Result;

/// A block-execution strategy.
///
/// Every engine must produce exactly the same state transition and receipts as the
/// sequential baseline — parallelism may only change *how long* execution takes, never
/// *what* it computes. The integration tests enforce this serializability property for
/// all engines on randomized workloads.
pub trait ExecutionEngine {
    /// A short, stable name for reports and benchmark labels.
    fn name(&self) -> &'static str;

    /// Whether this engine treats commutative contributions (pure credits,
    /// `SAdd`-style increments) as unordered delta accesses rather than
    /// read-modify-writes: `true` for the optimistic engine, `false` (the
    /// default) for the sequential engine and the two evaluators, whose
    /// storage-level conflict model orders them. Schedulers upstream may then
    /// model pure-credit receiver edges as *weak* — e.g.
    /// `IncrementalTdg::with_weak_edges` — because transactions sharing only a
    /// delta-accumulated cell no longer conflict. Purely advisory: engines
    /// validate their own reads either way.
    fn commutes_deltas(&self) -> bool {
        false
    }

    /// Executes `block` against `state`, committing its effects, and reports what was
    /// measured.
    ///
    /// # Errors
    ///
    /// Returns an error only for engine-level failures (e.g. a worker thread
    /// panicking); per-transaction failures are recorded in the receipts exactly as
    /// the sequential executor records them.
    fn execute(
        &mut self,
        state: &mut WorldState,
        block: &AccountBlock,
    ) -> Result<(ExecutedBlock, ExecutionReport)>;
}
