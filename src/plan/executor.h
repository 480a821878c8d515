#ifndef CROWDEX_PLAN_EXECUTOR_H_
#define CROWDEX_PLAN_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "index/search_index.h"
#include "plan/plan.h"
#include "plan/plan_cache.h"

namespace crowdex::index {
class DeltaState;
}  // namespace crowdex::index

namespace crowdex::plan {

/// Everything a retrieval subtree executes against. The executor owns no
/// state of its own — callers hand it the frozen (or mutable) index, the
/// per-doc eligibility filter, an optional plan cache, and a scoring
/// accumulator (one per thread; a null accumulator makes the kernel arms
/// fall back to a call-local one, an O(N) allocation per call that
/// serving contexts never pay).
struct ExecContext {
  const index::SearchIndex* index = nullptr;
  /// Byte-per-doc eligibility filter (the finder's reachability bits);
  /// null means every document is eligible.
  const uint8_t* eligible = nullptr;
  /// Optional compiled-form cache, keyed by the Score node's canonical
  /// key. Null disables caching.
  PlanCache* cache = nullptr;
  /// Dense scoring scratch for the compiled and live-delta arms
  /// (thread-local at call sites). Ignored by the legacy arm.
  index::ScoreAccumulator* acc = nullptr;
  /// Incremental delta state layered over `index` (null when no writer is
  /// attached). When a plan carries a DeltaFanIn stage — or, on shard
  /// fragments, when the delta is active — scoring runs through
  /// `DeltaState::Accumulate`: the same kernels over each group's base run
  /// and then its delta run, at live weights, into `acc`. `eligible` must
  /// then cover [base + delta] ids and be 0 on tombstoned docs. The caller
  /// must hold the delta's shared lock for the duration of the execution
  /// (see `DeltaReadGuard`).
  const index::DeltaState* delta = nullptr;
};

/// The result of executing one retrieval subtree, plus the cache traffic
/// the call generated. The executor never touches metric counters itself —
/// callers fold the traffic into whichever counter families they own,
/// which keeps the plan layer free of observability policy.
struct RetrievalOutcome {
  /// The windowed scored docs, in (score desc, doc asc) order.
  std::vector<index::ScoredDoc> windowed;
  /// Documents with positive Eq. 1 score (before the eligibility filter).
  /// LOWER BOUND when the pruned arm ran (exact while the top-k heap was
  /// not yet full — in particular whenever eligible < k).
  size_t matched = 0;
  /// Matched documents passing the filter — the pool the window applied to.
  /// Same lower-bound caveat under pruning.
  size_t eligible = 0;
  /// Block-max pruning accounting (all zero on unpruned executions);
  /// callers fold these into the `rank.prune.*` counters.
  uint64_t blocks_skipped = 0;
  uint64_t blocks_scored = 0;
  uint64_t docs_skipped = 0;
  /// Scoring-kernel accounting (zero on legacy executions); callers fold
  /// these into the `rank.kernel.*` counters. Runs are posting-run kernel
  /// dispatches; prefetches count software prefetches issued by the
  /// selected kernel tier (accumulate slots + pruned block advances).
  uint64_t kernel_runs = 0;
  uint64_t kernel_prefetches = 0;
  /// True when scoring ran over [frozen base + live delta]; callers fold
  /// it and the delta postings scanned into `rank.delta.*`.
  bool delta_read = false;
  uint64_t delta_postings = 0;
  /// True when a pruned Score ran exhaustively because a delta was live
  /// (`rank.prune.declined`).
  bool prune_declined = false;
  /// True when a cache lookup happened (compiled arm with a cache).
  bool cache_used = false;
  bool cache_hit = false;
  uint64_t cache_evictions = 0;
};

/// Executes a retrieval subtree — a `Window → Score` pair or a bare
/// `Score` (whose `pushed_window`, when set, bounds the top-k selection),
/// either optionally with a `DeltaFanIn` stage directly above the Score
/// (incremental serving) — against `ctx.index` and returns the windowed
/// resources plus match statistics. A DeltaFanIn stage routes scoring
/// through the live-delta arm when `ctx.delta` is attached: the kernels
/// over [base runs + delta runs] at live weights, then `TakeTop` —
/// exhaustively, whatever the Score's `pruned` flag says. Without a delta
/// it degrades to the inner Score over the base, which is the same bytes
/// while the delta is empty. Plain subtrees dispatch on
/// `score.use_compiled`:
///
///  - compiled: resolve the compiled form (plan cache, else
///    `CompileGroups` over the leaves in order), score through the dense
///    accumulator with the eligibility bytes, `TakeTop` the resolved
///    window;
///  - legacy: `SearchGroups` over the leaves in order (full sort), filter
///    by the eligibility bytes, truncate to the resolved window.
///
/// Every arm consumes the leaf sequence strictly in order and returns the
/// same bytes (the §10/§13/§16 equivalence arguments).
RetrievalOutcome ExecuteRetrieval(const PlanNode& retrieval,
                                  const ExecContext& ctx);

/// Executes the Score subtree of a shard fanout: same scoring as
/// `ExecuteRetrieval` (the live-delta arm whenever `ctx.delta` is active),
/// but the windowing is the fanout's per-shard prefix bound — `limit == 0`
/// returns every eligible doc (full shard ranking), otherwise the top
/// `min(limit, eligible)`.
RetrievalOutcome ExecuteFragment(const PlanNode& score, size_t limit,
                                 const ExecContext& ctx);

}  // namespace crowdex::plan

#endif  // CROWDEX_PLAN_EXECUTOR_H_
