#ifndef CROWDEX_PLAN_PASSES_H_
#define CROWDEX_PLAN_PASSES_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "plan/plan.h"

namespace crowdex::index {
class DeltaState;
}  // namespace crowdex::index

namespace crowdex::plan {

/// One provably-safe plan rewrite. Passes mutate the plan in place and
/// report whether they changed anything; every pass carries a safety
/// argument (in its class comment and DESIGN.md §13) showing the rewrite
/// cannot change any ranked bit.
class Pass {
 public:
  virtual ~Pass() = default;
  /// Stable lower_snake identifier, used for metric names
  /// (`plan.pass.<name>.ms` / `.applied`) and `PassTrace`.
  virtual const char* name() const = 0;
  /// Rewrites `plan` in place; returns true when the plan changed.
  virtual bool Run(QueryPlan* plan) const = 0;
};

/// Marks the side of the Eq. 1 blend that a constant alpha multiplies by
/// exactly zero: `terms_folded_out` at α == 0, `entities_folded_out` at
/// α == 1.
///
/// Safety: both executor arms guard term work with `alpha > 0.0` and
/// entity work with `alpha < 1.0` — the folded-out side contributes no
/// term to any per-document sum and no document to the matched count (a
/// document only counts as matched when its score ends up positive, in
/// both arms). Skipping the dead side is therefore bit- and stat-exact.
class FoldConstantAlphaPass : public Pass {
 public:
  const char* name() const override { return "fold_constant_alpha"; }
  bool Run(QueryPlan* plan) const override;
};

/// Removes leaves that cannot contribute: leaves on a folded-out side
/// (see `FoldConstantAlphaPass`) and leaves with zero query-side
/// multiplicity.
///
/// Safety: a folded-out side is never accumulated (guarded by the alpha
/// comparisons above); a qtf/qef of 0 multiplies every posting weight to
/// exactly +0.0, and adding +0.0 to the non-negative accumulator slot is a
/// bitwise no-op that also cannot flip a score to positive — so neither
/// the per-document bits nor the matched/eligible counts move. The pass
/// deliberately performs NO dictionary probes (unknown-term dropping stays
/// in `CompileGroups`): pruning must stay cheap on the plan-cache hit
/// path.
class PruneZeroWeightLeavesPass : public Pass {
 public:
  const char* name() const override { return "prune_zero_weight_leaves"; }
  bool Run(QueryPlan* plan) const override;
};

/// Rewrites `Window → Score` into `Window → Merge → ShardFanout → Score`
/// when serving across `num_shards` doc partitions (a single-shard router
/// still scatters through its fault boundary, so the stage applies at any
/// positive shard count). The fanout's per-shard limit is the enclosing
/// fixed window size (each shard's top-`size` prefix provably contains
/// every global top-`size` doc under the strict total order), or 0 (full
/// shard rankings) for fraction/no windows, whose cutoff depends on the
/// cross-shard eligible total.
///
/// Safety: shards score their own doc ranges with GLOBAL collection
/// statistics (DESIGN.md §12), so per-doc scores are bit-identical to the
/// unsharded index; the merge re-sorts on the global (score desc, doc asc)
/// total order, so the merged prefix equals the unsharded prefix.
class InsertShardFanoutPass : public Pass {
 public:
  explicit InsertShardFanoutPass(int num_shards) : num_shards_(num_shards) {}
  const char* name() const override { return "insert_shard_fanout"; }
  bool Run(QueryPlan* plan) const override;

 private:
  int num_shards_;
};

/// Wraps the Score node in a DeltaFanIn stage when the serving index
/// carries uncompacted mutations (the delta state's lock-free `active()`
/// flag — the only thing the pass reads, so planning never takes the delta
/// lock). The executor then scores the Score's leaves over [frozen base
/// runs + delta runs] at live collection statistics through the same
/// kernels, `TakeTop`ping the pushed-down window. Runs after window
/// pushdown and block-max marking, so a delta plan differs from the frozen
/// plan only by the stage: a `pruned` Score under it is what explain and
/// `rank.prune.declined` report as pruning declined (the frozen block
/// bounds do not cover delta runs or live weights, so the executor runs it
/// exhaustively). Single-index pipelines only: shard fragments apply the
/// delta themselves (`ExecuteFragment`).
///
/// Safety: a document lives in exactly one segment (base ids below
/// `base_docs`, delta ids at or above it), so each per-document sum sees
/// its contributions in leaf order; the weights are the rebuild's
/// `alpha · qw · irf · irf` over the live statistics, the per-posting
/// products are the kernels' own, and tombstoned docs fail the
/// eligibility filter. That makes the output bit-identical to a
/// from-scratch rebuild of the live documents (DESIGN.md §16), which is
/// the correctness bar every other arm is also held to.
class DeltaFanInPass : public Pass {
 public:
  explicit DeltaFanInPass(const index::DeltaState* delta) : delta_(delta) {}
  const char* name() const override { return "delta_fan_in"; }
  bool Run(QueryPlan* plan) const override;

 private:
  const index::DeltaState* delta_;
};

/// Pushes a Window whose direct child is a Score into the scorer's
/// `TakeTop` (`score.pushed_window`), hoisting the Score in place of the
/// Window. Naturally a no-op on fanout plans (the Window's child is a
/// Merge there — the global window must apply after the gather).
///
/// Safety: (score desc, doc asc) is a strict total order over distinct
/// documents, so the top-k selection is exactly the first k elements of
/// the full sort — partial selection can only skip sorting the tail, never
/// change membership or order (the `ScoreAccumulator::TakeTop` contract).
class PushWindowIntoTakeTopPass : public Pass {
 public:
  const char* name() const override { return "push_window_into_take_top"; }
  bool Run(QueryPlan* plan) const override;
};

/// Marks a compiled Score node for block-max pruned execution
/// (`score.pruned`) when a fixed top-k bound is known at plan time: a
/// fixed pushed-down window (post `push_window_into_take_top`), or — on
/// fanout plans — a positive `per_shard_limit` on the enclosing
/// ShardFanout (each shard then prunes against its own per-shard top-k,
/// which `InsertShardFanoutPass` already proved is a superset of the
/// shard's contribution to the global window). Always registered in the
/// pipeline so explain traces show applied/not-applied; the constructor
/// flag gates whether it ever fires (`ExpertFinderConfig::blockmax_pruning`
/// is opt-in).
///
/// Safety: the pruned kernel (`SearchIndex::AccumulatePrunedTopK`)
/// evaluates every surviving candidate's contributions in the same group
/// order with the same expression shapes as `AccumulateCompiled`, so kept
/// scores are bit-identical; it only skips candidates whose score upper
/// bound, inflated by a rounding-slack factor, is <= the running k-th-best
/// score, and under the strict (score desc, doc asc) total order every
/// such candidate loses to all k docs already held (DAAT ascending doc
/// order makes held docs tie-winners), so the top-k membership and order
/// are exactly those of the unpruned sort. No-ops on the legacy arm,
/// fraction windows, and unlimited fanouts, where no fixed k exists.
/// Matched/eligible stats become lower bounds (exact until the heap first
/// fills).
class PruneBlockMaxPass : public Pass {
 public:
  explicit PruneBlockMaxPass(bool enabled) : enabled_(enabled) {}
  const char* name() const override { return "prune_blockmax"; }
  bool Run(QueryPlan* plan) const override;

 private:
  bool enabled_;
};

/// Stamps every Score node with its injective canonical key
/// (`CanonicalScoreKey`), making the post-prune leaf sequence the cache
/// identity. Runs last so the key reflects every earlier rewrite.
///
/// Safety: keys are injective over leaf sequences, so a plan-cache hit is
/// exactly the compiled form a fresh `CompileGroups` of the same leaves
/// would return; alpha is excluded because compiled queries are
/// alpha-independent.
class CanonicalizeCacheKeyPass : public Pass {
 public:
  const char* name() const override { return "canonicalize_cache_key"; }
  bool Run(QueryPlan* plan) const override;
};

/// Options for assembling the standard serving pipeline.
struct PipelineOptions {
  /// Number of doc-partitioned shards the plan will execute against
  /// (meaningful only when `sharded`).
  int num_shards = 1;
  /// True for the scatter-gather router's pipeline: inserts the
  /// ShardFanout/Merge stage (at any positive shard count — even a
  /// single-shard router scatters through its fault boundary). False for
  /// single-index serving.
  bool sharded = false;
  /// True to let `PruneBlockMaxPass` fire (from
  /// `ExpertFinderConfig::blockmax_pruning`). The pass is registered either
  /// way so traces and metrics always name it.
  bool blockmax = false;
  /// Non-null when an `IndexWriter` is attached to the serving index:
  /// registers `DeltaFanInPass` over this delta state (which must outlive
  /// the pipeline). Null for sharded router pipelines — fragment execution
  /// applies the delta per shard instead (see `ExecuteFragment`).
  const index::DeltaState* delta = nullptr;
};

/// An ordered pass pipeline with optional per-pass observability. Run is
/// const and thread-safe (passes are stateless); metric handles are
/// resolved once at `AttachMetrics` time so the per-rank hot path never
/// touches the registry lock.
class PassManager {
 public:
  PassManager() = default;
  PassManager(PassManager&&) = default;
  PassManager& operator=(PassManager&&) = default;

  /// The standard serving pipeline, in dependency order: constant-α
  /// folding, zero-weight-leaf pruning, shard-fanout insertion (sharded
  /// only), window pushdown, block-max prune marking, delta fan-in
  /// (writer attached only), cache-key canonicalization.
  static PassManager ServingPipeline(const PipelineOptions& options);

  void Add(std::unique_ptr<Pass> pass);

  /// Resolves `plan.pass.<name>.ms` / `plan.pass.<name>.applied` handles
  /// for every stage. Null registry leaves the pipeline unobserved (and
  /// skips the clock calls entirely — metrics never steer the plan).
  void AttachMetrics(obs::MetricsRegistry* metrics);

  /// Runs every pass in order; appends one `PassTrace` per pass to `trace`
  /// when non-null. Returns true when any pass changed the plan.
  bool Run(QueryPlan* plan, std::vector<PassTrace>* trace = nullptr) const;

  size_t size() const { return stages_.size(); }

 private:
  struct Stage {
    std::unique_ptr<Pass> pass;
    obs::Histogram* latency = nullptr;
    obs::Counter* applied = nullptr;
  };
  std::vector<Stage> stages_;
};

}  // namespace crowdex::plan

#endif  // CROWDEX_PLAN_PASSES_H_
