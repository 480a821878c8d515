#ifndef CROWDEX_PLAN_PLAN_H_
#define CROWDEX_PLAN_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "entity/knowledge_base.h"

namespace crowdex::plan {

/// The node variants of the query-plan IR (DESIGN.md §13). A plan is a
/// small tree lowered from one ranking call; every serving surface
/// (single-index, batch, sharded scatter-gather) executes plans instead of
/// branching by hand:
///
///   Aggregate                        Aggregate
///     Window                           Window
///       Score                            Merge
///         TermLeaf*    — sharded →         ShardFanout
///         EntityLeaf*                        Score
///                                              TermLeaf* EntityLeaf*
enum class PlanNodeKind {
  /// One query-side term group: `term` with its aggregated multiplicity
  /// `qtf`. Leaf order IS the accumulation order of the Eq. 1 term sums —
  /// the lowering captures the legacy scorer's group iteration order once,
  /// and both execution arms consume it unchanged, which is what keeps
  /// per-document floating-point sums bit-identical across paths.
  kTermLeaf,
  /// One query-side entity group (`entity`, `qef`); same order contract.
  kEntityLeaf,
  /// Eq. 1 scoring of the leaf groups at blend `alpha`, plus the
  /// eligibility filter the executor is handed. Carries the pass
  /// annotations: folded-out sides, a pushed-down window, the canonical
  /// cache key.
  kScore,
  /// Top-k selection over the eligible pool (Sec. 2.4.1 window semantics).
  kWindow,
  /// Eq. 3 expert aggregation over the windowed resources. Interpreted by
  /// the core layer (it owns the association tables); recorded in the plan
  /// so explain output shows the full pipeline.
  kAggregate,
  /// Incremental fan-in: execute the child Score over [frozen base runs +
  /// delta runs] with live collection statistics, tombstoned documents
  /// failing the eligibility filter (DESIGN.md §16). Wrapped around the
  /// Score by `DeltaFanInPass` when the serving index has uncompacted
  /// mutations; carries no payload of its own, so plan text stays a pure
  /// function of the request and serving configuration.
  kDeltaFanIn,
  /// Scatter: execute the child Score subtree on each of `num_shards`
  /// doc-partitioned shards, each returning its top `per_shard_limit`
  /// eligible docs (0 = all).
  kShardFanout,
  /// Gather: merge per-shard prefixes on the global doc axis under the
  /// strict (score desc, global doc asc) total order.
  kMerge,
};

/// Stable lower_snake name of `kind` (used by `ToString` and golden tests).
const char* PlanNodeKindName(PlanNodeKind kind);

/// A window specification: fixed `size` wins when positive, otherwise
/// `fraction` of the eligible pool, otherwise everything.
struct WindowSpec {
  int size = 0;
  double fraction = 0.0;
};

/// Resolves `spec` over `eligible` resources — the single window-semantics
/// implementation (`ExpertFinder::ResolveWindow` delegates here).
size_t ResolveWindowSpec(size_t eligible, const WindowSpec& spec);

/// One node of the plan tree. A deliberately plain tagged struct (no
/// virtual hierarchy): passes rewrite plans by value, and only the fields
/// of the active `kind` are meaningful.
struct PlanNode {
  PlanNodeKind kind = PlanNodeKind::kScore;
  std::vector<PlanNode> children;

  // kTermLeaf
  std::string term;
  uint32_t qtf = 0;

  // kEntityLeaf
  entity::EntityId entity = entity::kInvalidEntityId;
  uint32_t qef = 0;

  // kScore
  /// The resolved Eq. 1 blend for this call (config value with any
  /// per-call override applied at lowering time).
  double alpha = 0.0;
  /// Execution arm: frozen-arena compiled scoring vs the retained legacy
  /// hash-map scorer. Selected by the lowering options (a per-finder
  /// constant); both arms return the same bytes.
  bool use_compiled = false;
  /// Set by the constant-α folding pass: the `α·Σ_t …` factor is exactly
  /// zero, so term leaves are dead (prunable without touching any score
  /// bit — see `FoldConstantAlphaPass`).
  bool terms_folded_out = false;
  /// Likewise for `(1−α)·Σ_e …` at α == 1.
  bool entities_folded_out = false;
  /// Set by the window-pushdown pass: select only this many top docs
  /// inside the scorer (`TakeTop`) instead of full-sorting and truncating
  /// at the enclosing Window node.
  std::optional<WindowSpec> pushed_window;
  /// Set by the block-max pruning pass: execute this compiled Score
  /// through the MaxScore skip kernel (`AccumulatePrunedTopK`) instead of
  /// exhaustive accumulation. Only ever set when a fixed top-k bound is
  /// known up front — a fixed `pushed_window`, or a fanout child's
  /// positive `per_shard_limit` — because the skip threshold is the
  /// running k-th-best score (see `PruneBlockMaxPass` for the safety
  /// argument). Rankings stay bit-identical; matched/eligible stats become
  /// lower bounds.
  bool pruned = false;
  /// Injective canonical key of this Score subtree (set by the cache-key
  /// canonicalization pass); equal keys imply equal leaf sequences, so a
  /// plan-cache hit is exactly the compiled form a fresh compile returns.
  std::string cache_key;

  // kWindow
  WindowSpec window;

  // kAggregate
  /// Label of the Eq. 3 aggregation mode ("weighted_sum" / "votes" /
  /// "max_resource"); the core executor owns the actual enum.
  std::string aggregation;

  // kShardFanout
  int num_shards = 1;
  /// Per-shard prefix bound (0 = each shard returns its full eligible
  /// ranking — required for fraction windows, whose cutoff depends on the
  /// cross-shard eligible total).
  size_t per_shard_limit = 0;
};

/// A lowered query plan: the root is the outermost stage (Aggregate for
/// every rank lowering).
struct QueryPlan {
  PlanNode root;
};

/// Pre-order search for the first node of `kind`; null when absent.
const PlanNode* FindNode(const PlanNode& root, PlanNodeKind kind);
PlanNode* FindNode(PlanNode* root, PlanNodeKind kind);

/// Deterministic, human-readable rendering of the plan tree — the explain
/// format (DESIGN.md §13) and the golden-test surface. Pure function of
/// the plan: no pointers, no timings, no iteration-order dependence.
std::string ToString(const QueryPlan& plan);
std::string ToString(const PlanNode& node);

/// The injective canonical serialization of a Score subtree's leaf
/// sequence: term leaves as `term 0x1f qtf 0x1f`, a 0x1e divider, entity
/// leaves as fixed-width little-endian (id, qef) pairs. Analyzed terms
/// cannot contain the 0x1f/0x1e separators (the text pipeline strips
/// control bytes), so equal keys imply equal leaf sequences. Alpha is
/// deliberately excluded: compiled queries are alpha-independent, so
/// per-call alpha overrides share cache entries with configured serving.
std::string CanonicalScoreKey(const PlanNode& score);

/// Hex-escapes the non-printable bytes of a canonical key for explain
/// output and logs (`\x1f` -> "\x1f" spelled out).
std::string EscapeKey(const std::string& key);

/// Outcome of one pass over one plan, in pipeline order.
struct PassTrace {
  std::string pass;
  /// True when the pass rewrote or annotated the plan.
  bool changed = false;
};

/// The deterministic explain payload attached to a ranking when
/// `RankRequest::explain` is set: the post-pass plan tree, the canonical
/// cache key, and the per-pass outcomes. Wall-clock pass timings go to the
/// `plan.*` metrics family instead, keeping this struct a pure function of
/// the request and serving configuration.
struct PlanExplain {
  std::string plan_text;
  std::string canonical_key;
  std::vector<PassTrace> passes;
  /// True when the compiled form was served from the plan cache.
  bool cache_hit = false;
  /// True when retrieval scored over [frozen base + live delta] — the
  /// DeltaFanIn stage ran (sharded: on at least one shard).
  bool delta_read = false;
  /// True when a pruned Score ran exhaustively because a delta was live.
  bool prune_declined = false;
};

}  // namespace crowdex::plan

#endif  // CROWDEX_PLAN_PLAN_H_
