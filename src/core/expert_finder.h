#ifndef CROWDEX_CORE_EXPERT_FINDER_H_
#define CROWDEX_CORE_EXPERT_FINDER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/analyzed_world.h"
#include "core/config.h"
#include "core/corpus_index.h"
#include "core/runtime_context.h"
#include "plan/executor.h"
#include "plan/passes.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "synth/query_set.h"

namespace crowdex::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace crowdex::obs

namespace crowdex::index {
class DeltaState;
}  // namespace crowdex::index

namespace crowdex::core {

class IndexWriter;

/// One ranked candidate expert.
struct ExpertScore {
  /// Candidate index in `SyntheticWorld::candidates`.
  int candidate = -1;
  /// The Eq. 3 expertise score (strictly positive in rankings).
  double score = 0.0;
};

/// The outcome of ranking one expertise need.
struct RankedExperts {
  /// Experts with positive score, best first; ties broken by candidate
  /// index for determinism. Candidates with no matching resources are
  /// absent (the paper's EX ⊆ CE).
  std::vector<ExpertScore> ranking;
  /// Number of resources the query matched in the corpus (|RR| before the
  /// reachability filter).
  size_t matched_resources = 0;
  /// Matching resources reachable from at least one candidate (|RR| after
  /// the filter — the pool the window applies to).
  size_t reachable_resources = 0;
  /// Resources actually used by Eq. 3 after windowing (|RR*|).
  size_t considered_resources = 0;
  /// The executed query plan, set only when `RankRequest::explain` was
  /// requested (null otherwise): the post-pass plan tree, the canonical
  /// cache key, the per-pass outcomes, and whether the compiled form came
  /// from the plan cache. Deterministic for a fixed request and serving
  /// configuration (DESIGN.md §13).
  std::shared_ptr<const plan::PlanExplain> explain;
};

/// The canonical description of one ranking call — the single entry point
/// every serving surface (in-process, batch, snapshot-served) goes
/// through. Exactly one query form is used: `analyzed` when non-null
/// (precedence), otherwise `text` is run through the finder's query
/// analyzer. The optional fields override the finder's configuration for
/// this call only; absent fields keep the configured values, so
/// `Rank({.text = t})` is the configured default ranking.
struct RankRequest {
  /// Free-form expertise need; analyzed with the finder's extractor.
  std::string text;
  /// Pre-analyzed query (borrowed for the call). Takes precedence over
  /// `text` when non-null — batch callers analyze once, rank many times.
  const index::AnalyzedQuery* analyzed = nullptr;
  /// Per-call override of `ExpertFinderConfig::alpha` (Eq. 1 blend). Must
  /// be in [0, 1]. Compiled queries are alpha-independent, so overrides
  /// hit the same cache entries as configured serving.
  std::optional<double> alpha;
  /// Per-call override of `ExpertFinderConfig::window_size`; <= 0 defers
  /// to the (possibly also overridden) window fraction.
  std::optional<int> window_size;
  /// Per-call override of `ExpertFinderConfig::window_fraction`.
  std::optional<double> window_fraction;
  /// When true, the ranking carries a `PlanExplain` describing the
  /// executed plan (`RankedExperts::explain`). Explaining never changes
  /// the ranking — the same plan executes either way.
  bool explain = false;
};

struct FinderShard;

/// One piece of evidence explaining a candidate's expertise score: a
/// resource that matched the query and is socially connected to them.
struct ResourceEvidence {
  platform::Platform platform = platform::Platform::kFacebook;
  graph::NodeId node = graph::kInvalidNodeId;
  /// Graph distance of the resource from the candidate (Table 1).
  int distance = 0;
  /// The resource's Eq. 1 relevance, score(q, r).
  double resource_score = 0.0;
  /// Its contribution to the candidate's Eq. 3 score:
  /// score(q, r) · wr(r, ex).
  double contribution = 0.0;
};

/// The social expert finding system of Fig. 1: matches an expertise need
/// against the analyzed social resources (Eq. 1–2) and ranks candidate
/// experts by aggregating resource relevance over their social
/// neighborhood (Eq. 3, Table 1 distances).
///
/// Every ranking call lowers to an explicit query plan (DESIGN.md §13):
/// the analyzed query plus the resolved parameters become an
/// Aggregate → Window → Score → leaves tree, the serving pass pipeline
/// rewrites it (constant-α folding, dead-leaf pruning, window pushdown,
/// cache-key canonicalization), and the plan executor interprets it
/// against the frozen corpus index. The default compiled arm compiles the
/// plan's leaf groups once (string hashing and bag construction happen at
/// compile time, not per posting), scores through a dense epoch-tagged
/// accumulator, and top-k-selects to the pushed-down window instead of
/// fully sorting; compiled forms are cached in a bounded LRU keyed by the
/// canonical plan key. Rankings are bit-identical to the retained legacy
/// arm (`ExpertFinderConfig::compiled_queries = false`) for every
/// configuration, thread count, and cache state, and `RankRequest::explain`
/// returns the executed plan.
class ExpertFinder {
 public:
  /// One doc -> candidate association: `candidate` reaches the resource at
  /// social-graph `distance` (Table 1). Public so scatter-gather fragments
  /// can carry borrowed association lists to the merge tier.
  struct Association {
    int candidate;
    int distance;
  };

  /// The effective ranking parameters of one call: the finder's configured
  /// values with any `RankRequest` overrides applied.
  struct RankParams {
    double alpha;
    int window_size;
    double window_fraction;
  };

  /// Applies (and validates) `request`'s per-call overrides against
  /// `config` — the single override-resolution path shared by `Rank` and
  /// the shard router, so sharded serving accepts and rejects exactly the
  /// requests unsharded serving does. `kInvalidArgument` when an override
  /// is out of range (`alpha` outside [0, 1], effective `window_fraction`
  /// outside [0, 1] while no fixed window is set).
  static Result<RankParams> ResolveParams(const ExpertFinderConfig& config,
                                          const RankRequest& request);

  /// Resolves the effective window over `eligible` reachable resources
  /// (Sec. 2.4.1 semantics, shared by both serving paths and by the shard
  /// router, which applies it to the cross-shard eligible total).
  static size_t ResolveWindow(size_t eligible, const RankParams& params);

  /// One windowed scored resource of a scatter-gather fragment, carrying
  /// its association list (borrowed from the finder that produced it, valid
  /// for the finder's lifetime).
  struct FragmentEntry {
    /// Shard-local doc id (ascending local id == ascending global id under
    /// the order-preserving partition).
    index::DocId doc = 0;
    double score = 0.0;
    const std::vector<Association>* associations = nullptr;
  };

  /// The retrieval half of one shard's contribution to a scatter-gather
  /// rank: this finder's top eligible resources plus the match statistics
  /// the router needs for global window resolution and accurate coverage
  /// accounting.
  struct RankFragment {
    /// Top `limit` eligible resources by (score desc, local doc asc) — an
    /// exact prefix of the shard's full eligible ranking.
    std::vector<FragmentEntry> entries;
    /// Resources with positive Eq. 1 score in this shard.
    size_t matched = 0;
    /// Matched resources passing the reachability filter in this shard.
    size_t eligible = 0;
    /// True when this shard scored over a live delta, and when that made
    /// a pruned Score run exhaustively (the router's explain reports both).
    bool delta_read = false;
    bool prune_declined = false;
  };

  /// Validates the inputs and builds a finder over `analyzed` with
  /// `config`. Without `shared_index` a private corpus index is
  /// constructed for `config.platforms` (sharded across `ctx.pool` when
  /// one is given); passing a `shared_index` that covers
  /// `config.platforms` instead is the cheap path for parameter sweeps.
  /// Returns `kInvalidArgument` — never aborts — when `analyzed` is null
  /// or incomplete, `config` fails `Validate()`, or `shared_index` does
  /// not cover the configured platforms, and propagates the build error of
  /// the private corpus index when its bulk add fails. `analyzed`,
  /// `shared_index`, and the finder's own index must outlive the finder;
  /// `ctx.pool` is only used during this call.
  ///
  /// A non-null `ctx.metrics` (which must outlive the finder) instruments
  /// every `Rank`: per-query matched/reachable/windowed resource counts
  /// (`rank.*` counters), a wall-clock rank latency histogram
  /// (`rank.latency_ms`), plan-cache traffic (`rank.plan_cache.hits` /
  /// `.misses` / `.evictions`), and per-pass plan-pipeline timings
  /// (`plan.pass.<name>.ms` / `.applied`). Rankings are bit-identical with
  /// metrics on, off, or shared across finders.
  static Result<ExpertFinder> Create(const AnalyzedWorld* analyzed,
                                     const ExpertFinderConfig& config,
                                     const CorpusIndex* shared_index = nullptr,
                                     const RuntimeContext& ctx = {});

  ExpertFinder(const ExpertFinder&) = delete;
  ExpertFinder& operator=(const ExpertFinder&) = delete;
  ExpertFinder(ExpertFinder&&) = default;
  ExpertFinder& operator=(ExpertFinder&&) = default;

  /// The canonical ranking entry point: every other `Rank*` signature is a
  /// thin wrapper over this one. Resolves the query (pre-analyzed form
  /// takes precedence, otherwise `request.text` goes through the query
  /// analyzer), applies the per-call overrides, and ranks. Thread-safe.
  /// Returns `kInvalidArgument` when an override is out of range
  /// (`alpha` outside [0, 1], `window_fraction > 1` while the effective
  /// window size is <= 0); override-free requests cannot fail.
  Result<RankedExperts> Rank(const RankRequest& request) const;

  /// DEPRECATED: thin wrapper over `Rank(const RankRequest&)` — call the
  /// canonical entry point with `{.text = query.text}` instead. Scheduled
  /// for removal one release after v3 (DESIGN.md, deprecations).
  RankedExperts Rank(const synth::ExpertiseNeed& query) const;

  /// DEPRECATED: thin wrapper over `Rank(const RankRequest&)` — call the
  /// canonical entry point with `{.text = query_text}` instead. Scheduled
  /// for removal one release after v3 (DESIGN.md, deprecations).
  RankedExperts RankText(const std::string& query_text) const;

  /// DEPRECATED: thin wrapper over `Rank(const RankRequest&)` — call the
  /// canonical entry point with `{.analyzed = &query}` instead. Scheduled
  /// for removal one release after v3 (DESIGN.md, deprecations).
  RankedExperts RankAnalyzed(const index::AnalyzedQuery& query) const;

  /// Ranks every query in `queries`, fanning the list out across
  /// `ctx.pool` (when given) with one dense score accumulator per worker
  /// thread. Results are committed into slots indexed by query position,
  /// so the output vector is identical — element for element, bit for bit
  /// — to calling `Rank` in a loop, at any thread count.
  std::vector<RankedExperts> RankBatch(
      const std::vector<synth::ExpertiseNeed>& queries,
      const RuntimeContext& ctx = {}) const;

  /// Persists this finder's complete serving state — the frozen index and
  /// the association tables — as one checksummed snapshot at `path`
  /// (atomic rename; see io/snapshot.h for the format). `epoch` is the
  /// caller's version number for the artifact and `fingerprint` an opaque
  /// digest of the inputs (corpus seed/scale, analyzer options, ...) that
  /// the loader must present to deserialize. Requires the frozen compiled
  /// serving form (`kFailedPrecondition` otherwise). Snapshot bytes are a
  /// pure function of the serving state: any thread count, same file.
  /// `ctx.metrics` records `snapshot.save_ms` / `snapshot.bytes`.
  Status SaveSnapshot(uint64_t epoch, uint64_t fingerprint,
                      const std::string& path,
                      const RuntimeContext& ctx = {}) const;

  /// Cold-start path: restores a finder from a snapshot written by
  /// `SaveSnapshot`, skipping crawl → analyze → build → freeze entirely.
  /// The restored finder serves rankings bit-identical to the one that
  /// saved the snapshot. `extractor` (non-null, outliving the finder)
  /// analyzes incoming query text — typically built from the same
  /// knowledge base as the saving process, which is what `fingerprint`
  /// should attest; a mismatch against the stored fingerprint returns
  /// `kFailedPrecondition`. Corrupt files return `kDataLoss` /
  /// `kInvalidArgument` (see io/snapshot.h) and never a partial finder.
  /// `ctx.metrics` records `snapshot.load_ms` and becomes the finder's
  /// registry, as in `Create`.
  static Result<ExpertFinder> FromSnapshotFile(const std::string& path,
                                               uint64_t expected_fingerprint,
                                               const platform::ResourceExtractor* extractor,
                                               const RuntimeContext& ctx = {});

  /// The snapshot epoch this finder was restored from (0 for finders built
  /// in-process by `Create`).
  uint64_t snapshot_epoch() const { return epoch_; }

  /// Number of distinct resources reachable from `candidate` under this
  /// configuration (indexed English resources only). Fig. 10's x-axis.
  size_t ReachableResources(int candidate) const;

  /// Explains why `candidate` scores what it scores for `query_text`: the
  /// top `top_k` windowed resources connected to the candidate, by
  /// descending contribution. Useful for routing UIs ("asking Alice
  /// because of her tweet about Phelps' freestyle gold").
  std::vector<ResourceEvidence> Explain(const std::string& query_text,
                                        int candidate, size_t top_k) const;

  const ExpertFinderConfig& config() const { return config_; }
  const CorpusIndex& corpus() const { return *index_; }

  /// Number of candidate experts this finder ranks over (the Eq. 3
  /// accumulation width — sharded merges size their tables with it).
  size_t num_candidates() const { return num_candidates_; }

  /// True when queries are served through the compiled path (config flag
  /// on and the corpus index is frozen).
  bool serving_compiled() const { return compiled_path_; }

  /// Plan-cache traffic (all zero when the cache is off). The plan cache
  /// subsumed the old compiled-query cache: entries are keyed by the
  /// canonical key of the post-pass Score subtree, so pruned plans cache
  /// their own (smaller) compiled forms. Exported as the `rank.plan_cache.*`
  /// counters (the sole cache counter family — the transitional
  /// `rank.query_cache.*` aliases and the `query_cache_stats()` accessor
  /// were removed once dashboards migrated).
  plan::PlanCache::Stats plan_cache_stats() const;

  /// Analyzes `request` into the query form ranking consumes: returns
  /// `request.analyzed` when set (borrowed), otherwise analyzes
  /// `request.text` into `*storage` and returns its address. Exposed so
  /// the shard router analyzes once and fans the same query to every
  /// shard — byte-identical to each shard analyzing independently, since
  /// all shards share the extractor.
  const index::AnalyzedQuery* AnalyzeQueryText(const RankRequest& request,
                                               index::AnalyzedQuery* storage) const;

  /// Scatter half of a sharded rank: this finder's top `limit` eligible
  /// resources for `query` under `params` (by score desc, local doc asc —
  /// the same strict total order `Rank` uses), with `limit = 0` meaning
  /// all eligible resources. Entries borrow association lists from this
  /// finder. Requires the frozen compiled serving path
  /// (`kFailedPrecondition` otherwise); thread-safe like `Rank`.
  Result<RankFragment> RetrieveFragment(const index::AnalyzedQuery& query,
                                        const RankParams& params,
                                        size_t limit) const;

  /// Plan-level scatter entry point: executes an already-lowered and
  /// pass-optimized Score subtree against this finder's shard of the
  /// corpus, returning the top `limit` eligible resources (`limit == 0`
  /// means all). The router lowers ONE plan per sharded rank and fans the
  /// same Score node to every shard — each shard resolves it against its
  /// own dictionaries and plan cache. `RetrieveFragment` is a thin wrapper
  /// that lowers its own plan and delegates here. Requires the frozen
  /// compiled serving path (`kFailedPrecondition` otherwise); thread-safe.
  Result<RankFragment> ExecuteFragmentPlan(const plan::PlanNode& score,
                                           size_t limit) const;

  /// Gather half of a sharded rank: runs the Eq. 3 aggregation loop over
  /// `windowed` entries (already globally windowed, in global score-desc /
  /// doc-asc order) exactly as `Rank` runs it over one index, so the
  /// floating-point summation order — and therefore every bit of every
  /// score — matches unsharded serving. `num_candidates` sizes the
  /// accumulation table.
  static std::vector<ExpertScore> AggregateExperts(
      const ExpertFinderConfig& config, size_t num_candidates,
      const std::vector<FragmentEntry>& windowed);

  /// Splits this finder into `num_shards` doc-partitioned shard finders,
  /// each serving the contiguous global doc range starting at its
  /// `doc_base` (order-preserving: ascending local id == ascending global
  /// id). Shard indexes keep the GLOBAL collection statistics (irf/eirf),
  /// so per-doc Eq. 1 scores are bit-identical to the unsharded index and
  /// a merged ranking is exact, not approximate. Requires the frozen
  /// compiled serving form (`kFailedPrecondition` otherwise). Shard
  /// finders borrow this finder's extractor; they carry no metrics
  /// registry of their own (the router owns `shard.*` observability).
  Result<std::vector<FinderShard>> PartitionShards(
      int num_shards, const RuntimeContext& ctx = {}) const;

 private:
  /// The mutation API (core/index_writer.h) attaches the delta state, grows
  /// the association tables as documents are upserted, and rebuilds the
  /// serving state after compaction — all through this friendship, so the
  /// public surface of the finder stays read-only.
  friend class IndexWriter;

  /// Invariant-holding constructor: inputs already validated by `Create`.
  ExpertFinder(const AnalyzedWorld* analyzed, const ExpertFinderConfig& config,
               std::unique_ptr<CorpusIndex> owned_index,
               const CorpusIndex* index, obs::MetricsRegistry* metrics);

  /// Snapshot-restoring constructor (see serving.cc): the association
  /// state is filled in by `FromSnapshotFile` after construction.
  ExpertFinder(const ExpertFinderConfig& config,
               std::unique_ptr<CorpusIndex> owned_index,
               const platform::ResourceExtractor* extractor,
               uint32_t num_candidates, uint64_t epoch,
               obs::MetricsRegistry* metrics);

  /// Shared tail of both constructors: resolves the serving path, the
  /// plan cache, the pass pipeline, and the metric handles from the
  /// already-set members.
  void InitServingState();

  void BuildAssociations();
  RankedExperts RankWithParams(const index::AnalyzedQuery& query,
                               const RankParams& params, bool explain) const;

  /// Shared body of the infallible wrappers (`Rank(ExpertiseNeed)`,
  /// `RankText`, `RankAnalyzed`): one `ResolveParams`-based validation
  /// path through `Rank`, aborting with `caller` context on the errors
  /// override-free requests cannot produce.
  RankedExperts RankChecked(const RankRequest& request,
                            const char* caller) const;

  /// Lowers `query` + `params` into the canonical plan and runs the
  /// serving pass pipeline over it. `trace` (when non-null) receives the
  /// per-pass outcomes for explain output.
  plan::QueryPlan PlanFor(const index::AnalyzedQuery& query,
                          const RankParams& params,
                          std::vector<plan::PassTrace>* trace) const;

  /// The execution context every plan executes against: this finder's
  /// frozen index, reachability bytes, plan cache, delta layer, and the
  /// calling thread's accumulator.
  plan::ExecContext MakeExecContext() const;

  /// Folds one retrieval outcome into the metric counters: cache traffic
  /// into `rank.plan_cache.*`, block-max pruning work into `rank.prune.*`,
  /// kernel work into `rank.kernel.*`, live-delta reads into
  /// `rank.delta.*`. The SINGLE recording point for every executor arm.
  void RecordRetrievalTraffic(const plan::RetrievalOutcome& outcome) const;

  /// The retrieval front half shared by Rank and Explain: lowers the
  /// query to a plan, optimizes it, and executes it — matched ->
  /// reachability filter -> window. Returns the windowed scored docs.
  /// The plan selects the compiled top-k arm or the retained legacy
  /// full-sort arm from `compiled_path_`, and the live-delta arm while a
  /// delta is active; all return the same bytes.
  /// When `explain` is non-null it receives the deterministic
  /// `PlanExplain` of the executed plan.
  std::vector<index::ScoredDoc> WindowedResources(
      const index::AnalyzedQuery& query, const RankParams& params,
      RankedExperts* stats,
      std::shared_ptr<const plan::PlanExplain>* explain = nullptr) const;

  /// Null for snapshot-restored finders — everything the ranking paths
  /// need from the analyzed world is captured in `num_candidates_`,
  /// `extractor_`, and the association tables below.
  const AnalyzedWorld* analyzed_;
  ExpertFinderConfig config_;
  std::unique_ptr<CorpusIndex> owned_index_;
  const CorpusIndex* index_;
  /// Query analyzer (borrowed): `analyzed_->extractor` for built finders,
  /// the caller-provided extractor for snapshot-restored ones.
  const platform::ResourceExtractor* extractor_ = nullptr;
  /// Number of candidate experts — `world->candidates.size()` when built,
  /// the persisted count when restored.
  uint32_t num_candidates_ = 0;
  /// Snapshot epoch this finder was restored from; 0 when built in-process.
  uint64_t epoch_ = 0;
  bool compiled_path_ = false;
  /// Null = off; thread-safe, shared by concurrent Rank calls. Keyed by
  /// the canonical plan key of the post-pass Score subtree.
  mutable std::unique_ptr<plan::PlanCache> plan_cache_;
  /// The serving pass pipeline (single-index: no fanout stage), built once
  /// at construction; `Run` is const and thread-safe.
  plan::PassManager pass_manager_;
  /// Null = observability off. Instrument handles are resolved once at
  /// construction so the per-query hot path never takes the registry lock.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* rank_queries_ = nullptr;
  obs::Counter* rank_matched_ = nullptr;
  obs::Counter* rank_reachable_ = nullptr;
  obs::Counter* rank_considered_ = nullptr;
  /// `rank.plan_cache.*` — the canonical (and only) cache counter family;
  /// the transitional `rank.query_cache.*` aliases are gone.
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_evictions_ = nullptr;
  /// `rank.prune.*` — block-max pruning work counters (zero unless
  /// `blockmax_pruning` serving is on); `declined` counts pruned plans a
  /// live delta made run exhaustively.
  obs::Counter* prune_blocks_skipped_ = nullptr;
  obs::Counter* prune_blocks_scored_ = nullptr;
  obs::Counter* prune_docs_skipped_ = nullptr;
  obs::Counter* prune_declined_ = nullptr;
  /// `rank.delta.*` — ranks scored over a live delta and the delta
  /// postings they scanned.
  obs::Counter* delta_reads_ = nullptr;
  obs::Counter* delta_postings_ = nullptr;
  /// `rank.kernel.*` — scoring-kernel work counters (runs = posting-run
  /// kernel dispatches over base and delta runs, prefetches = software
  /// prefetches issued); the
  /// `rank.kernel.name` gauge carries the active tier's ordinal.
  obs::Counter* kernel_runs_ = nullptr;
  obs::Counter* kernel_prefetches_ = nullptr;
  obs::Histogram* rank_latency_ms_ = nullptr;
  /// Incremental mutation layer over the frozen index (DESIGN.md §16);
  /// null until an `IndexWriter` attaches. Shared with the writer: the
  /// finder reads it under `DeltaReadGuard` on every serving path, the
  /// writer mutates it under the unique lock.
  std::shared_ptr<index::DeltaState> delta_;
  /// packed (platform, node) -> candidates that reach it, with distance.
  std::unordered_map<uint64_t, std::vector<Association>> associations_;
  /// Per-DocId view of `associations_` for the ranking hot path: the
  /// association list of each indexed doc (null when unreachable) and a
  /// reachability byte per doc (the eligibility filter handed to the
  /// compiled retrieval). Pointees live in `associations_`, whose values
  /// are address-stable for the finder's lifetime.
  std::vector<const std::vector<Association>*> doc_associations_;
  std::vector<uint8_t> reachable_bits_;
  /// Per-candidate count of distinct reachable indexed resources.
  std::vector<size_t> reachable_counts_;
};

/// One doc-partitioned shard of a finder: a self-contained serving-only
/// `ExpertFinder` over the contiguous global doc range starting at
/// `doc_base`. Global doc id = `doc_base` + shard-local doc id.
struct FinderShard {
  ExpertFinder finder;
  /// First global `DocId` served by this shard.
  index::DocId doc_base = 0;
};

}  // namespace crowdex::core

#endif  // CROWDEX_CORE_EXPERT_FINDER_H_
