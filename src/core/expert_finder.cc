#include "core/expert_finder.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "common/thread_pool.h"
#include "index/delta.h"
#include "index/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace crowdex::core {

namespace {

/// Dense scoring scratch for the compiled and live-delta paths. One per
/// thread:
/// `Rank` is const and called concurrently (evaluation fan-out, batch
/// serving), and the accumulator grows to the largest index this thread
/// has served, then gets reused — the "reusable vector + generation
/// stamps" that replaces the per-query hash map.
index::ScoreAccumulator& LocalAccumulator() {
  static thread_local index::ScoreAccumulator acc;
  return acc;
}

}  // namespace

Result<ExpertFinder> ExpertFinder::Create(const AnalyzedWorld* analyzed,
                                          const ExpertFinderConfig& config,
                                          const CorpusIndex* shared_index,
                                          const RuntimeContext& ctx) {
  if (analyzed == nullptr) {
    return Status::InvalidArgument("ExpertFinder: analyzed world is null");
  }
  if (analyzed->world == nullptr || analyzed->extractor == nullptr) {
    return Status::InvalidArgument(
        "ExpertFinder: analyzed world is incomplete (did AnalyzeWorld run?)");
  }
  CROWDEX_RETURN_IF_ERROR(config.Validate());
  if (shared_index != nullptr &&
      (config.platforms & ~shared_index->mask()) != 0) {
    return Status::InvalidArgument(
        "ExpertFinder: shared index does not cover the configured platforms");
  }
  std::unique_ptr<CorpusIndex> owned;
  const CorpusIndex* index = shared_index;
  if (index == nullptr) {
    owned = std::make_unique<CorpusIndex>(analyzed, config.platforms,
                                          ctx.pool, ctx.metrics);
    // A failed bulk add commits nothing; surface it instead of serving
    // queries from an empty index.
    CROWDEX_RETURN_IF_ERROR(owned->build_status());
    index = owned.get();
  }
  return ExpertFinder(analyzed, config, std::move(owned), index, ctx.metrics);
}

ExpertFinder::ExpertFinder(const AnalyzedWorld* analyzed,
                           const ExpertFinderConfig& config,
                           std::unique_ptr<CorpusIndex> owned_index,
                           const CorpusIndex* index,
                           obs::MetricsRegistry* metrics)
    : analyzed_(analyzed),
      config_(config),
      owned_index_(std::move(owned_index)),
      index_(index),
      extractor_(analyzed->extractor.get()),
      num_candidates_(
          static_cast<uint32_t>(analyzed->world->candidates.size())),
      metrics_(metrics) {
  InitServingState();
  obs::StageTimer timer(metrics_, "build_associations");
  BuildAssociations();
}

void ExpertFinder::InitServingState() {
  compiled_path_ =
      config_.compiled_queries && index_->search_index().frozen();
  if (compiled_path_ && config_.query_cache_capacity > 0) {
    plan_cache_ = std::make_unique<plan::PlanCache>(
        static_cast<size_t>(config_.query_cache_capacity));
  }
  plan::PipelineOptions popts;
  popts.blockmax = config_.blockmax_pruning;
  popts.delta = delta_.get();
  pass_manager_ = plan::PassManager::ServingPipeline(popts);
  pass_manager_.AttachMetrics(metrics_);
  if (metrics_ != nullptr) {
    rank_queries_ = metrics_->counter("rank.queries");
    rank_matched_ = metrics_->counter("rank.matched_resources");
    rank_reachable_ = metrics_->counter("rank.reachable_resources");
    rank_considered_ = metrics_->counter("rank.considered_resources");
    cache_hits_ = metrics_->counter("rank.plan_cache.hits");
    cache_misses_ = metrics_->counter("rank.plan_cache.misses");
    cache_evictions_ = metrics_->counter("rank.plan_cache.evictions");
    prune_blocks_skipped_ = metrics_->counter("rank.prune.blocks_skipped");
    prune_blocks_scored_ = metrics_->counter("rank.prune.blocks_scored");
    prune_docs_skipped_ = metrics_->counter("rank.prune.docs_skipped");
    prune_declined_ = metrics_->counter("rank.prune.declined");
    delta_reads_ = metrics_->counter("rank.delta.reads");
    delta_postings_ = metrics_->counter("rank.delta.postings");
    kernel_runs_ = metrics_->counter("rank.kernel.runs");
    kernel_prefetches_ = metrics_->counter("rank.kernel.prefetches");
    // The active scoring-kernel tier as its KernelTier ordinal
    // (0 = scalar, 1 = sse2, 2 = avx2) — metrics are numeric, so the
    // name exports as the enum value (DESIGN.md §15 has the mapping).
    metrics_->gauge("rank.kernel.name")
        ->Set(static_cast<int64_t>(index::kernels::ActiveTier()));
    rank_latency_ms_ = metrics_->histogram("rank.latency_ms");
  }
}

void ExpertFinder::BuildAssociations() {
  const synth::SyntheticWorld& world = *analyzed_->world;
  const int num_candidates = static_cast<int>(world.candidates.size());
  reachable_counts_.assign(num_candidates, 0);

  graph::CollectOptions collect;
  collect.max_distance = config_.max_distance;
  collect.include_friends = config_.include_friends;

  for (platform::Platform p : platform::kAllPlatforms) {
    if (!platform::MaskContains(config_.platforms, p)) continue;
    const int pidx = static_cast<int>(p);
    const platform::PlatformNetwork& net = world.networks[pidx];
    const platform::AnalyzedCorpus& corpus = analyzed_->corpora[pidx];

    for (int u = 0; u < num_candidates; ++u) {
      graph::NodeId profile = world.candidate_profiles[pidx][u];
      auto resources = net.graph.CollectResources(profile, collect);
      if (!resources.ok()) continue;
      for (const graph::ResourceAtDistance& r : resources.value()) {
        const platform::AnalyzedNode& node = corpus.nodes[r.node];
        if (!node.english || node.terms.empty()) continue;
        uint64_t key = PlatformNodeKey{p, r.node}.Pack();
        associations_[key].push_back({u, r.distance});
        ++reachable_counts_[u];
      }
    }
  }

  // Project the association map onto dense DocId-indexed arrays: the
  // ranking hot path replaces one hash probe per matched/windowed resource
  // with an array load, and the byte vector doubles as the eligibility
  // filter of the compiled retrieval. Values of `associations_` are
  // address-stable (node-based map, never mutated after this point).
  const index::SearchIndex& si = index_->search_index();
  const size_t docs = si.size();
  doc_associations_.assign(docs, nullptr);
  reachable_bits_.assign(docs, 0);
  for (index::DocId d = 0; d < docs; ++d) {
    auto it = associations_.find(si.external_id(d));
    if (it != associations_.end()) {
      doc_associations_[d] = &it->second;
      reachable_bits_[d] = 1;
    }
  }
}

Result<ExpertFinder::RankParams> ExpertFinder::ResolveParams(
    const ExpertFinderConfig& config, const RankRequest& request) {
  RankParams params{config.alpha, config.window_size,
                    config.window_fraction};
  if (request.alpha.has_value()) {
    if (!(*request.alpha >= 0.0 && *request.alpha <= 1.0)) {
      return Status::InvalidArgument(
          "RankRequest: alpha override must be in [0, 1]");
    }
    params.alpha = *request.alpha;
  }
  if (request.window_size.has_value()) params.window_size = *request.window_size;
  if (request.window_fraction.has_value()) {
    params.window_fraction = *request.window_fraction;
  }
  // Mirror ExpertFinderConfig::Validate: a fraction only applies when no
  // fixed window is set, and then it must not exceed 1.
  if (params.window_size <= 0 &&
      (params.window_fraction > 1.0 || params.window_fraction < 0.0)) {
    return Status::InvalidArgument(
        "RankRequest: effective window_fraction must be in [0, 1] when no "
        "fixed window size is set");
  }
  return params;
}

const index::AnalyzedQuery* ExpertFinder::AnalyzeQueryText(
    const RankRequest& request, index::AnalyzedQuery* storage) const {
  if (request.analyzed != nullptr) return request.analyzed;
  *storage = extractor_->AnalyzeQuery(request.text);
  return storage;
}

Result<RankedExperts> ExpertFinder::Rank(const RankRequest& request) const {
  Result<RankParams> params = ResolveParams(config_, request);
  CROWDEX_RETURN_IF_ERROR(params.status());
  index::AnalyzedQuery storage;
  const index::AnalyzedQuery* query = AnalyzeQueryText(request, &storage);
  return RankWithParams(*query, params.value(), request.explain);
}

RankedExperts ExpertFinder::RankChecked(const RankRequest& request,
                                        const char* caller) const {
  // Override-free requests cannot fail, so the wrappers stay infallible:
  // validation happens on the one ResolveParams path inside Rank, and a
  // failure here would mean the wrapper passed an override it never takes.
  Result<RankedExperts> out = Rank(request);
  CheckOk(out.status(), caller);
  return std::move(out).value();
}

RankedExperts ExpertFinder::Rank(const synth::ExpertiseNeed& query) const {
  return RankText(query.text);
}

RankedExperts ExpertFinder::RankText(const std::string& query_text) const {
  RankRequest request;
  request.text = query_text;
  return RankChecked(request, "ExpertFinder::RankText");
}

RankedExperts ExpertFinder::RankAnalyzed(
    const index::AnalyzedQuery& query) const {
  RankRequest request;
  request.analyzed = &query;
  return RankChecked(request, "ExpertFinder::RankAnalyzed");
}

std::vector<RankedExperts> ExpertFinder::RankBatch(
    const std::vector<synth::ExpertiseNeed>& queries,
    const RuntimeContext& ctx) const {
  std::vector<RankedExperts> out(queries.size());
  auto body = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      RankRequest request;
      request.text = queries[i].text;
      out[i] = RankChecked(request, "ExpertFinder::RankBatch");
    }
    return Status::Ok();
  };
  const common::ThreadPool* pool = ctx.pool;
  if (pool != nullptr && pool->thread_count() > 1 && queries.size() > 1) {
    // Each worker thread ranks through its own thread-local accumulator;
    // slots are committed by query position, so the batch is bit-identical
    // to the sequential loop for any thread count.
    CheckOk(pool->ParallelFor(queries.size(), /*min_chunk=*/1, body),
            "ExpertFinder::RankBatch ParallelFor");
  } else {
    CheckOk(body(0, queries.size()), "ExpertFinder::RankBatch");
  }
  return out;
}

size_t ExpertFinder::ResolveWindow(size_t eligible,
                                   const RankParams& params) {
  // Window: the number of top relevant resources considered (Sec. 2.4.1).
  // One implementation, shared with the plan executor.
  return plan::ResolveWindowSpec(
      eligible, plan::WindowSpec{params.window_size, params.window_fraction});
}

plan::QueryPlan ExpertFinder::PlanFor(const index::AnalyzedQuery& query,
                                      const RankParams& params,
                                      std::vector<plan::PassTrace>* trace)
    const {
  plan::PlanOptions options;
  options.use_compiled = compiled_path_;
  options.aggregation = AggregationModeLabel(config_.aggregation);
  plan::QueryPlan plan =
      plan::Planner::Lower(query, params.alpha, params.window_size,
                           params.window_fraction, options);
  pass_manager_.Run(&plan, trace);
  return plan;
}

plan::ExecContext ExpertFinder::MakeExecContext() const {
  plan::ExecContext ctx;
  ctx.index = &index_->search_index();
  ctx.eligible = reachable_bits_.data();
  ctx.cache = plan_cache_.get();
  // The live-delta arm scores into the accumulator on every finder,
  // legacy ones included, so it is always supplied — never a fresh O(N)
  // one per rank.
  ctx.acc = &LocalAccumulator();
  // The serving paths hold a DeltaReadGuard around the whole execution, so
  // the pointer (and the reachability bytes above, which the writer grows
  // under the unique lock and zeroes for retired docs) stay valid for the
  // call.
  ctx.delta = delta_.get();
  return ctx;
}

void ExpertFinder::RecordRetrievalTraffic(
    const plan::RetrievalOutcome& outcome) const {
  if (metrics_ == nullptr) return;
  if (outcome.cache_used) {
    if (outcome.cache_hit) {
      cache_hits_->Increment(1);
    } else {
      cache_misses_->Increment(1);
    }
    if (outcome.cache_evictions > 0) {
      cache_evictions_->Increment(outcome.cache_evictions);
    }
  }
  if (outcome.blocks_skipped > 0) {
    prune_blocks_skipped_->Increment(outcome.blocks_skipped);
  }
  if (outcome.blocks_scored > 0) {
    prune_blocks_scored_->Increment(outcome.blocks_scored);
  }
  if (outcome.docs_skipped > 0) {
    prune_docs_skipped_->Increment(outcome.docs_skipped);
  }
  if (outcome.kernel_runs > 0) {
    kernel_runs_->Increment(outcome.kernel_runs);
  }
  if (outcome.kernel_prefetches > 0) {
    kernel_prefetches_->Increment(outcome.kernel_prefetches);
  }
  if (outcome.delta_read) {
    delta_reads_->Increment(1);
    if (outcome.delta_postings > 0) {
      delta_postings_->Increment(outcome.delta_postings);
    }
  }
  if (outcome.prune_declined) prune_declined_->Increment(1);
}

std::vector<index::ScoredDoc> ExpertFinder::WindowedResources(
    const index::AnalyzedQuery& query, const RankParams& params,
    RankedExperts* stats,
    std::shared_ptr<const plan::PlanExplain>* explain) const {
  // Lower -> optimize -> execute. The plan's leaf order captures the
  // legacy group iteration order once; both executor arms consume it
  // unchanged, so rankings are bit-identical to the pre-plan paths
  // (DESIGN.md §10, §13). Compiled forms are alpha-independent, so
  // per-call alpha overrides share plan-cache entries with configured
  // serving (the canonical key excludes alpha).
  std::vector<plan::PassTrace> traces;
  plan::QueryPlan plan =
      PlanFor(query, params, explain != nullptr ? &traces : nullptr);

  // Aggregate wraps the retrieval subtree (a pushed-down Score, or a
  // Window over a Score before pushdown).
  const plan::PlanNode& retrieval = plan.root.children[0];
  plan::RetrievalOutcome outcome =
      plan::ExecuteRetrieval(retrieval, MakeExecContext());
  RecordRetrievalTraffic(outcome);

  stats->matched_resources = outcome.matched;
  stats->reachable_resources = outcome.eligible;
  stats->considered_resources = outcome.windowed.size();

  if (explain != nullptr) {
    auto info = std::make_shared<plan::PlanExplain>();
    info->plan_text = plan::ToString(plan);
    const plan::PlanNode* score =
        plan::FindNode(plan.root, plan::PlanNodeKind::kScore);
    if (score != nullptr) info->canonical_key = plan::EscapeKey(score->cache_key);
    info->passes = std::move(traces);
    info->cache_hit = outcome.cache_hit;
    info->delta_read = outcome.delta_read;
    info->prune_declined = outcome.prune_declined;
    *explain = std::move(info);
  }
  return std::move(outcome.windowed);
}

std::vector<ExpertScore> ExpertFinder::AggregateExperts(
    const ExpertFinderConfig& config, size_t num_candidates,
    const std::vector<FragmentEntry>& windowed) {
  // Expert ranking (Eq. 3 by default): aggregate resource relevance over
  // each candidate's social neighborhood. Entry order IS the summation
  // order, so callers must present entries in (score desc, doc asc) order
  // for bit-equivalence with single-index serving.
  std::vector<double> scores(num_candidates, 0.0);
  for (const FragmentEntry& entry : windowed) {
    // Windowed docs are reachable by construction, so the per-doc
    // association list is always present.
    const std::vector<Association>& assoc = *entry.associations;
    for (const Association& a : assoc) {
      double wr = DistanceWeight(config, a.distance);
      switch (config.aggregation) {
        case AggregationMode::kWeightedSum:
          scores[a.candidate] += entry.score * wr;
          break;
        case AggregationMode::kVotes:
          scores[a.candidate] += wr;
          break;
        case AggregationMode::kMaxResource:
          scores[a.candidate] =
              std::max(scores[a.candidate], entry.score * wr);
          break;
      }
    }
  }

  std::vector<ExpertScore> ranking;
  for (size_t u = 0; u < num_candidates; ++u) {
    if (scores[u] > 0.0) {
      ranking.push_back({static_cast<int>(u), scores[u]});
    }
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const ExpertScore& a, const ExpertScore& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.candidate < b.candidate;
            });
  return ranking;
}

RankedExperts ExpertFinder::RankWithParams(const index::AnalyzedQuery& query,
                                           const RankParams& params,
                                           bool explain) const {
  const auto start = std::chrono::steady_clock::now();
  // Everything from planning through aggregation reads one consistent
  // delta state (a no-op when no writer is attached): commits and
  // compaction take the unique lock, so a rank never sees half a batch.
  index::DeltaReadGuard delta_guard(delta_.get());
  RankedExperts out;
  std::vector<index::ScoredDoc> windowed = WindowedResources(
      query, params, &out, explain ? &out.explain : nullptr);

  std::vector<FragmentEntry> entries;
  entries.reserve(windowed.size());
  for (const index::ScoredDoc& doc : windowed) {
    entries.push_back({doc.doc, doc.score, doc_associations_[doc.doc]});
  }
  out.ranking = AggregateExperts(config_, num_candidates_, entries);

  if (metrics_ != nullptr) {
    rank_queries_->Increment(1);
    rank_matched_->Increment(out.matched_resources);
    rank_reachable_->Increment(out.reachable_resources);
    rank_considered_->Increment(out.considered_resources);
    rank_latency_ms_->Record(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return out;
}

std::vector<ResourceEvidence> ExpertFinder::Explain(
    const std::string& query_text, int candidate, size_t top_k) const {
  std::vector<ResourceEvidence> out;
  if (candidate < 0 || candidate >= static_cast<int>(num_candidates_)) {
    return out;
  }
  index::DeltaReadGuard delta_guard(delta_.get());
  RankedExperts stats;
  const RankParams params{config_.alpha, config_.window_size,
                          config_.window_fraction};
  index::AnalyzedQuery query = extractor_->AnalyzeQuery(query_text);
  for (const index::ScoredDoc& doc : WindowedResources(query, params, &stats)) {
    const std::vector<Association>& assoc = *doc_associations_[doc.doc];
    for (const Association& a : assoc) {
      if (a.candidate != candidate) continue;
      PlatformNodeKey key = PlatformNodeKey::Unpack(doc.external_id);
      ResourceEvidence ev;
      ev.platform = key.platform;
      ev.node = key.node;
      ev.distance = a.distance;
      ev.resource_score = doc.score;
      ev.contribution = doc.score * DistanceWeight(config_, a.distance);
      out.push_back(ev);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ResourceEvidence& a, const ResourceEvidence& b) {
              return a.contribution != b.contribution
                         ? a.contribution > b.contribution
                         : a.node < b.node;
            });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

size_t ExpertFinder::ReachableResources(int candidate) const {
  // The writer bumps per-candidate counts as documents are upserted.
  index::DeltaReadGuard delta_guard(delta_.get());
  if (candidate < 0 ||
      candidate >= static_cast<int>(reachable_counts_.size())) {
    return 0;
  }
  return reachable_counts_[candidate];
}

plan::PlanCache::Stats ExpertFinder::plan_cache_stats() const {
  return plan_cache_ != nullptr ? plan_cache_->stats()
                                : plan::PlanCache::Stats{};
}

Result<ExpertFinder::RankFragment> ExpertFinder::ExecuteFragmentPlan(
    const plan::PlanNode& score, size_t limit) const {
  if (!compiled_path_) {
    return Status::FailedPrecondition(
        "ExpertFinder::ExecuteFragmentPlan: sharded retrieval requires the "
        "frozen compiled serving path");
  }
  index::DeltaReadGuard delta_guard(delta_.get());
  plan::RetrievalOutcome outcome =
      plan::ExecuteFragment(score, limit, MakeExecContext());
  RecordRetrievalTraffic(outcome);
  RankFragment frag;
  frag.matched = outcome.matched;
  frag.eligible = outcome.eligible;
  frag.delta_read = outcome.delta_read;
  frag.prune_declined = outcome.prune_declined;
  frag.entries.reserve(outcome.windowed.size());
  for (const index::ScoredDoc& doc : outcome.windowed) {
    frag.entries.push_back({doc.doc, doc.score, doc_associations_[doc.doc]});
  }
  return frag;
}

Result<ExpertFinder::RankFragment> ExpertFinder::RetrieveFragment(
    const index::AnalyzedQuery& query, const RankParams& params,
    size_t limit) const {
  // Wrapper for callers holding an analyzed query: lower + optimize a plan
  // of our own, then execute its Score subtree as a fragment.
  plan::QueryPlan plan = PlanFor(query, params, /*trace=*/nullptr);
  const plan::PlanNode* score =
      plan::FindNode(plan.root, plan::PlanNodeKind::kScore);
  if (score == nullptr) {
    return Status::Internal(
        "ExpertFinder::RetrieveFragment: lowered plan has no Score node");
  }
  return ExecuteFragmentPlan(*score, limit);
}

Result<std::vector<FinderShard>> ExpertFinder::PartitionShards(
    int num_shards, const RuntimeContext& ctx) const {
  if (!index_->search_index().frozen()) {
    return Status::FailedPrecondition(
        "ExpertFinder::PartitionShards: sharding requires the frozen "
        "compiled serving form");
  }
  obs::StageTimer timer(ctx.metrics, "partition_shards");
  Result<std::vector<index::SearchIndex>> parts =
      index_->search_index().PartitionFrozen(num_shards);
  CROWDEX_RETURN_IF_ERROR(parts.status());

  const size_t total_docs = index_->search_index().size();
  std::vector<FinderShard> shards;
  shards.reserve(parts.value().size());
  for (int s = 0; s < num_shards; ++s) {
    const size_t base =
        index::SearchIndex::PartitionDocBase(total_docs, num_shards, s);
    auto corpus = std::make_unique<CorpusIndex>(
        std::move(parts.value()[s]), config_.platforms);
    // Shard finders carry no metrics registry: the router owns shard.*
    // observability, and per-shard rank.* counters would double-count.
    ExpertFinder finder(config_, std::move(corpus), extractor_,
                        num_candidates_, epoch_, /*metrics=*/nullptr);

    // Copy this finder's association lists for the shard's doc range; the
    // shard owns its copies so it outlives (and can be swapped
    // independently of) the finder it was partitioned from.
    const index::SearchIndex& si = finder.index_->search_index();
    const size_t docs = si.size();
    finder.doc_associations_.assign(docs, nullptr);
    finder.reachable_bits_.assign(docs, 0);
    finder.reachable_counts_.assign(num_candidates_, 0);
    for (size_t d = 0; d < docs; ++d) {
      const std::vector<Association>* assoc =
          doc_associations_[base + d];
      if (assoc == nullptr) continue;
      std::vector<Association>& copy =
          finder.associations_[si.external_id(static_cast<index::DocId>(d))];
      copy = *assoc;
      finder.doc_associations_[d] = &copy;
      finder.reachable_bits_[d] = 1;
      for (const Association& a : copy) {
        ++finder.reachable_counts_[a.candidate];
      }
    }

    FinderShard shard{std::move(finder), static_cast<index::DocId>(base)};
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace crowdex::core
