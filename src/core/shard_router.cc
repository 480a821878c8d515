#include "core/shard_router.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "io/shard_manifest.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "plan/planner.h"

namespace crowdex::core {

ShardRouter::ShardRouter(const ShardRouterConfig& config,
                         const RuntimeContext& ctx)
    : config_(config), pool_(ctx.pool), metrics_(ctx.metrics) {}

void ShardRouter::InitShards() {
  // The router is an executor of ShardFanout -> Merge plans: its pipeline
  // is the serving pipeline plus the fanout-insertion stage sized to the
  // shard count (applied at any positive count — a single-shard router
  // still scatters through the fault boundary).
  plan::PipelineOptions popts;
  popts.num_shards = static_cast<int>(shards_.size());
  popts.sharded = true;
  // Shard finders inherit the partitioned finder's config (PartitionShards
  // copies it; manifest loads restore it per shard), so the pruning opt-in
  // is uniform across the fleet; each shard then prunes against the
  // fanout's per-shard prefix bound, whose top-k the fanout pass already
  // proved covers the global window.
  if (!shards_.empty()) {
    if (std::shared_ptr<const ServingSnapshot> lead =
            shards_[0]->manager->Acquire()) {
      popts.blockmax = lead->finder().config().blockmax_pruning;
    }
  }
  pass_manager_ = plan::PassManager::ServingPipeline(popts);
  pass_manager_.AttachMetrics(metrics_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    // Independent per-shard fault streams: every shard's fault sequence is
    // a function of (seed, shard id, its own call count) only, so one
    // shard's faults never perturb another's regardless of fan-out
    // interleaving.
    sh.rng = Rng(config_.fault_seed + s);
    sh.breaker = CircuitBreaker(config_.breaker);
    if (metrics_ != nullptr) {
      const std::string prefix = "shard." + std::to_string(s);
      sh.m_calls = metrics_->counter(prefix + ".calls");
      sh.m_failures = metrics_->counter(prefix + ".failures");
      sh.m_retries = metrics_->counter(prefix + ".retries");
      sh.m_deadline = metrics_->counter(prefix + ".deadline_exceeded");
      sh.m_shed = metrics_->counter(prefix + ".breaker_shed");
      sh.m_breaker_closed_to_open =
          metrics_->counter(prefix + ".breaker.closed_to_open");
      sh.m_breaker_open_to_half_open =
          metrics_->counter(prefix + ".breaker.open_to_half_open");
      sh.m_breaker_half_open_to_closed =
          metrics_->counter(prefix + ".breaker.half_open_to_closed");
      sh.m_breaker_half_open_to_open =
          metrics_->counter(prefix + ".breaker.half_open_to_open");
      sh.m_latency_ms = metrics_->histogram(prefix + ".latency_ms");
    }
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("shard.count")
        ->Set(static_cast<int64_t>(shards_.size()));
    m_requests_ = metrics_->counter("shard.rank.requests");
    m_degraded_ = metrics_->counter("shard.rank.degraded");
    m_below_quorum_ = metrics_->counter("shard.rank.below_quorum");
  }
}

Result<ShardRouter> ShardRouter::Partition(const ExpertFinder& finder,
                                           int num_shards,
                                           const ShardRouterConfig& config,
                                           const RuntimeContext& ctx) {
  Result<std::vector<FinderShard>> parts =
      finder.PartitionShards(num_shards, ctx);
  CROWDEX_RETURN_IF_ERROR(parts.status());

  ShardRouter router(config, ctx);
  router.shards_.reserve(parts.value().size());
  for (FinderShard& part : parts.value()) {
    auto shard = std::make_unique<Shard>();
    shard->doc_base = part.doc_base;
    shard->doc_count = part.finder.corpus().search_index().size();
    // Shard managers get no metrics registry: snapshot.* stays the
    // single-index surface, and the router's shard.* family is the one
    // observability story for the sharded tier.
    shard->manager = std::make_unique<SnapshotManager>();
    // Retained non-const: ApplyUpdates attaches its per-shard IndexWriter
    // through this handle. Readers only ever see the const view the
    // manager hands out.
    shard->owned = std::make_shared<ServingSnapshot>(std::move(part.finder));
    shard->manager->Swap(shard->owned);
    router.shards_.push_back(std::move(shard));
  }
  router.InitShards();
  return router;
}

template <typename Fn>
Status ShardRouter::CallShard(int s, Fn&& work) const {
  Shard& sh = *shards_[s];
  const ShardFaultConfig& f = FaultsFor(s);
  // One lock per shard call: concurrent Rank fan-outs serialize on each
  // shard's fault state (clock, rng, breaker), so every shard's fault
  // sequence is well-defined no matter how the pool interleaves shards.
  std::lock_guard<std::mutex> lock(sh.mu);

  RetryPolicy policy = config_.retry;
  policy.deadline_ms = config_.shard_deadline_ms;
  const uint64_t call_start = sh.clock.NowMs();

  RetryOutcome outcome = RetryWithBackoff(
      policy, &sh.clock, sh.rng, &sh.breaker, [&]() -> Status {
        // Simulated service latency (possibly spiked) is charged before
        // the outcome is decided, like a real slow backend: a spike can
        // push an otherwise-successful attempt over the deadline.
        uint64_t latency = f.base_latency_ms;
        if (f.latency_spike_prob > 0.0 &&
            sh.rng.NextBool(f.latency_spike_prob)) {
          latency += f.spike_latency_ms;
        }
        sh.clock.AdvanceMs(latency);
        if (config_.shard_deadline_ms > 0 &&
            sh.clock.NowMs() > call_start + config_.shard_deadline_ms) {
          // Non-retryable by design: the call's time budget is spent.
          return Status::DeadlineExceeded("shard call deadline exceeded");
        }
        if (sh.outage_until_ms > sh.clock.NowMs()) {
          return Status::Unavailable("shard hard outage");
        }
        if (f.outage_prob > 0.0 && sh.rng.NextBool(f.outage_prob)) {
          sh.outage_until_ms = sh.clock.NowMs() + f.outage_duration_ms;
          return Status::Unavailable("shard hard outage begins");
        }
        if (f.transient_error_prob > 0.0 &&
            sh.rng.NextBool(f.transient_error_prob)) {
          return Status::Unavailable("injected transient shard error");
        }
        return work();
      });

  sh.stats.calls += 1;
  if (outcome.attempts > 1) {
    sh.stats.retries += static_cast<uint64_t>(outcome.attempts - 1);
  }
  if (outcome.shed_by_breaker) sh.stats.breaker_shed += 1;
  if (!outcome.status.ok()) {
    sh.stats.failures += 1;
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      sh.stats.deadline_exceeded += 1;
    }
  }
  sh.stats.breaker = sh.breaker.StateSnapshot();

  if (sh.m_calls != nullptr) {
    sh.m_calls->Increment(1);
    if (outcome.attempts > 1) {
      sh.m_retries->Increment(static_cast<uint64_t>(outcome.attempts - 1));
    }
    if (outcome.shed_by_breaker) sh.m_shed->Increment(1);
    if (!outcome.status.ok()) {
      sh.m_failures->Increment(1);
      if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
        sh.m_deadline->Increment(1);
      }
    }
    sh.m_latency_ms->Record(
        static_cast<double>(sh.clock.NowMs() - call_start));
    // Publish breaker transitions as deltas so the exported counters sum
    // correctly over any number of calls.
    const BreakerTransitions& t = sh.stats.breaker.transitions;
    const BreakerTransitions& p = sh.published_transitions;
    if (t.closed_to_open > p.closed_to_open) {
      sh.m_breaker_closed_to_open->Increment(
          static_cast<uint64_t>(t.closed_to_open - p.closed_to_open));
    }
    if (t.open_to_half_open > p.open_to_half_open) {
      sh.m_breaker_open_to_half_open->Increment(
          static_cast<uint64_t>(t.open_to_half_open - p.open_to_half_open));
    }
    if (t.half_open_to_closed > p.half_open_to_closed) {
      sh.m_breaker_half_open_to_closed->Increment(static_cast<uint64_t>(
          t.half_open_to_closed - p.half_open_to_closed));
    }
    if (t.half_open_to_open > p.half_open_to_open) {
      sh.m_breaker_half_open_to_open->Increment(
          static_cast<uint64_t>(t.half_open_to_open - p.half_open_to_open));
    }
    sh.published_transitions = t;
  }
  return outcome.status;
}

Result<ShardedRankResult> ShardRouter::Rank(const RankRequest& request) const {
  if (m_requests_ != nullptr) m_requests_->Increment(1);
  const int n = num_shards();

  // Pin one snapshot per shard for the whole call: a concurrent Swap
  // retires a snapshot only after the last in-flight rank releases it, so
  // fragment entries (which borrow association lists from their snapshot's
  // finder) stay valid through the merge.
  std::vector<std::shared_ptr<const ServingSnapshot>> snaps(n);
  const ExpertFinder* lead = nullptr;
  for (int s = 0; s < n; ++s) {
    snaps[s] = shards_[s]->manager->Acquire();
    if (lead == nullptr && snaps[s] != nullptr) lead = &snaps[s]->finder();
  }
  if (lead == nullptr) {
    if (m_below_quorum_ != nullptr) m_below_quorum_->Increment(1);
    return Status::Unavailable(
        "shard router: no shard has a serving snapshot installed");
  }

  Result<ExpertFinder::RankParams> resolved =
      ExpertFinder::ResolveParams(lead->config(), request);
  CROWDEX_RETURN_IF_ERROR(resolved.status());
  const ExpertFinder::RankParams params = resolved.value();
  index::AnalyzedQuery storage;
  const index::AnalyzedQuery* query = lead->AnalyzeQueryText(request, &storage);

  // Lower once on the lead finder and optimize with the sharded pipeline.
  // The fanout node carries the per-shard prefix bound (the fixed window
  // size — each shard's top-W prefix provably contains every global top-W
  // doc — or 0 for fraction/no windows, whose cutoff depends on the
  // cross-shard eligible total); the Window node carries the global window
  // applied after the gather.
  plan::PlanOptions popts;
  popts.use_compiled = lead->serving_compiled();
  popts.aggregation = AggregationModeLabel(lead->config().aggregation);
  plan::QueryPlan plan = plan::Planner::Lower(
      *query, params.alpha, params.window_size, params.window_fraction, popts);
  std::vector<plan::PassTrace> traces;
  pass_manager_.Run(&plan, request.explain ? &traces : nullptr);
  const plan::PlanNode* fanout =
      plan::FindNode(plan.root, plan::PlanNodeKind::kShardFanout);
  const plan::PlanNode* window_node =
      plan::FindNode(plan.root, plan::PlanNodeKind::kWindow);
  if (fanout == nullptr || fanout->children.empty() ||
      window_node == nullptr) {
    return Status::Internal(
        "shard router: sharded pipeline produced no ShardFanout plan");
  }
  const plan::PlanNode& score = fanout->children[0];
  const size_t limit = fanout->per_shard_limit;

  std::vector<Status> statuses(n, Status::Ok());
  std::vector<ExpertFinder::RankFragment> fragments(n);
  auto scatter = [&](size_t begin, size_t end) -> Status {
    for (size_t s = begin; s < end; ++s) {
      if (snaps[s] == nullptr) {
        statuses[s] = Status::FailedPrecondition(
            "shard out of service: no snapshot installed");
        continue;
      }
      const ExpertFinder& shard_finder = snaps[s]->finder();
      statuses[s] = CallShard(static_cast<int>(s), [&]() -> Status {
        Result<ExpertFinder::RankFragment> frag =
            shard_finder.ExecuteFragmentPlan(score, limit);
        CROWDEX_RETURN_IF_ERROR(frag.status());
        fragments[s] = std::move(frag).value();
        return Status::Ok();
      });
    }
    return Status::Ok();
  };
  if (pool_ != nullptr && pool_->thread_count() > 1 && n > 1) {
    CheckOk(pool_->ParallelFor(static_cast<size_t>(n), /*min_chunk=*/1,
                               scatter),
            "ShardRouter::Rank scatter");
  } else {
    CheckOk(scatter(0, static_cast<size_t>(n)), "ShardRouter::Rank scatter");
  }

  ShardedRankResult out;
  out.shards_total = n;
  size_t total_docs = 0;
  size_t served_docs = 0;
  size_t matched = 0;
  size_t eligible = 0;
  size_t merged_size = 0;
  for (int s = 0; s < n; ++s) {
    total_docs += shards_[s]->doc_count;
    if (statuses[s].ok()) {
      ++out.shards_ok;
      served_docs += shards_[s]->doc_count;
      matched += fragments[s].matched;
      eligible += fragments[s].eligible;
      merged_size += fragments[s].entries.size();
    } else {
      out.degraded_shards.push_back(s);
      out.degraded_statuses.push_back(statuses[s]);
    }
  }

  const int quorum = std::clamp(config_.quorum_shards, 1, n);
  if (out.shards_ok < quorum) {
    if (m_below_quorum_ != nullptr) m_below_quorum_->Increment(1);
    return Status::Unavailable(
        "shard router: " + std::to_string(out.shards_ok) + "/" +
        std::to_string(n) + " shards answered, below quorum of " +
        std::to_string(quorum));
  }
  out.complete = out.shards_ok == n;
  out.coverage = total_docs > 0 ? static_cast<double>(served_docs) /
                                      static_cast<double>(total_docs)
                                : 1.0;
  if (!out.complete && m_degraded_ != nullptr) m_degraded_->Increment(1);

  // Gather: lift fragment entries onto the global doc axis and impose the
  // single-index total order — score descending, global DocId ascending —
  // so equal-score docs merge identically at any shard count and the
  // downstream Eq. 3 summation runs in exactly the order unsharded
  // serving uses.
  std::vector<ExpertFinder::FragmentEntry> merged;
  merged.reserve(merged_size);
  for (int s = 0; s < n; ++s) {
    if (!statuses[s].ok()) continue;
    const index::DocId base = shards_[s]->doc_base;
    for (const ExpertFinder::FragmentEntry& e : fragments[s].entries) {
      merged.push_back({base + e.doc, e.score, e.associations});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const ExpertFinder::FragmentEntry& a,
               const ExpertFinder::FragmentEntry& b) {
              return a.score != b.score ? a.score > b.score : a.doc < b.doc;
            });
  // The plan's Window node resolves against the eligible total of the
  // shards that answered — under degradation the response ranks what was
  // reachable, and `coverage`/`complete` say what was not.
  const size_t window = plan::ResolveWindowSpec(eligible, window_node->window);
  if (merged.size() > window) merged.resize(window);

  out.ranked.matched_resources = matched;
  out.ranked.reachable_resources = eligible;
  out.ranked.considered_resources = merged.size();
  out.ranked.ranking = ExpertFinder::AggregateExperts(
      lead->config(), lead->num_candidates(), merged);
  if (request.explain) {
    auto explain = std::make_shared<plan::PlanExplain>();
    explain->plan_text = plan::ToString(plan);
    explain->canonical_key = plan::EscapeKey(score.cache_key);
    explain->passes = std::move(traces);
    // Per-shard plan caches serve the fanned-out Score; a single hit bit
    // would misstate a mixed scatter, so sharded explain leaves it false.
    explain->cache_hit = false;
    for (int s = 0; s < n; ++s) {
      if (!statuses[s].ok()) continue;
      explain->delta_read |= fragments[s].delta_read;
      explain->prune_declined |= fragments[s].prune_declined;
    }
    out.ranked.explain = std::move(explain);
  }
  return out;
}

Status ShardRouter::AttachShardWriters() {
  auto base_rf = std::make_shared<index::TermRfMap>();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    // The shard's call mutex serializes the attach (which re-resolves the
    // finder's serving state) against that shard's in-flight rank calls.
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.owned == nullptr ||
        sh.manager->Acquire().get() != sh.owned.get()) {
      return Status::FailedPrecondition(
          "shard router: shard " + std::to_string(s) +
          " is not serving the router-installed snapshot; ApplyUpdates "
          "mutates only router-owned shard snapshots");
    }
    if (sh.writer == nullptr) {
      // Shard writers carry no metrics registry (see Partition): the
      // index.delta.* family stays the single-index observability surface
      // and the router's shard.* family covers this tier.
      Result<IndexWriter> writer =
          IndexWriter::Attach(&sh.owned->mutable_finder(), RuntimeContext{});
      CROWDEX_RETURN_IF_ERROR(writer.status());
      sh.writer = std::make_unique<IndexWriter>(std::move(writer).value());
    }
    // Global base rf per term = the sum of per-shard posting-segment
    // lengths: PartitionFrozen routes every base posting to exactly one
    // shard, so the sum reconstructs the unsharded collection rf exactly.
    const index::FrozenIndexView& v = sh.writer->delta().base_view();
    for (size_t t = 0; t < v.terms.size(); ++t) {
      (*base_rf)[std::string(v.terms[t])] += static_cast<uint32_t>(
          (*v.term_offsets)[t + 1] - (*v.term_offsets)[t]);
    }
  }
  term_base_rf_ = std::move(base_rf);
  writers_ready_ = true;
  return Status::Ok();
}

int ShardRouter::OwningShard(uint64_t external_id) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const index::DeltaState& d = shards_[s]->writer->delta();
    index::DeltaReadGuard guard(&d);
    if (d.IsLive(external_id)) return static_cast<int>(s);
  }
  return -1;
}

Status ShardRouter::ApplyUpdates(const UpdateBatch& batch) {
  const int n = num_shards();
  if (n == 0) {
    return Status::FailedPrecondition("shard router: no shards to mutate");
  }
  std::lock_guard<std::mutex> apply_lock(*apply_mu_);
  if (!writers_ready_) {
    CROWDEX_RETURN_IF_ERROR(AttachShardWriters());
  }
  if (batch.upserts.empty() && batch.deletions.empty()) return Status::Ok();

  // Route the batch, validating router-wide BEFORE anything commits so a
  // rejected batch leaves every shard byte-identical to before the call.
  std::vector<UpdateBatch> routed(static_cast<size_t>(n));
  std::unordered_set<uint64_t> deleted;
  for (uint64_t ext : batch.deletions) {
    if (!deleted.insert(ext).second) {
      return Status::InvalidArgument(
          "duplicate deletion of external id " + std::to_string(ext));
    }
    const int owner = OwningShard(ext);
    if (owner < 0) {
      return Status::NotFound("deletion of non-live external id " +
                              std::to_string(ext));
    }
    routed[static_cast<size_t>(owner)].deletions.push_back(ext);
  }
  const int last = n - 1;
  const int num_candidates =
      static_cast<int>(shards_[0]->owned->finder().num_candidates());
  for (const UpsertDoc& up : batch.upserts) {
    for (const ExpertFinder::Association& a : up.associations) {
      if (a.candidate < 0 || a.candidate >= num_candidates) {
        return Status::InvalidArgument(
            "association names candidate " + std::to_string(a.candidate) +
            " outside [0, " + std::to_string(num_candidates) + ")");
      }
    }
    // Upserts append to the LAST shard so global doc ids stay ascending in
    // rebuild order; a replace whose old version lives on another shard
    // becomes a synthesized deletion there (dedup'd across the batch).
    const uint64_t ext = up.doc.external_id;
    if (deleted.find(ext) == deleted.end()) {
      const int owner = OwningShard(ext);
      if (owner >= 0 && owner != last) {
        routed[static_cast<size_t>(owner)].deletions.push_back(ext);
        deleted.insert(ext);
      }
    }
    routed[static_cast<size_t>(last)].upserts.push_back(up);
  }

  // Commit shard by shard. Every per-shard batch was validated above, so a
  // failure here is a routing bug, not an input error — abort rather than
  // leave a torn batch behind.
  for (int s = 0; s < n; ++s) {
    const UpdateBatch& part = routed[static_cast<size_t>(s)];
    if (part.upserts.empty() && part.deletions.empty()) continue;
    Shard& sh = *shards_[s];
    std::lock_guard<std::mutex> lock(sh.mu);
    CheckOk(sh.writer->Apply(part), "ShardRouter::ApplyUpdates commit");
  }

  // Coordinator pass: merge every shard's drift into absolute global live
  // statistics and install them everywhere — including shards the batch
  // never touched, whose frozen local statistics went stale the moment any
  // other shard mutated.
  auto stats = std::make_shared<index::GlobalLiveStats>();
  stats->term_base_rf = term_base_rf_;
  int64_t live_docs = 0;
  std::unordered_map<std::string, int64_t, TransparentStringHash,
                     std::equal_to<>>
      term_drift;
  std::unordered_map<entity::EntityId, int64_t> entity_drift;
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    std::lock_guard<std::mutex> lock(sh.mu);
    const index::DeltaState& d = sh.writer->delta();
    index::DeltaReadGuard guard(&d);
    live_docs += static_cast<int64_t>(d.base_docs()) + d.live_docs_delta();
    for (const auto& [term, drift] : d.term_rf_delta()) {
      term_drift[term] += drift;
    }
    for (const auto& [entity, drift] : d.entity_rf_delta()) {
      entity_drift[entity] += drift;
    }
  }
  stats->live_docs = static_cast<uint64_t>(live_docs);
  for (const auto& [term, drift] : term_drift) {
    const auto it = term_base_rf_->find(term);
    const int64_t base = it == term_base_rf_->end() ? 0 : it->second;
    const int64_t rf = base + drift;
    stats->term_rf[term] = rf < 0 ? 0u : static_cast<uint32_t>(rf);
  }
  for (const auto& [entity, drift] : entity_drift) {
    // Any shard holding the entity stores the GLOBAL frozen rf
    // (PartitionFrozen copies it); shards without it report 0.
    int64_t base = 0;
    for (int s = 0; s < n; ++s) {
      base = std::max(
          base, static_cast<int64_t>(
                    shards_[s]->writer->delta().LocalBaseEntityRf(entity)));
    }
    const int64_t rf = base + drift;
    stats->entity_rf[entity] = rf < 0 ? 0u : static_cast<uint32_t>(rf);
  }
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.writer->InstallGlobalStats(stats);
  }
  return Status::Ok();
}

ShardStats ShardRouter::shard_stats(int s) const {
  const Shard& sh = *shards_[s];
  std::lock_guard<std::mutex> lock(sh.mu);
  ShardStats stats = sh.stats;
  stats.breaker = sh.breaker.StateSnapshot();
  return stats;
}

Status ShardRouter::SaveShardSet(uint64_t epoch, uint64_t fingerprint,
                                 const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("shard set save: cannot create directory " + dir);
  }
  io::ShardManifest manifest;
  manifest.fingerprint = fingerprint;
  manifest.epoch = epoch;
  manifest.ranges.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const ServingSnapshot> snap = shards_[s]->manager->Acquire();
    if (snap == nullptr) {
      return Status::FailedPrecondition(
          "shard set save: shard " + std::to_string(s) +
          " has no serving snapshot installed");
    }
    const std::string path =
        dir + "/" + io::ShardSnapshotFileName(static_cast<int>(s));
    CROWDEX_RETURN_IF_ERROR(
        snap->finder().SaveSnapshot(epoch, fingerprint, path));
    manifest.ranges.push_back(
        {static_cast<uint64_t>(shards_[s]->doc_base),
         static_cast<uint64_t>(shards_[s]->doc_count)});
  }
  // The manifest is written last: a crash mid-save leaves snapshots
  // without a manifest (an unloadable, clearly-incomplete set), never a
  // manifest pointing at missing shards.
  return io::SaveShardManifest(manifest,
                               dir + "/" + io::kShardManifestFileName);
}

Result<ShardRouter> ShardRouter::LoadShardSet(
    const std::string& dir, uint64_t expected_fingerprint,
    const platform::ResourceExtractor* extractor,
    const ShardRouterConfig& config, const RuntimeContext& ctx) {
  Result<io::ShardManifest> manifest =
      io::LoadShardManifest(dir + "/" + io::kShardManifestFileName);
  CROWDEX_RETURN_IF_ERROR(manifest.status());
  if (manifest.value().fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "shard set load: manifest fingerprint does not match the expected "
        "corpus/configuration digest");
  }

  ShardRouter router(config, ctx);
  router.shards_.reserve(manifest.value().ranges.size());
  for (size_t s = 0; s < manifest.value().ranges.size(); ++s) {
    const io::ShardRange& range = manifest.value().ranges[s];
    const std::string path =
        dir + "/" + io::ShardSnapshotFileName(static_cast<int>(s));
    // Shard finders carry no metrics registry (see Partition).
    Result<ExpertFinder> finder = ExpertFinder::FromSnapshotFile(
        path, expected_fingerprint, extractor, RuntimeContext{});
    CROWDEX_RETURN_IF_ERROR(finder.status());
    if (finder.value().corpus().search_index().size() != range.doc_count) {
      return Status::DataLoss(
          "shard set load: shard " + std::to_string(s) +
          " snapshot doc count disagrees with the manifest");
    }
    auto shard = std::make_unique<Shard>();
    shard->doc_base = static_cast<index::DocId>(range.doc_base);
    shard->doc_count = static_cast<size_t>(range.doc_count);
    shard->manager = std::make_unique<SnapshotManager>();
    shard->owned =
        std::make_shared<ServingSnapshot>(std::move(finder).value());
    shard->manager->Swap(shard->owned);
    router.shards_.push_back(std::move(shard));
  }
  router.InitShards();
  return router;
}

}  // namespace crowdex::core
