// Scatter-gather serving through the ShardRouter: merged rankings must be
// bit-identical to the unsharded finder at any shard count when every
// shard answers, and under injected faults the router must degrade with
// accurate coverage/degraded_shards fields (or fail with a typed error
// below quorum) — never return a silent partial result.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/analyzed_world.h"
#include "core/corpus_index.h"
#include "core/expert_finder.h"
#include "core/serving.h"
#include "core/shard_router.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "support/analysis_cache.h"
#include "synth/world.h"

namespace crowdex::core {
namespace {

constexpr uint64_t kFingerprint = 0xC10D5EEDu;

void ExpectSameRanking(const RankedExperts& a, const RankedExperts& b,
                       const std::string& context) {
  ASSERT_EQ(a.ranking.size(), b.ranking.size()) << context;
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].candidate, b.ranking[i].candidate)
        << context << " rank " << i;
    EXPECT_EQ(a.ranking[i].score, b.ranking[i].score)
        << context << " rank " << i;
  }
  EXPECT_EQ(a.matched_resources, b.matched_resources) << context;
  EXPECT_EQ(a.reachable_resources, b.reachable_resources) << context;
  EXPECT_EQ(a.considered_resources, b.considered_resources) << context;
}

bool SameRanking(const RankedExperts& a, const RankedExperts& b) {
  if (a.ranking.size() != b.ranking.size() ||
      a.matched_resources != b.matched_resources ||
      a.reachable_resources != b.reachable_resources ||
      a.considered_resources != b.considered_resources) {
    return false;
  }
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].candidate != b.ranking[i].candidate ||
        a.ranking[i].score != b.ranking[i].score) {
      return false;
    }
  }
  return true;
}

class ShardRouterTest : public ::testing::Test {
 protected:
  struct Fixture {
    synth::SyntheticWorld world;
    AnalyzedWorld analyzed;
    std::unique_ptr<CorpusIndex> index;
  };

  static Fixture& F() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      synth::WorldConfig cfg;
      cfg.scale = 0.02;
      fx->world = synth::GenerateWorld(cfg);
      fx->analyzed = test_support::AnalyzeWorldCached(&fx->world, cfg);
      fx->index = std::make_unique<CorpusIndex>(&fx->analyzed,
                                                platform::kAllPlatformsMask);
      return fx;
    }();
    return *f;
  }

  static ExpertFinder Make(const ExpertFinderConfig& cfg) {
    return ExpertFinder::Create(&F().analyzed, cfg, F().index.get()).value();
  }

  /// A fault-free router over a fresh finder with `cfg`.
  static ShardRouter MakeRouter(const ExpertFinderConfig& cfg, int shards,
                                const ShardRouterConfig& rcfg = {},
                                const RuntimeContext& ctx = {}) {
    static std::vector<std::unique_ptr<ExpertFinder>>* keep =
        new std::vector<std::unique_ptr<ExpertFinder>>();
    keep->push_back(std::make_unique<ExpertFinder>(Make(cfg)));
    Result<ShardRouter> r =
        ShardRouter::Partition(*keep->back(), shards, rcfg, ctx);
    CheckOk(r.status(), "ShardRouter::Partition in test");
    return std::move(r).value();
  }

  static RankRequest Req(const synth::ExpertiseNeed& q) {
    RankRequest req;
    req.text = q.text;
    return req;
  }
};

TEST_F(ShardRouterTest, MergedRankingBitIdenticalAtEveryShardCount) {
  // The acceptance criterion: 1, 4, and 16 shards, fault rate 0, every
  // eval query — the merged ranking must equal the unsharded one bit for
  // bit, including all retrieval statistics.
  ExpertFinder unsharded = Make(ExpertFinderConfig{});
  for (int shards : {1, 4, 16}) {
    ShardRouter router = MakeRouter(ExpertFinderConfig{}, shards);
    for (const auto& q : F().world.queries) {
      Result<ShardedRankResult> r = router.Rank(Req(q));
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(r.value().complete);
      EXPECT_EQ(r.value().coverage, 1.0);
      EXPECT_EQ(r.value().shards_ok, shards);
      EXPECT_EQ(r.value().shards_total, shards);
      EXPECT_TRUE(r.value().degraded_shards.empty());
      ExpectSameRanking(r.value().ranked, unsharded.Rank(q),
                        "shards=" + std::to_string(shards) + " query " +
                            std::to_string(q.id));
    }
  }
}

TEST_F(ShardRouterTest, FractionWindowAndOverridesMatchUnsharded) {
  // The fraction-window path resolves the window against the cross-shard
  // eligible total; per-call overrides go through the shared
  // ResolveParams. Both must reproduce unsharded behavior exactly.
  ExpertFinderConfig frac_cfg;
  frac_cfg.window_size = 0;
  frac_cfg.window_fraction = 0.3;
  ExpertFinder unsharded = Make(frac_cfg);
  ShardRouter router = MakeRouter(frac_cfg, 4);
  for (const auto& q : F().world.queries) {
    Result<ShardedRankResult> r = router.Rank(Req(q));
    ASSERT_TRUE(r.ok()) << r.status();
    ExpectSameRanking(r.value().ranked, unsharded.Rank(q),
                      "fraction query " + std::to_string(q.id));
  }

  ExpertFinderConfig tuned_cfg;
  tuned_cfg.alpha = 0.25;
  tuned_cfg.window_size = 10;
  ExpertFinder tuned = Make(tuned_cfg);
  ShardRouter base_router = MakeRouter(ExpertFinderConfig{}, 4);
  const auto& q = F().world.queries.front();
  RankRequest req = Req(q);
  req.alpha = 0.25;
  req.window_size = 10;
  Result<ShardedRankResult> overridden = base_router.Rank(req);
  ASSERT_TRUE(overridden.ok()) << overridden.status();
  ExpectSameRanking(overridden.value().ranked, tuned.Rank(q),
                    "override parity");

  RankRequest bad = Req(q);
  bad.alpha = 1.5;
  EXPECT_EQ(base_router.Rank(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardRouterTest, ExplainReturnsTheShardedPlan) {
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4);
  RankRequest req = Req(F().world.queries.front());
  req.explain = true;
  Result<ShardedRankResult> r = router.Rank(req);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r.value().ranked.explain, nullptr);
  const plan::PlanExplain& explain = *r.value().ranked.explain;
  // The sharded shape: the global Window sits above the Merge, and the
  // fanout carries the shard count and per-shard prefix bound.
  EXPECT_NE(explain.plan_text.find("merge()"), std::string::npos)
      << explain.plan_text;
  EXPECT_NE(explain.plan_text.find("shard_fanout(shards=4 per_shard_limit=100)"),
            std::string::npos)
      << explain.plan_text;
  ASSERT_EQ(explain.passes.size(), 6u);
  EXPECT_EQ(explain.passes[2].pass, "insert_shard_fanout");
  EXPECT_TRUE(explain.passes[2].changed);
  EXPECT_EQ(explain.passes[4].pass, "prune_blockmax");
  EXPECT_FALSE(explain.passes[4].changed);  // pruning is off by default
  EXPECT_FALSE(explain.cache_hit);  // per-shard caches; no single hit bit

  // Explaining never changes the merged ranking, and the payload is
  // deterministic across repeats.
  RankRequest plain = req;
  plain.explain = false;
  Result<ShardedRankResult> unexplained = router.Rank(plain);
  ASSERT_TRUE(unexplained.ok());
  EXPECT_EQ(unexplained.value().ranked.explain, nullptr);
  ExpectSameRanking(r.value().ranked, unexplained.value().ranked,
                    "explained vs unexplained sharded");
  Result<ShardedRankResult> again = router.Rank(req);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ranked.explain->plan_text, explain.plan_text);
  EXPECT_EQ(again.value().ranked.explain->canonical_key,
            explain.canonical_key);
}

TEST_F(ShardRouterTest, ParallelFanOutMatchesSequential) {
  common::ThreadPool pool(4);
  ShardRouter sequential = MakeRouter(ExpertFinderConfig{}, 8);
  ShardRouter parallel = MakeRouter(ExpertFinderConfig{}, 8,
                                    ShardRouterConfig{},
                                    RuntimeContext{&pool, nullptr});
  for (const auto& q : F().world.queries) {
    Result<ShardedRankResult> a = sequential.Rank(Req(q));
    Result<ShardedRankResult> b = parallel.Rank(Req(q));
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameRanking(a.value().ranked, b.value().ranked,
                      "pool parity query " + std::to_string(q.id));
  }
}

TEST_F(ShardRouterTest, AllShardsDownIsTypedErrorNotEmptySuccess) {
  obs::MetricsRegistry metrics;
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4, ShardRouterConfig{},
                                  RuntimeContext{nullptr, &metrics});
  for (int s = 0; s < router.num_shards(); ++s) {
    router.shard_manager(s).Swap(nullptr);
  }
  Result<ShardedRankResult> r = router.Rank(Req(F().world.queries.front()));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.counter("shard.rank.below_quorum")->Value(), 1u);
}

TEST_F(ShardRouterTest, ExactlyAtQuorumServesDegraded) {
  ShardRouterConfig rcfg;
  rcfg.quorum_shards = 2;
  obs::MetricsRegistry metrics;
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4, rcfg,
                                  RuntimeContext{nullptr, &metrics});
  // Doc counts of the shards that stay up, for the coverage check.
  std::vector<size_t> doc_counts;
  for (int s = 0; s < 4; ++s) {
    doc_counts.push_back(
        router.shard_manager(s).Acquire()->finder().corpus().search_index().size());
  }
  router.shard_manager(1).Swap(nullptr);
  router.shard_manager(3).Swap(nullptr);

  const auto& q = F().world.queries.front();
  Result<ShardedRankResult> r = router.Rank(Req(q));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().shards_ok, 2);
  EXPECT_FALSE(r.value().complete);
  EXPECT_EQ(r.value().degraded_shards, (std::vector<int>{1, 3}));
  ASSERT_EQ(r.value().degraded_statuses.size(), 2u);
  for (const Status& s : r.value().degraded_statuses) {
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  }
  const double total = static_cast<double>(doc_counts[0] + doc_counts[1] +
                                           doc_counts[2] + doc_counts[3]);
  EXPECT_EQ(r.value().coverage,
            static_cast<double>(doc_counts[0] + doc_counts[2]) / total);
  EXPECT_EQ(metrics.counter("shard.rank.degraded")->Value(), 1u);

  // One more shard down puts the router below quorum: typed error.
  router.shard_manager(2).Swap(nullptr);
  Result<ShardedRankResult> below = router.Rank(Req(q));
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.status().code(), StatusCode::kUnavailable);
}

TEST_F(ShardRouterTest, DeadlineExceededShardIsSkippedAndReported) {
  ShardRouterConfig rcfg;
  rcfg.shard_deadline_ms = 100;
  // Shard 0 alone is pathologically slow: every attempt's base latency
  // blows the per-shard deadline.
  rcfg.shard_faults.resize(1);
  rcfg.shard_faults[0].base_latency_ms = 500;
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4, rcfg);

  // What the surviving shards should produce: the same router shape with
  // shard 0 out of service (deterministic, fault-free on shards 1..3).
  ShardRouter reference = MakeRouter(ExpertFinderConfig{}, 4);
  reference.shard_manager(0).Swap(nullptr);

  for (const auto& q : F().world.queries) {
    Result<ShardedRankResult> r = router.Rank(Req(q));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r.value().complete);
    EXPECT_EQ(r.value().degraded_shards, (std::vector<int>{0}));
    ASSERT_EQ(r.value().degraded_statuses.size(), 1u);
    EXPECT_EQ(r.value().degraded_statuses[0].code(),
              StatusCode::kDeadlineExceeded);
    Result<ShardedRankResult> want = reference.Rank(Req(q));
    ASSERT_TRUE(want.ok());
    ExpectSameRanking(r.value().ranked, want.value().ranked,
                      "deadline-degraded query " + std::to_string(q.id));
  }
  const ShardStats stats = router.shard_stats(0);
  EXPECT_EQ(stats.calls, F().world.queries.size());
  EXPECT_EQ(stats.deadline_exceeded, F().world.queries.size());
  EXPECT_EQ(stats.failures, F().world.queries.size());
  // Deadline expiry is not retryable: exactly one attempt per call.
  EXPECT_EQ(stats.retries, 0u);
}

TEST_F(ShardRouterTest, TransientErrorsAreRetriedAndCompleteResultsExact) {
  ExpertFinder unsharded = Make(ExpertFinderConfig{});
  ShardRouterConfig rcfg;
  rcfg.faults.transient_error_prob = 0.3;
  rcfg.retry.max_attempts = 6;
  rcfg.retry.backoff.base_ms = 1;
  rcfg.retry.backoff.max_ms = 4;
  rcfg.shard_deadline_ms = 10'000;
  // Threshold high enough that retried blips never trip the breaker.
  rcfg.breaker.failure_threshold = 1000;
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4, rcfg);

  size_t complete = 0;
  for (const auto& q : F().world.queries) {
    Result<ShardedRankResult> r = router.Rank(Req(q));
    ASSERT_TRUE(r.ok()) << r.status();
    // Degraded or not, the response must say so truthfully; when complete
    // it must be exact.
    if (r.value().complete) {
      ++complete;
      EXPECT_TRUE(SameRanking(r.value().ranked, unsharded.Rank(q)))
          << "complete response diverged, query " << q.id;
    } else {
      EXPECT_FALSE(r.value().degraded_shards.empty());
      EXPECT_LT(r.value().coverage, 1.0);
    }
  }
  // At 30% transient errors and 6 attempts, nearly every call recovers.
  EXPECT_GT(complete, F().world.queries.size() / 2);
  uint64_t retries = 0;
  for (int s = 0; s < router.num_shards(); ++s) {
    retries += router.shard_stats(s).retries;
  }
  EXPECT_GT(retries, 0u);
}

TEST_F(ShardRouterTest, SustainedOutageTripsBreakerAndShedsCalls) {
  ShardRouterConfig rcfg;
  rcfg.shard_faults.resize(1);
  rcfg.shard_faults[0].outage_prob = 1.0;
  rcfg.shard_faults[0].outage_duration_ms = 60'000;
  rcfg.retry.max_attempts = 2;
  rcfg.retry.backoff.base_ms = 1;
  rcfg.retry.backoff.max_ms = 4;
  rcfg.shard_deadline_ms = 1'000;
  rcfg.breaker.failure_threshold = 3;
  rcfg.breaker.open_duration_ms = 30'000;
  obs::MetricsRegistry metrics;
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4, rcfg,
                                  RuntimeContext{nullptr, &metrics});

  const auto& q = F().world.queries.front();
  for (int i = 0; i < 10; ++i) {
    Result<ShardedRankResult> r = router.Rank(Req(q));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r.value().degraded_shards, (std::vector<int>{0}))
        << "call " << i;
  }
  const ShardStats stats = router.shard_stats(0);
  EXPECT_GE(stats.breaker.trips, 1);
  // Once open, the 30s cooldown dwarfs the 1s deadline: calls are shed
  // without hitting the dead shard.
  EXPECT_GT(stats.breaker_shed, 0u);
  EXPECT_EQ(stats.failures, 10u);
  EXPECT_EQ(metrics.counter("shard.0.breaker.closed_to_open")->Value(),
            static_cast<uint64_t>(stats.breaker.transitions.closed_to_open));
  // Healthy shards are untouched by shard 0's outage.
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(router.shard_stats(s).failures, 0u) << "shard " << s;
  }
}

TEST_F(ShardRouterTest, ShardSetSaveLoadRoundTrip) {
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4);
  const std::string dir = ::testing::TempDir() + "/shard_set";
  CheckOk(router.SaveShardSet(5, kFingerprint, dir), "SaveShardSet");

  Result<ShardRouter> loaded = ShardRouter::LoadShardSet(
      dir, kFingerprint, F().analyzed.extractor.get(), ShardRouterConfig{});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().num_shards(), 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(loaded.value().shard_doc_base(s), router.shard_doc_base(s));
    EXPECT_EQ(loaded.value().shard_manager(s).active_epoch(), 5u);
  }
  for (const auto& q : F().world.queries) {
    Result<ShardedRankResult> a = router.Rank(Req(q));
    Result<ShardedRankResult> b = loaded.value().Rank(Req(q));
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameRanking(a.value().ranked, b.value().ranked,
                      "loaded query " + std::to_string(q.id));
  }

  Result<ShardRouter> wrong = ShardRouter::LoadShardSet(
      dir, kFingerprint + 1, F().analyzed.extractor.get(),
      ShardRouterConfig{});
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);

  Result<ShardRouter> missing = ShardRouter::LoadShardSet(
      ::testing::TempDir() + "/no_such_set", kFingerprint,
      F().analyzed.extractor.get(), ShardRouterConfig{});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(ShardRouterTest, ConcurrentRanksVsShardSwapsStayTruthful) {
  // N reader threads rank through the router while the main thread
  // flaps shard 0 between in-service and out-of-service. Every response
  // must be one of the two truthful answers: complete and bit-identical
  // to the unsharded ranking, or degraded with exactly shard 0 reported
  // and the ranking of the surviving shards. Anything else — a torn
  // merge, a silent partial, a wrong coverage — counts as a mismatch.
  // Run under TSan this is also the data-race check for the sharded tier.
  ExpertFinder unsharded = Make(ExpertFinderConfig{});
  ShardRouter router = MakeRouter(ExpertFinderConfig{}, 4);
  std::shared_ptr<const ServingSnapshot> shard0 =
      router.shard_manager(0).Acquire();
  const auto& q = F().world.queries.front();
  const RankedExperts want_full = unsharded.Rank(q);

  // The degraded reference: rank once with shard 0 out.
  router.shard_manager(0).Swap(nullptr);
  Result<ShardedRankResult> degraded_ref = router.Rank(Req(q));
  ASSERT_TRUE(degraded_ref.ok());
  const RankedExperts want_degraded = degraded_ref.value().ranked;
  const double degraded_coverage = degraded_ref.value().coverage;
  router.shard_manager(0).Swap(shard0);
  ASSERT_FALSE(SameRanking(want_full, want_degraded))
      << "shard 0 must matter for this test to mean anything";

  constexpr int kReaders = 4;
  constexpr int kRanksPerReader = 50;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kRanksPerReader; ++i) {
        Result<ShardedRankResult> r = router.Rank(Req(q));
        bool truthful = false;
        if (r.ok()) {
          const ShardedRankResult& v = r.value();
          if (v.complete) {
            truthful = v.coverage == 1.0 && v.degraded_shards.empty() &&
                       SameRanking(v.ranked, want_full);
          } else {
            truthful = v.degraded_shards == std::vector<int>{0} &&
                       v.coverage == degraded_coverage &&
                       SameRanking(v.ranked, want_degraded);
          }
        }
        if (!truthful) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread swapper([&] {
    bool up = false;
    while (!stop.load(std::memory_order_relaxed)) {
      router.shard_manager(0).Swap(up ? shard0 : nullptr);
      up = !up;
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace crowdex::core
