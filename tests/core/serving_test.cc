// Snapshot round-trip and hot-swap serving at the ExpertFinder level: a
// finder restored from a saved snapshot must rank bit-identically to the
// finder that saved it, the unified RankRequest entry point must apply
// (and validate) per-call overrides, and SnapshotManager must publish
// snapshots atomically while concurrent Rank calls stay pinned to exactly
// one epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzed_world.h"
#include "core/corpus_index.h"
#include "core/expert_finder.h"
#include "core/serving.h"
#include "obs/metrics.h"
#include "support/analysis_cache.h"
#include "synth/world.h"

namespace crowdex::core {
namespace {

constexpr uint64_t kFingerprint = 0x5EED5EEDu;

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

class ServingTest : public ::testing::Test {
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

  static std::string SnapPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  /// Saves `finder` at `epoch` and restores it through the cold-start path.
  static ExpertFinder RoundTrip(const ExpertFinder& finder, uint64_t epoch,
                                const std::string& name) {
    const std::string path = SnapPath(name);
    Status saved = finder.SaveSnapshot(epoch, kFingerprint, path);
    CheckOk(saved, "SaveSnapshot in test");
    Result<ExpertFinder> restored = ExpertFinder::FromSnapshotFile(
        path, kFingerprint, F().analyzed.extractor.get());
    CheckOk(restored.status(), "FromSnapshotFile in test");
    return std::move(restored).value();
  }
};

TEST_F(ServingTest, RestoredFinderRanksBitIdentically) {
  ExpertFinder built = Make(ExpertFinderConfig{});
  ExpertFinder restored = RoundTrip(built, 7, "roundtrip.snap");
  EXPECT_EQ(restored.snapshot_epoch(), 7u);
  EXPECT_EQ(built.snapshot_epoch(), 0u);
  EXPECT_TRUE(restored.corpus().search_index().serving_only());
  for (const auto& q : F().world.queries) {
    ExpectSameRanking(built.Rank(q), restored.Rank(q),
                      "query " + std::to_string(q.id));
  }
}

TEST_F(ServingTest, RestoredFinderPreservesReachability) {
  ExpertFinder built = Make(ExpertFinderConfig{});
  ExpertFinder restored = RoundTrip(built, 1, "reach.snap");
  for (size_t u = 0; u < F().world.candidates.size(); ++u) {
    EXPECT_EQ(built.ReachableResources(static_cast<int>(u)),
              restored.ReachableResources(static_cast<int>(u)))
        << "candidate " << u;
  }
}

TEST_F(ServingTest, RestoredLegacyPathAlsoMatches) {
  // The snapshot round-trip must hold on the retained legacy scorer too —
  // the restored index answers legacy Search through its frozen form.
  ExpertFinderConfig cfg;
  cfg.compiled_queries = false;
  ExpertFinder built = Make(cfg);
  ExpertFinder restored = RoundTrip(built, 2, "legacy.snap");
  EXPECT_FALSE(restored.serving_compiled());
  for (const auto& q : F().world.queries) {
    ExpectSameRanking(built.Rank(q), restored.Rank(q),
                      "legacy query " + std::to_string(q.id));
  }
}

TEST_F(ServingTest, SavedBytesAreIdenticalAcrossFinders) {
  // Two finders over the same corpus must serialize byte-identically —
  // snapshot bytes are a pure function of the serving state.
  ExpertFinder a = Make(ExpertFinderConfig{});
  ExpertFinder b = Make(ExpertFinderConfig{});
  const std::string pa = SnapPath("stable_a.snap");
  const std::string pb = SnapPath("stable_b.snap");
  ASSERT_TRUE(a.SaveSnapshot(3, kFingerprint, pa).ok());
  ASSERT_TRUE(b.SaveSnapshot(3, kFingerprint, pb).ok());
  std::ifstream fa(pa, std::ios::binary), fb(pb, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(ServingTest, FingerprintMismatchIsRejected) {
  ExpertFinder built = Make(ExpertFinderConfig{});
  const std::string path = SnapPath("fingerprint.snap");
  ASSERT_TRUE(built.SaveSnapshot(1, kFingerprint, path).ok());
  Result<ExpertFinder> r = ExpertFinder::FromSnapshotFile(
      path, kFingerprint + 1, F().analyzed.extractor.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServingTest, NullExtractorIsRejected) {
  ExpertFinder built = Make(ExpertFinderConfig{});
  const std::string path = SnapPath("noextractor.snap");
  ASSERT_TRUE(built.SaveSnapshot(1, kFingerprint, path).ok());
  Result<ExpertFinder> r =
      ExpertFinder::FromSnapshotFile(path, kFingerprint, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingTest, MissingSnapshotIsNotFound) {
  Result<ExpertFinder> r = ExpertFinder::FromSnapshotFile(
      SnapPath("missing.snap"), kFingerprint, F().analyzed.extractor.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ServingTest, RankRequestDefaultsMatchWrappers) {
  ExpertFinder finder = Make(ExpertFinderConfig{});
  const auto& q = F().world.queries.front();
  RankRequest by_text;
  by_text.text = q.text;
  Result<RankedExperts> canonical = finder.Rank(by_text);
  ASSERT_TRUE(canonical.ok());
  ExpectSameRanking(finder.Rank(q), canonical.value(), "wrapper vs request");

  index::AnalyzedQuery analyzed =
      F().analyzed.extractor->AnalyzeQuery(q.text);
  RankRequest pre;
  pre.text = "ignored when analyzed is set";
  pre.analyzed = &analyzed;
  Result<RankedExperts> via_analyzed = finder.Rank(pre);
  ASSERT_TRUE(via_analyzed.ok());
  ExpectSameRanking(finder.RankAnalyzed(analyzed), via_analyzed.value(),
                    "analyzed precedence");
}

TEST_F(ServingTest, RankRequestOverridesMatchReconfiguredFinder) {
  ExpertFinder base = Make(ExpertFinderConfig{});
  ExpertFinderConfig tuned_cfg;
  tuned_cfg.alpha = 0.25;
  tuned_cfg.window_size = 10;
  ExpertFinder tuned = Make(tuned_cfg);
  for (const auto& q : F().world.queries) {
    RankRequest req;
    req.text = q.text;
    req.alpha = 0.25;
    req.window_size = 10;
    Result<RankedExperts> overridden = base.Rank(req);
    ASSERT_TRUE(overridden.ok());
    ExpectSameRanking(tuned.Rank(q), overridden.value(),
                      "override query " + std::to_string(q.id));
  }
}

TEST_F(ServingTest, WindowFractionOverride) {
  ExpertFinder base = Make(ExpertFinderConfig{});
  ExpertFinderConfig frac_cfg;
  frac_cfg.window_size = 0;
  frac_cfg.window_fraction = 0.3;
  ExpertFinder frac = Make(frac_cfg);
  const auto& q = F().world.queries.front();
  RankRequest req;
  req.text = q.text;
  req.window_size = 0;
  req.window_fraction = 0.3;
  Result<RankedExperts> overridden = base.Rank(req);
  ASSERT_TRUE(overridden.ok());
  ExpectSameRanking(frac.Rank(q), overridden.value(), "fraction override");
}

TEST_F(ServingTest, OutOfRangeOverridesAreRejected) {
  ExpertFinder finder = Make(ExpertFinderConfig{});
  RankRequest bad_alpha;
  bad_alpha.text = "anything";
  bad_alpha.alpha = 1.5;
  EXPECT_EQ(finder.Rank(bad_alpha).status().code(),
            StatusCode::kInvalidArgument);
  bad_alpha.alpha = -0.1;
  EXPECT_EQ(finder.Rank(bad_alpha).status().code(),
            StatusCode::kInvalidArgument);

  RankRequest bad_fraction;
  bad_fraction.text = "anything";
  bad_fraction.window_size = 0;
  bad_fraction.window_fraction = 1.5;
  EXPECT_EQ(finder.Rank(bad_fraction).status().code(),
            StatusCode::kInvalidArgument);
  // The same fraction is fine when a fixed window takes precedence.
  bad_fraction.window_size = 5;
  EXPECT_TRUE(finder.Rank(bad_fraction).ok());
}

TEST_F(ServingTest, ManagerServesNothingUntilFirstSwap) {
  SnapshotManager manager;
  EXPECT_EQ(manager.Acquire(), nullptr);
  EXPECT_EQ(manager.active_epoch(), 0u);
  RankRequest req;
  req.text = F().world.queries.front().text;
  EXPECT_EQ(manager.Rank(req).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServingTest, ManagerPublishesAndRetiresEpochs) {
  obs::MetricsRegistry metrics;
  SnapshotManager manager(RuntimeContext{nullptr, &metrics});
  auto v1 = std::make_shared<const ServingSnapshot>(
      RoundTrip(Make(ExpertFinderConfig{}), 1, "mgr_v1.snap"));
  auto v2 = std::make_shared<const ServingSnapshot>(
      RoundTrip(Make(ExpertFinderConfig{}), 2, "mgr_v2.snap"));
  manager.Swap(v1);
  EXPECT_EQ(manager.active_epoch(), 1u);
  // A reader that acquired before the swap keeps its epoch.
  std::shared_ptr<const ServingSnapshot> pinned = manager.Acquire();
  manager.Swap(v2);
  EXPECT_EQ(manager.active_epoch(), 2u);
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(manager.swap_count(), 2u);
  EXPECT_EQ(metrics.counter("snapshot.swap_total")->Value(), 2u);
  EXPECT_EQ(metrics.gauge("snapshot.active_epoch")->Value(), 2);

  const auto& q = F().world.queries.front();
  RankRequest req;
  req.text = q.text;
  Result<RankedExperts> served = manager.Rank(req);
  ASSERT_TRUE(served.ok());
  ExpectSameRanking(pinned->finder().Rank(q), served.value(),
                    "served vs pinned");
}

TEST_F(ServingTest, ConcurrentRanksStayConsistentAcrossSwaps) {
  // N reader threads hammer Rank through the manager while the main
  // thread swaps between two epochs whose rankings are distinguishable
  // (window 100 vs window 1). Every response must exactly equal one of
  // the two single-epoch answers — a torn read or a mid-call swap would
  // mix windows or scores. Run under TSan, this is also the data-race
  // check for the RCU-style swap.
  ExpertFinderConfig wide_cfg;
  ExpertFinderConfig narrow_cfg;
  narrow_cfg.window_size = 1;
  auto v1 = std::make_shared<const ServingSnapshot>(
      RoundTrip(Make(wide_cfg), 1, "hammer_v1.snap"));
  auto v2 = std::make_shared<const ServingSnapshot>(
      RoundTrip(Make(narrow_cfg), 2, "hammer_v2.snap"));

  const auto& q = F().world.queries.front();
  const RankedExperts want_v1 = v1->finder().Rank(q);
  const RankedExperts want_v2 = v2->finder().Rank(q);
  ASSERT_FALSE(SameRanking(want_v1, want_v2))
      << "epochs must be distinguishable for this test to mean anything";

  SnapshotManager manager;
  manager.Swap(v1);

  constexpr int kReaders = 4;
  constexpr int kRanksPerReader = 50;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      RankRequest req;
      req.text = q.text;
      for (int i = 0; i < kRanksPerReader; ++i) {
        Result<RankedExperts> r = manager.Rank(req);
        if (!r.ok() || (!SameRanking(r.value(), want_v1) &&
                        !SameRanking(r.value(), want_v2))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread swapper([&] {
    bool odd = false;
    while (!stop.load(std::memory_order_relaxed)) {
      manager.Swap(odd ? v1 : v2);
      odd = !odd;
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0);
  const uint64_t epoch = manager.active_epoch();
  EXPECT_TRUE(epoch == 1u || epoch == 2u);
}

}  // namespace
}  // namespace crowdex::core
