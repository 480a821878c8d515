// End-to-end reproduction checks: the qualitative findings of the paper
// must hold on a generated world. These run at a reduced scale (0.1) to
// stay fast; the bench binaries reproduce the full-scale tables.

#include <gtest/gtest.h>

#include "core/analyzed_world.h"
#include "core/expert_finder.h"
#include "eval/experiment.h"
#include "support/analysis_cache.h"
#include "synth/world.h"

namespace crowdex {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  struct Fixture {
    synth::SyntheticWorld world;
    core::AnalyzedWorld analyzed;
    std::unique_ptr<core::CorpusIndex> all_index;
  };

  static const Fixture& F() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      synth::WorldConfig cfg;
      cfg.scale = 0.1;
      fx->world = synth::GenerateWorld(cfg);
      fx->analyzed = test_support::AnalyzeWorldCached(&fx->world, cfg, 0);
      fx->all_index = std::make_unique<core::CorpusIndex>(
          &fx->analyzed, platform::kAllPlatformsMask);
      return fx;
    }();
    return *f;
  }

  static eval::AggregateMetrics EvaluateConfig(
      const core::ExpertFinderConfig& cfg) {
    eval::ExperimentRunner runner(&F().world);
    if (cfg.platforms == platform::kAllPlatformsMask) {
      core::ExpertFinder finder = core::ExpertFinder::Create(
          &F().analyzed, cfg, F().all_index.get()).value();
      return runner.Evaluate(finder, F().world.queries);
    }
    core::ExpertFinder finder =
        core::ExpertFinder::Create(&F().analyzed, cfg).value();
    return runner.Evaluate(finder, F().world.queries);
  }
};

TEST_F(IntegrationTest, DatasetShapeMatchesFig5a) {
  // Facebook is the largest corpus; LinkedIn the smallest; ~70 % English.
  const auto& corpora = F().analyzed.corpora;
  size_t fb = corpora[0].nodes_with_text;
  size_t tw = corpora[1].nodes_with_text;
  size_t li = corpora[2].nodes_with_text;
  EXPECT_GT(fb, li * 4);
  EXPECT_GT(tw, li * 4);
  size_t total_text = fb + tw + li;
  size_t total_english =
      corpora[0].english_nodes + corpora[1].english_nodes +
      corpora[2].english_nodes;
  double english_share = static_cast<double>(total_english) / total_text;
  EXPECT_GT(english_share, 0.55);
  EXPECT_LT(english_share, 0.85);
}

TEST_F(IntegrationTest, ProfilesAloneAreWorseThanRandom) {
  // Sec. 3.4: distance-0 (profile-only) metrics fall below the random
  // baseline; static profiles are inadequate for expert finding.
  eval::ExperimentRunner runner(&F().world);
  eval::AggregateMetrics random = runner.RandomBaseline(F().world.queries);
  core::ExpertFinderConfig d0;
  d0.max_distance = 0;
  eval::AggregateMetrics m0 = EvaluateConfig(d0);
  EXPECT_LT(m0.map, random.map);
  EXPECT_LT(m0.ndcg, random.ndcg);
}

TEST_F(IntegrationTest, SocialActivityBeatsProfilesAndRandom) {
  // The paper's core claim: behavioral traces (distances 1-2) beat both
  // profile-only retrieval and the random baseline on every metric family.
  eval::ExperimentRunner runner(&F().world);
  eval::AggregateMetrics random = runner.RandomBaseline(F().world.queries);
  core::ExpertFinderConfig d0;
  d0.max_distance = 0;
  core::ExpertFinderConfig d1;
  d1.max_distance = 1;
  core::ExpertFinderConfig d2;
  d2.max_distance = 2;
  eval::AggregateMetrics m0 = EvaluateConfig(d0);
  eval::AggregateMetrics m1 = EvaluateConfig(d1);
  eval::AggregateMetrics m2 = EvaluateConfig(d2);

  EXPECT_GT(m1.map, random.map);
  EXPECT_GT(m2.map, random.map);
  EXPECT_GT(m1.map, m0.map);
  EXPECT_GT(m2.map, m1.map * 0.95);  // d2 >= d1 (small tolerance).
  EXPECT_GT(m1.ndcg, m0.ndcg);
  EXPECT_GT(m2.ndcg, random.ndcg);
}

TEST_F(IntegrationTest, TwitterIsTheStrongestSingleNetworkAtDistance2) {
  // Sec. 3.5: Twitter alone at distance 2 beats the other single networks.
  core::ExpertFinderConfig tw;
  tw.platforms = platform::MaskOf(platform::Platform::kTwitter);
  core::ExpertFinderConfig fb;
  fb.platforms = platform::MaskOf(platform::Platform::kFacebook);
  core::ExpertFinderConfig li;
  li.platforms = platform::MaskOf(platform::Platform::kLinkedIn);
  eval::AggregateMetrics m_tw = EvaluateConfig(tw);
  eval::AggregateMetrics m_fb = EvaluateConfig(fb);
  eval::AggregateMetrics m_li = EvaluateConfig(li);
  EXPECT_GT(m_tw.map, m_fb.map);
  EXPECT_GT(m_tw.map, m_li.map);
}

TEST_F(IntegrationTest, LinkedInTrailsOverall) {
  core::ExpertFinderConfig li;
  li.platforms = platform::MaskOf(platform::Platform::kLinkedIn);
  core::ExpertFinderConfig all;
  eval::AggregateMetrics m_li = EvaluateConfig(li);
  eval::AggregateMetrics m_all = EvaluateConfig(all);
  EXPECT_LT(m_li.map, m_all.map);
  EXPECT_LT(m_li.ndcg, m_all.ndcg);
}

TEST_F(IntegrationTest, TwitterFriendsDoNotHelpMuch) {
  // Sec. 3.3.3 / Table 2: adding friend resources moves metrics by only a
  // small amount in either direction.
  core::ExpertFinderConfig without;
  without.platforms = platform::MaskOf(platform::Platform::kTwitter);
  core::ExpertFinderConfig with = without;
  with.include_friends = true;
  eval::AggregateMetrics m_without = EvaluateConfig(without);
  eval::AggregateMetrics m_with = EvaluateConfig(with);
  EXPECT_NEAR(m_with.map, m_without.map, 0.12);
  EXPECT_NEAR(m_with.ndcg, m_without.ndcg, 0.12);
}

TEST_F(IntegrationTest, AlphaExtremesUnderperformAtDistance0) {
  // Sec. 3.3.2: entity-only scoring (alpha = 0) collapses on profiles
  // (too little text for disambiguation).
  core::ExpertFinderConfig entity_only;
  entity_only.max_distance = 0;
  entity_only.alpha = 0.0;
  core::ExpertFinderConfig balanced;
  balanced.max_distance = 0;
  balanced.alpha = 0.6;
  eval::AggregateMetrics m_e = EvaluateConfig(entity_only);
  eval::AggregateMetrics m_b = EvaluateConfig(balanced);
  EXPECT_LT(m_e.map, m_b.map + 0.02);
}

TEST_F(IntegrationTest, MapGrowsWithWindowSize) {
  // Sec. 3.3.1 / Fig. 6: MAP and NDCG increase with the window size.
  core::ExpertFinderConfig tiny;
  tiny.window_size = 5;
  core::ExpertFinderConfig medium;
  medium.window_size = 100;
  core::ExpertFinderConfig huge;
  huge.window_size = 0;
  huge.window_fraction = 0.10;
  eval::AggregateMetrics m_tiny = EvaluateConfig(tiny);
  eval::AggregateMetrics m_medium = EvaluateConfig(medium);
  eval::AggregateMetrics m_huge = EvaluateConfig(huge);
  EXPECT_GT(m_medium.map, m_tiny.map);
  EXPECT_GE(m_huge.map, m_medium.map * 0.9);
}

TEST_F(IntegrationTest, ReliabilityCorrelatesWithResourceCount) {
  // Fig. 10: candidates with more social resources are assessed better.
  eval::ExperimentRunner runner(&F().world);
  core::ExpertFinder finder = core::ExpertFinder::Create(
      &F().analyzed, core::ExpertFinderConfig{}, F().all_index.get()).value();
  auto reliability = runner.PerUserReliability(finder, F().world.queries);
  std::vector<double> x, y;
  for (const auto& r : reliability) {
    x.push_back(static_cast<double>(r.resources));
    y.push_back(r.metrics.f1);
  }
  eval::LinearFit fit = eval::FitLinear(x, y);
  EXPECT_GT(fit.pearson, 0.0);
}

TEST_F(IntegrationTest, LinkedInDistance0StrongForComputerEngineering) {
  // Table 4: LinkedIn profiles carry real signal for computer engineering.
  eval::ExperimentRunner runner(&F().world);
  core::ExpertFinderConfig li0;
  li0.platforms = platform::MaskOf(platform::Platform::kLinkedIn);
  li0.max_distance = 0;
  core::ExpertFinder finder =
      core::ExpertFinder::Create(&F().analyzed, li0).value();
  auto ce_queries = synth::QueriesForDomain(Domain::kComputerEngineering);
  auto music_queries = synth::QueriesForDomain(Domain::kMusic);
  eval::AggregateMetrics ce = runner.Evaluate(finder, ce_queries);
  eval::AggregateMetrics music = runner.Evaluate(finder, music_queries);
  EXPECT_GT(ce.map, music.map);
}

TEST_F(IntegrationTest, EveryQueryRetrievesSomething) {
  core::ExpertFinder finder = core::ExpertFinder::Create(
      &F().analyzed, core::ExpertFinderConfig{}, F().all_index.get()).value();
  for (const auto& q : F().world.queries) {
    core::RankedExperts r = finder.Rank(q);
    EXPECT_GT(r.matched_resources, 0u) << "query " << q.id << ": " << q.text;
    EXPECT_FALSE(r.ranking.empty()) << "query " << q.id;
  }
}

}  // namespace
}  // namespace crowdex
