#include "core/expert_finder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "core/analyzed_world.h"
#include "support/analysis_cache.h"
#include "synth/world.h"

namespace crowdex::core {
namespace {

// A shared small world for all finder tests (generation + analysis is the
// expensive part; the tests only vary finder configurations).
class ExpertFinderTest : public ::testing::Test {
 protected:
  struct Fixture {
    synth::SyntheticWorld world;
    AnalyzedWorld analyzed;
  };

  static const Fixture& F() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      synth::WorldConfig cfg;
      cfg.scale = 0.02;
      fx->world = synth::GenerateWorld(cfg);
      fx->analyzed = test_support::AnalyzeWorldCached(&fx->world, cfg, 0);
      return fx;
    }();
    return *f;
  }

  static synth::ExpertiseNeed QueryForDomain(Domain d) {
    for (const auto& q : F().world.queries) {
      if (q.domain == d) return q;
    }
    return F().world.queries.front();
  }
};

TEST_F(ExpertFinderTest, RankingIsSortedAndPositive) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
  ASSERT_FALSE(r.ranking.empty());
  for (size_t i = 0; i < r.ranking.size(); ++i) {
    EXPECT_GT(r.ranking[i].score, 0.0);
    if (i > 0) {
      EXPECT_GE(r.ranking[i - 1].score, r.ranking[i].score);
    }
  }
}

TEST_F(ExpertFinderTest, RankingCandidatesAreUniqueAndValid) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kMusic));
  std::set<int> seen;
  for (const auto& e : r.ranking) {
    EXPECT_GE(e.candidate, 0);
    EXPECT_LT(e.candidate, 40);
    EXPECT_TRUE(seen.insert(e.candidate).second);
  }
}

TEST_F(ExpertFinderTest, DeterministicAcrossCalls) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  auto q = QueryForDomain(Domain::kScience);
  RankedExperts a = finder.Rank(q);
  RankedExperts b = finder.Rank(q);
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].candidate, b.ranking[i].candidate);
    EXPECT_EQ(a.ranking[i].score, b.ranking[i].score);
  }
}

TEST_F(ExpertFinderTest, WindowLimitsConsideredResources) {
  ExpertFinderConfig small;
  small.window_size = 5;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, small).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
  EXPECT_LE(r.considered_resources, 5u);
  EXPECT_GE(r.reachable_resources, r.considered_resources);
  EXPECT_GE(r.matched_resources, r.reachable_resources);
}

TEST_F(ExpertFinderTest, UnlimitedWindowUsesAllReachable) {
  ExpertFinderConfig cfg;
  cfg.window_size = 0;
  cfg.window_fraction = 0.0;  // all
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
  EXPECT_EQ(r.considered_resources, r.reachable_resources);
}

TEST_F(ExpertFinderTest, WindowFractionApplies) {
  ExpertFinderConfig cfg;
  cfg.window_size = 0;
  cfg.window_fraction = 0.5;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
  EXPECT_NEAR(static_cast<double>(r.considered_resources),
              0.5 * r.reachable_resources, 1.0);
}

TEST_F(ExpertFinderTest, WindowLargerThanMatchesConsidersEverythingReachable) {
  ExpertFinderConfig cfg;
  cfg.window_size = 1000000;  // Far above any reachable count in this world.
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
  ASSERT_GT(r.reachable_resources, 0u);
  EXPECT_EQ(r.considered_resources, r.reachable_resources);
}

TEST_F(ExpertFinderTest, WindowSizeTakesPrecedenceOverFraction) {
  ExpertFinderConfig cfg;
  cfg.window_size = 3;
  cfg.window_fraction = 0.9;  // Ignored: an explicit size wins.
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
  EXPECT_LE(r.considered_resources, 3u);
}

TEST_F(ExpertFinderTest, WindowFractionRoundsToNearest) {
  // The fractional window is llround(fraction * reachable), clamped to the
  // reachable count. Pin that exact arithmetic for several fractions,
  // including ones that round up from below half a resource.
  for (double fraction : {0.001, 0.1, 0.25, 0.5, 0.9, 0.999}) {
    ExpertFinderConfig cfg;
    cfg.window_size = 0;
    cfg.window_fraction = fraction;
    ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
    RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
    const size_t expected = std::min<size_t>(
        r.reachable_resources,
        static_cast<size_t>(std::llround(fraction * r.reachable_resources)));
    EXPECT_EQ(r.considered_resources, expected) << "fraction " << fraction;
  }
}

TEST_F(ExpertFinderTest, VanishingFractionConsidersNothing) {
  ExpertFinderConfig cfg;
  cfg.window_size = 0;
  cfg.window_fraction = 1e-9;  // Rounds to a zero-resource window.
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankedExperts r = finder.Rank(QueryForDomain(Domain::kSport));
  ASSERT_GT(r.reachable_resources, 0u);
  EXPECT_EQ(r.considered_resources, 0u);
  EXPECT_TRUE(r.ranking.empty());
}

TEST_F(ExpertFinderTest, QueryMatchingNothingYieldsEmptyRanking) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  // Out-of-vocabulary terms: nothing matches, so nothing is reachable and
  // the window degenerates to zero without tripping any bounds.
  RankRequest request;
  request.text = "zzzyqx wvvqk jjjxq";
  RankedExperts r = finder.Rank(request).value();
  EXPECT_EQ(r.matched_resources, 0u);
  EXPECT_EQ(r.reachable_resources, 0u);
  EXPECT_EQ(r.considered_resources, 0u);
  EXPECT_TRUE(r.ranking.empty());
}

TEST_F(ExpertFinderTest, LargerWindowNeverReducesRetrievedExperts) {
  ExpertFinderConfig small;
  small.window_size = 10;
  ExpertFinderConfig large;
  large.window_size = 1000;
  CorpusIndex shared(&F().analyzed, platform::kAllPlatformsMask);
  ExpertFinder f_small =
      ExpertFinder::Create(&F().analyzed, small, &shared).value();
  ExpertFinder f_large =
      ExpertFinder::Create(&F().analyzed, large, &shared).value();
  for (const auto& q : F().world.queries) {
    EXPECT_LE(f_small.Rank(q).ranking.size(), f_large.Rank(q).ranking.size());
  }
}

TEST_F(ExpertFinderTest, Distance0UsesOnlyProfiles) {
  ExpertFinderConfig cfg;
  cfg.max_distance = 0;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  // Reachable resources per candidate = (English) profiles only, <= 3.
  for (int u = 0; u < 40; ++u) {
    EXPECT_LE(finder.ReachableResources(u), 3u);
  }
}

TEST_F(ExpertFinderTest, ReachableResourcesGrowWithDistance) {
  CorpusIndex shared(&F().analyzed, platform::kAllPlatformsMask);
  ExpertFinderConfig d0;
  d0.max_distance = 0;
  ExpertFinderConfig d1;
  d1.max_distance = 1;
  ExpertFinderConfig d2;
  d2.max_distance = 2;
  ExpertFinder f0 = ExpertFinder::Create(&F().analyzed, d0, &shared).value();
  ExpertFinder f1 = ExpertFinder::Create(&F().analyzed, d1, &shared).value();
  ExpertFinder f2 = ExpertFinder::Create(&F().analyzed, d2, &shared).value();
  for (int u = 0; u < 40; ++u) {
    EXPECT_LE(f0.ReachableResources(u), f1.ReachableResources(u));
    EXPECT_LE(f1.ReachableResources(u), f2.ReachableResources(u));
  }
  // And strictly for at least one candidate.
  size_t total0 = 0, total1 = 0, total2 = 0;
  for (int u = 0; u < 40; ++u) {
    total0 += f0.ReachableResources(u);
    total1 += f1.ReachableResources(u);
    total2 += f2.ReachableResources(u);
  }
  EXPECT_LT(total0, total1);
  EXPECT_LT(total1, total2);
}

TEST_F(ExpertFinderTest, IncludeFriendsAddsTwitterResources) {
  ExpertFinderConfig without;
  without.platforms = platform::MaskOf(platform::Platform::kTwitter);
  ExpertFinderConfig with = without;
  with.include_friends = true;
  CorpusIndex shared(&F().analyzed, without.platforms);
  ExpertFinder f_without =
      ExpertFinder::Create(&F().analyzed, without, &shared).value();
  ExpertFinder f_with =
      ExpertFinder::Create(&F().analyzed, with, &shared).value();
  size_t total_without = 0, total_with = 0;
  for (int u = 0; u < 40; ++u) {
    total_without += f_without.ReachableResources(u);
    total_with += f_with.ReachableResources(u);
  }
  EXPECT_GT(total_with, total_without);
}

TEST_F(ExpertFinderTest, PlatformMaskRestrictsCorpus) {
  ExpertFinderConfig fb_only;
  fb_only.platforms = platform::MaskOf(platform::Platform::kFacebook);
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, fb_only).value();
  EXPECT_LT(finder.corpus().document_count(),
            CorpusIndex(&F().analyzed, platform::kAllPlatformsMask)
                .document_count());
}

TEST_F(ExpertFinderTest, SharedIndexMatchesOwnedIndex) {
  ExpertFinderConfig cfg;
  CorpusIndex shared(&F().analyzed, platform::kAllPlatformsMask);
  ExpertFinder f_shared =
      ExpertFinder::Create(&F().analyzed, cfg, &shared).value();
  ExpertFinder f_owned = ExpertFinder::Create(&F().analyzed, cfg).value();
  auto q = QueryForDomain(Domain::kMoviesTv);
  RankedExperts a = f_shared.Rank(q);
  RankedExperts b = f_owned.Rank(q);
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].candidate, b.ranking[i].candidate);
    EXPECT_NEAR(a.ranking[i].score, b.ranking[i].score, 1e-9);
  }
}

TEST_F(ExpertFinderTest, RankTextMatchesRankOnSameText) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  auto q = QueryForDomain(Domain::kTechnologyGames);
  RankedExperts a = finder.Rank(q);
  RankedExperts b = finder.RankText(q.text);
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].candidate, b.ranking[i].candidate);
  }
}

TEST_F(ExpertFinderTest, NonsenseQueryMatchesNothing) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  RankRequest request;
  request.text = "qqq zzz xxxyyy unmatched";
  RankedExperts r = finder.Rank(request).value();
  EXPECT_EQ(r.matched_resources, 0u);
  EXPECT_TRUE(r.ranking.empty());
}

TEST_F(ExpertFinderTest, ReachableResourcesOutOfRangeIsZero) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  EXPECT_EQ(finder.ReachableResources(-1), 0u);
  EXPECT_EQ(finder.ReachableResources(1000), 0u);
}

TEST_F(ExpertFinderTest, ExplainEvidenceSumsToScore) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  auto q = QueryForDomain(Domain::kSport);
  RankedExperts r = finder.Rank(q);
  ASSERT_FALSE(r.ranking.empty());
  int top = r.ranking.front().candidate;
  auto evidence = finder.Explain(q.text, top, /*top_k=*/100000);
  double sum = 0;
  for (const auto& ev : evidence) sum += ev.contribution;
  EXPECT_NEAR(sum, r.ranking.front().score, 1e-6);
}

TEST_F(ExpertFinderTest, ExplainSortedByContribution) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  auto q = QueryForDomain(Domain::kMusic);
  RankedExperts r = finder.Rank(q);
  ASSERT_FALSE(r.ranking.empty());
  auto evidence = finder.Explain(q.text, r.ranking.front().candidate, 10);
  EXPECT_LE(evidence.size(), 10u);
  for (size_t i = 1; i < evidence.size(); ++i) {
    EXPECT_GE(evidence[i - 1].contribution, evidence[i].contribution);
  }
  for (const auto& ev : evidence) {
    EXPECT_LE(ev.contribution, ev.resource_score + 1e-12);
    EXPECT_GE(ev.distance, 0);
    EXPECT_LE(ev.distance, cfg.max_distance);
    EXPECT_TRUE(platform::MaskContains(cfg.platforms, ev.platform));
  }
}

TEST_F(ExpertFinderTest, ExplainRespectsDistanceConfig) {
  ExpertFinderConfig d0;
  d0.max_distance = 0;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, d0).value();
  auto q = QueryForDomain(Domain::kComputerEngineering);
  RankedExperts r = finder.Rank(q);
  for (const auto& e : r.ranking) {
    for (const auto& ev : finder.Explain(q.text, e.candidate, 50)) {
      EXPECT_EQ(ev.distance, 0);
    }
  }
}

TEST_F(ExpertFinderTest, ExplainInvalidCandidateIsEmpty) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  EXPECT_TRUE(finder.Explain("football match", -1, 5).empty());
  EXPECT_TRUE(finder.Explain("football match", 9999, 5).empty());
}

TEST_F(ExpertFinderTest, ExplainUnrankedCandidateIsEmpty) {
  ExpertFinderConfig cfg;
  ExpertFinder finder = ExpertFinder::Create(&F().analyzed, cfg).value();
  auto q = QueryForDomain(Domain::kScience);
  RankedExperts r = finder.Rank(q);
  std::set<int> ranked;
  for (const auto& e : r.ranking) ranked.insert(e.candidate);
  for (int u = 0; u < 40; ++u) {
    if (!ranked.contains(u)) {
      EXPECT_TRUE(finder.Explain(q.text, u, 5).empty());
      break;
    }
  }
}

TEST_F(ExpertFinderTest, AlphaChangesScoresButKeepsDeterminism) {
  CorpusIndex shared(&F().analyzed, platform::kAllPlatformsMask);
  ExpertFinderConfig a0;
  a0.alpha = 0.0;
  ExpertFinderConfig a1;
  a1.alpha = 1.0;
  ExpertFinder f0 = ExpertFinder::Create(&F().analyzed, a0, &shared).value();
  ExpertFinder f1 = ExpertFinder::Create(&F().analyzed, a1, &shared).value();
  auto q = QueryForDomain(Domain::kSport);
  RankedExperts r0 = f0.Rank(q);
  RankedExperts r1 = f1.Rank(q);
  // Entity-only retrieval matches fewer resources than keyword retrieval.
  EXPECT_LT(r0.matched_resources, r1.matched_resources);
}

TEST_F(ExpertFinderTest, CreateRejectsNullAnalyzedWorld) {
  Result<ExpertFinder> r = ExpertFinder::Create(nullptr, ExpertFinderConfig{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExpertFinderTest, CreateRejectsUnanalyzedWorld) {
  AnalyzedWorld empty;  // never ran through AnalyzeWorld
  Result<ExpertFinder> r = ExpertFinder::Create(&empty, ExpertFinderConfig{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExpertFinderTest, CreateRejectsInvalidConfig) {
  ExpertFinderConfig bad_alpha;
  bad_alpha.alpha = 1.5;
  Result<ExpertFinder> r = ExpertFinder::Create(&F().analyzed, bad_alpha);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  ExpertFinderConfig no_platforms;
  no_platforms.platforms = 0;
  Result<ExpertFinder> r2 = ExpertFinder::Create(&F().analyzed, no_platforms);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExpertFinderTest, CreateRejectsSharedIndexWithInsufficientCoverage) {
  CorpusIndex fb_only(&F().analyzed,
                      platform::MaskOf(platform::Platform::kFacebook));
  ExpertFinderConfig all;  // defaults to every platform
  Result<ExpertFinder> r = ExpertFinder::Create(&F().analyzed, all, &fb_only);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExpertFinderTest, CreateAcceptsCoveringSharedIndexAndMovedFinderWorks) {
  CorpusIndex shared(&F().analyzed, platform::kAllPlatformsMask);
  Result<ExpertFinder> r =
      ExpertFinder::Create(&F().analyzed, ExpertFinderConfig{}, &shared);
  ASSERT_TRUE(r.ok()) << r.status();
  // The factory hands the finder out by move; ranking must survive it.
  ExpertFinder moved = std::move(r).value();
  EXPECT_FALSE(moved.Rank(QueryForDomain(Domain::kSport)).ranking.empty());
}

}  // namespace
}  // namespace crowdex::core
