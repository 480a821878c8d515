// Unit tests of the delta layer (DESIGN.md §16): append-only posting runs
// over a frozen base, tombstones, live statistics drift, canonical live-doc
// reconstruction — and the core equivalence claim that the kernel pass over
// [base runs + delta runs] (`DeltaState::Accumulate`) is bit-identical to a
// from-scratch rebuild over the live documents, counts included. The
// kernels/<tier>/ ctest entries re-run this binary under every SIMD tier.

#include "index/delta.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/search_index.h"

namespace crowdex::index {
namespace {

IndexableDocument Doc(uint64_t id, std::vector<std::string> terms,
                      std::vector<DocEntity> entities = {}) {
  IndexableDocument d;
  d.external_id = id;
  d.terms = std::move(terms);
  d.entities = std::move(entities);
  return d;
}

SearchIndex BaseIndex() {
  SearchIndex si;
  si.Add(Doc(100, {"swim", "swim", "pool"}, {{7, 2, 0.8}}));
  si.Add(Doc(200, {"pool", "race"}, {{7, 1, 0.4}, {9, 3, 0.0}}));
  si.Add(Doc(300, {"race"}, {{9, 1, 0.9}}));
  si.Add(Doc(400, {"swim", "race", "gym"}));
  si.Freeze();
  return si;
}

std::vector<QueryTermGroup> TermGroups(
    const std::vector<std::pair<std::string_view, uint32_t>>& groups) {
  std::vector<QueryTermGroup> out;
  for (const auto& [term, qtf] : groups) out.push_back({term, qtf});
  return out;
}

std::vector<QueryEntityGroup> EntityGroups(
    const std::vector<std::pair<entity::EntityId, uint32_t>>& groups) {
  std::vector<QueryEntityGroup> out;
  for (const auto& [entity, qef] : groups) out.push_back({entity, qef});
  return out;
}

/// One kernel pass over [base + delta]: every collected doc, best first.
struct LiveRanking {
  RetrievalStats stats;
  std::vector<ScoredDoc> docs;
};

LiveRanking RankLive(const DeltaState& delta,
                     const std::vector<QueryTermGroup>& terms,
                     const std::vector<QueryEntityGroup>& entities,
                     double alpha, const uint8_t* eligible = nullptr) {
  ScoreAccumulator acc;
  LiveRanking out;
  out.stats = delta.Accumulate(terms, entities, alpha, eligible, &acc);
  acc.TakeTop(out.stats.eligible, &out.docs);
  return out;
}

SearchIndex Rebuild(const DeltaState& delta) {
  SearchIndex rebuilt;
  for (const IndexableDocument& doc : delta.ReconstructLiveDocs()) {
    rebuilt.Add(doc);
  }
  rebuilt.Freeze();
  return rebuilt;
}

/// The kernel pass over [base + delta] must equal SearchGroups on a
/// from-scratch rebuild of the live documents: same external ids in the
/// same order, same score bits, and a `matched` count that excludes
/// tombstoned docs. Checked with the delta's own live mask (null filter)
/// and with a caller mask that is 0 exactly on the tombstones — the shape
/// the finder's reachability bytes take.
void ExpectMatchesRebuild(const DeltaState& delta,
                          const std::vector<QueryTermGroup>& terms,
                          const std::vector<QueryEntityGroup>& entities,
                          double alpha, const std::string& context) {
  const std::vector<ScoredDoc> want =
      Rebuild(delta).SearchGroups(terms, entities, alpha);
  std::vector<uint8_t> live(delta.total_docs());
  for (DocId d = 0; d < live.size(); ++d) live[d] = !delta.IsTombstoned(d);
  for (const uint8_t* eligible : {static_cast<const uint8_t*>(nullptr),
                                  static_cast<const uint8_t*>(live.data())}) {
    const std::string where =
        context + (eligible == nullptr ? " (live mask)" : " (caller mask)");
    const LiveRanking got = RankLive(delta, terms, entities, alpha, eligible);
    EXPECT_EQ(got.stats.matched, want.size()) << where;
    EXPECT_EQ(got.stats.eligible, want.size()) << where;
    ASSERT_EQ(want.size(), got.docs.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].external_id, got.docs[i].external_id)
          << where << " rank " << i;
      EXPECT_EQ(want[i].score, got.docs[i].score) << where << " rank " << i;
    }
  }
}

TEST(DeltaStateTest, FreshDeltaIsInactiveAndMirrorsBase) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  EXPECT_FALSE(delta.active());
  EXPECT_EQ(delta.base_docs(), 4u);
  EXPECT_EQ(delta.delta_docs(), 0u);
  EXPECT_EQ(delta.total_docs(), 4u);
  EXPECT_EQ(delta.live_docs(), 4u);
  EXPECT_EQ(delta.tombstone_count(), 0u);
  EXPECT_TRUE(delta.IsLive(100));
  EXPECT_FALSE(delta.IsLive(999));
  EXPECT_EQ(delta.LiveDocId(200), 1);
  EXPECT_EQ(delta.LiveDocId(999), -1);
  EXPECT_EQ(delta.external_id(3), 400u);
  // Live rf equals the base rf before any mutation.
  EXPECT_EQ(delta.LiveTermRf("swim"), base.ResourceFrequency("swim"));
  EXPECT_EQ(delta.LiveEntityRf(7), base.EntityResourceFrequency(7));
  EXPECT_EQ(delta.LiveDocCount(), 4u);
}

TEST(DeltaStateTest, UpsertAppendsWithTheNextDeltaId) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(delta.Upsert(Doc(500, {"swim", "dive"}, {{7, 1, 0.5}})).ok());
  EXPECT_TRUE(delta.active());
  EXPECT_EQ(delta.delta_docs(), 1u);
  EXPECT_EQ(delta.total_docs(), 5u);
  EXPECT_EQ(delta.live_docs(), 5u);
  EXPECT_EQ(delta.LiveDocId(500), 4);  // base_docs + 0
  EXPECT_EQ(delta.external_id(4), 500u);
  EXPECT_EQ(delta.LiveTermRf("swim"), 3u);  // 2 base + 1 delta
  EXPECT_EQ(delta.LiveTermRf("dive"), 1u);  // new term
  EXPECT_EQ(delta.LiveEntityRf(7), 3u);
  const DeltaTermRun* swim = delta.TermRun("swim");
  ASSERT_NE(swim, nullptr);
  ASSERT_EQ(swim->docs.size(), 1u);
  EXPECT_EQ(swim->docs[0], 4u);
  EXPECT_EQ(swim->tf[0], 1u);
  EXPECT_EQ(delta.TermRun("pool"), nullptr);
  // The entity run stores the Eq. 2 weight, not the raw confidence.
  const DeltaEntityRun* seven = delta.EntityRun(7);
  ASSERT_NE(seven, nullptr);
  EXPECT_EQ(seven->docs[0], 4u);
  EXPECT_EQ(seven->ef[0], 1u);
  EXPECT_EQ(seven->we[0], 1.0 + 0.5);
}

TEST(DeltaStateTest, RemoveTombstonesAndDecrementsLiveStats) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(delta.Remove(100).ok());
  EXPECT_TRUE(delta.active());
  EXPECT_TRUE(delta.IsTombstoned(0));
  EXPECT_FALSE(delta.IsLive(100));
  EXPECT_EQ(delta.LiveDocId(100), -1);
  EXPECT_EQ(delta.live_docs(), 3u);
  EXPECT_EQ(delta.tombstone_count(), 1u);
  EXPECT_EQ(delta.LiveTermRf("swim"), 1u);  // doc 100 held one of two
  EXPECT_EQ(delta.LiveTermRf("pool"), 1u);
  EXPECT_EQ(delta.LiveEntityRf(7), 1u);
  EXPECT_EQ(delta.LiveDocCount(), 3u);
  // A second remove of the same id is kNotFound.
  EXPECT_EQ(delta.Remove(100).code(), StatusCode::kNotFound);
}

TEST(DeltaStateTest, RemoveCountsPrunedEntityPostings) {
  // Doc 200 holds entity 9 with dscore 0: the frozen arena pruned the
  // posting, but the zero-list preserves membership, so live rf still
  // drops when the doc is removed.
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  EXPECT_EQ(delta.LiveEntityRf(9), base.EntityResourceFrequency(9));
  ASSERT_TRUE(delta.Remove(200).ok());
  EXPECT_EQ(delta.LiveEntityRf(9), base.EntityResourceFrequency(9) - 1);
}

TEST(DeltaStateTest, UpsertOfLiveIdReplaces) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(delta.Upsert(Doc(100, {"dive"})).ok());
  // Old base version tombstoned, new version appended.
  EXPECT_TRUE(delta.IsTombstoned(0));
  EXPECT_EQ(delta.LiveDocId(100), 4);
  EXPECT_EQ(delta.live_docs(), 4u);
  EXPECT_EQ(delta.total_docs(), 5u);
  EXPECT_EQ(delta.LiveTermRf("swim"), 1u);
  EXPECT_EQ(delta.LiveTermRf("dive"), 1u);
  // Replacing a delta doc tombstones the delta version too.
  ASSERT_TRUE(delta.Upsert(Doc(100, {"sprint"})).ok());
  EXPECT_TRUE(delta.IsTombstoned(4));
  EXPECT_EQ(delta.LiveDocId(100), 5);
  EXPECT_EQ(delta.live_docs(), 4u);
  EXPECT_EQ(delta.LiveTermRf("dive"), 0u);
}

TEST(DeltaStateTest, ReconstructLiveDocsIsCanonicalRebuildOrder) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(delta.Remove(200).ok());
  ASSERT_TRUE(delta.Upsert(Doc(500, {"dive"})).ok());
  ASSERT_TRUE(delta.Upsert(Doc(100, {"sprint"})).ok());
  std::vector<IndexableDocument> live = delta.ReconstructLiveDocs();
  // Base order minus tombstones (100 was replaced, 200 removed), then
  // delta appends in order.
  ASSERT_EQ(live.size(), 4u);
  EXPECT_EQ(live[0].external_id, 300u);
  EXPECT_EQ(live[1].external_id, 400u);
  EXPECT_EQ(live[2].external_id, 500u);
  EXPECT_EQ(live[3].external_id, 100u);
  ASSERT_EQ(live[3].terms.size(), 1u);
  EXPECT_EQ(live[3].terms[0], "sprint");
}

TEST(DeltaStateTest, ReconstructRoundTripsBaseDocContent) {
  // Reconstructed base docs must reproduce term multiplicities and entity
  // forward info exactly — rebuild equivalence depends on it.
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::vector<IndexableDocument> live = delta.ReconstructLiveDocs();
  ASSERT_EQ(live.size(), 4u);
  SearchIndex rebuilt;
  for (const IndexableDocument& doc : live) rebuilt.Add(doc);
  rebuilt.Freeze();
  EXPECT_EQ(rebuilt.ResourceFrequency("swim"), base.ResourceFrequency("swim"));
  EXPECT_EQ(rebuilt.TermFrequency(0, "swim"), base.TermFrequency(0, "swim"));
  EXPECT_EQ(rebuilt.EntityResourceFrequency(9),
            base.EntityResourceFrequency(9));
  EXPECT_EQ(rebuilt.Eirf(7), base.Eirf(7));
}

TEST(DeltaStateTest, FanInMatchesRebuildThroughMutationSequence) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  const auto terms = TermGroups({{"swim", 1}, {"race", 2}, {"dive", 1}});
  const auto entities = EntityGroups({{7, 1}, {9, 1}});
  struct Step {
    const char* label;
    std::function<void(DeltaState&)> apply;
  };
  const Step steps[] = {
      {"remove base doc", [](DeltaState& d) { CheckOk(d.Remove(200), "rm"); }},
      {"append new doc",
       [](DeltaState& d) {
         CheckOk(d.Upsert(Doc(500, {"dive", "race"}, {{7, 2, 0.6}})), "up");
       }},
      {"replace base doc",
       [](DeltaState& d) {
         CheckOk(d.Upsert(Doc(400, {"swim", "swim"}, {{9, 1, 0.3}})), "up");
       }},
      {"remove delta doc", [](DeltaState& d) { CheckOk(d.Remove(500), "rm"); }},
      {"replace delta doc",
       [](DeltaState& d) { CheckOk(d.Upsert(Doc(400, {"race"})), "up"); }},
  };
  for (const Step& step : steps) {
    step.apply(delta);
    for (double alpha : {0.0, 0.6, 1.0}) {
      ExpectMatchesRebuild(delta, terms, entities, alpha,
                           std::string(step.label) + " alpha=" +
                               std::to_string(alpha));
    }
  }
}

TEST(DeltaStateTest, ResetForNewBaseClearsEverything) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  {
    std::unique_lock lock(delta.mu);
    CheckOk(delta.Remove(100), "rm");
    CheckOk(delta.Upsert(Doc(500, {"dive"})), "up");
  }
  SearchIndex compacted;
  for (const IndexableDocument& doc : delta.ReconstructLiveDocs()) {
    compacted.Add(doc);
  }
  compacted.Freeze();
  {
    std::unique_lock lock(delta.mu);
    delta.ResetForNewBase(&compacted);
  }
  EXPECT_FALSE(delta.active());
  EXPECT_EQ(delta.base_docs(), 4u);
  EXPECT_EQ(delta.delta_docs(), 0u);
  EXPECT_EQ(delta.tombstone_count(), 0u);
  EXPECT_TRUE(delta.IsLive(500));
  EXPECT_FALSE(delta.IsLive(100));
  EXPECT_TRUE(delta.term_rf_delta().empty());
  EXPECT_EQ(delta.live_docs_delta(), 0);
}

TEST(DeltaStateTest, InstalledStatsOverrideLocalFallbacks) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  auto stats = std::make_shared<GlobalLiveStats>();
  stats->live_docs = 40;
  stats->term_rf["swim"] = 7;
  stats->entity_rf[7] = 9;
  auto base_rf = std::make_shared<TermRfMap>();
  (*base_rf)["pool"] = 11;
  stats->term_base_rf = base_rf;
  {
    std::unique_lock lock(delta.mu);
    delta.InstallStats(stats);
  }
  // Installing stats activates fan-in even with no local mutations (a
  // sharded peer may have mutated).
  EXPECT_TRUE(delta.active());
  EXPECT_EQ(delta.LiveDocCount(), 40u);
  EXPECT_EQ(delta.LiveTermRf("swim"), 7u);   // touched map
  EXPECT_EQ(delta.LiveTermRf("pool"), 11u);  // global base fallback
  EXPECT_EQ(delta.LiveTermRf("gym"), 0u);    // absent from both
  EXPECT_EQ(delta.LiveEntityRf(7), 9u);      // touched map
  // Entity fallback is the local frozen table (global on shards already).
  EXPECT_EQ(delta.LiveEntityRf(9), base.EntityResourceFrequency(9));
}

TEST(DeltaStateTest, DeltaOnlyTermAndEntityScoreAtTheirLeafPosition) {
  // "dive" and entity 11 exist only in the delta — a base-only compile
  // would drop them — yet they must score, in their own place in the
  // group order (between base groups), exactly as in the rebuild.
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(
      delta.Upsert(Doc(500, {"dive", "swim"}, {{11, 2, 0.7}, {7, 1, 0.2}}))
          .ok());
  ASSERT_TRUE(delta.Upsert(Doc(600, {"dive", "dive", "race"})).ok());
  const auto terms = TermGroups({{"swim", 1}, {"dive", 2}, {"race", 1}});
  const auto entities = EntityGroups({{11, 1}, {7, 3}});
  for (double alpha : {0.0, 0.4, 1.0}) {
    ExpectMatchesRebuild(delta, terms, entities, alpha,
                         "alpha=" + std::to_string(alpha));
  }
  // Work accounting: at alpha 0.4 every group runs its base segment (when
  // the base has one) and its delta run (when there is one).
  const LiveRanking got = RankLive(delta, terms, entities, 0.4);
  // swim: base + delta; dive: delta; race: base + delta; 11: delta;
  // 7: base + delta.
  EXPECT_EQ(got.stats.kernel_runs, 8u);
  // swim 1 + dive 2 + race 1 + entity 11 one + entity 7 one.
  EXPECT_EQ(got.stats.delta_postings, 6u);
}

TEST(DeltaStateTest, TombstonedBaseMatchIsNotCounted) {
  // Docs 100 and 400 both match "swim"; retiring 100 leaves its base
  // posting in the arena run the kernel scores, so the pass sees a
  // positive score on a tombstoned doc. Neither `eligible` nor `matched`
  // may count it — the rebuild does not hold the doc at all.
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(delta.Remove(100).ok());
  const auto terms = TermGroups({{"swim", 1}, {"pool", 1}});
  ExpectMatchesRebuild(delta, terms, {}, 1.0, "after base removal");
  const LiveRanking got = RankLive(delta, terms, {}, 1.0);
  EXPECT_EQ(got.stats.matched, 2u);  // 200 (pool) and 400 (swim)
  ASSERT_EQ(got.docs.size(), 2u);
  for (const ScoredDoc& d : got.docs) EXPECT_NE(d.external_id, 100u);
}

TEST(DeltaStateTest, ZeroConfidenceDeltaEntityScoresNothing) {
  // A delta entity posting with dscore 0 has Eq. 2 weight 0: the run keeps
  // it (contributing +0.0) where `Freeze` prunes it, and neither side may
  // count the doc as matched through it.
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(delta.Upsert(Doc(500, {"gym"}, {{9, 2, 0.0}})).ok());
  ASSERT_TRUE(delta.Upsert(Doc(600, {"swim"}, {{9, 1, 0.0}, {7, 1, 0.3}}))
                  .ok());
  const DeltaEntityRun* nine = delta.EntityRun(9);
  ASSERT_NE(nine, nullptr);
  EXPECT_EQ(nine->we[0], 0.0);
  const auto entities = EntityGroups({{9, 1}, {7, 1}});
  const auto terms = TermGroups({{"gym", 1}});
  for (double alpha : {0.0, 0.5}) {
    ExpectMatchesRebuild(delta, terms, entities, alpha,
                         "alpha=" + std::to_string(alpha));
  }
  // Entity-only: doc 500 is touched (weight 0) but never matched.
  const LiveRanking got = RankLive(delta, {}, EntityGroups({{9, 1}}), 0.0);
  for (const ScoredDoc& d : got.docs) {
    EXPECT_NE(d.external_id, 500u);
    EXPECT_NE(d.external_id, 600u);
  }
}

TEST(DeltaStateTest, DeltaDocReplacedTwiceLeavesOneLiveVersion) {
  SearchIndex base = BaseIndex();
  DeltaState delta(&base);
  std::unique_lock lock(delta.mu);
  ASSERT_TRUE(delta.Upsert(Doc(500, {"swim", "race"}, {{7, 1, 0.9}})).ok());
  ASSERT_TRUE(delta.Upsert(Doc(500, {"swim", "swim"})).ok());
  ASSERT_TRUE(delta.Upsert(Doc(500, {"race"}, {{7, 3, 0.1}})).ok());
  // Two retired delta versions (ids 4 and 5), one live (id 6); both dead
  // versions still sit in the "swim" / "race" delta runs.
  EXPECT_TRUE(delta.IsTombstoned(4));
  EXPECT_TRUE(delta.IsTombstoned(5));
  EXPECT_EQ(delta.LiveDocId(500), 6);
  EXPECT_EQ(delta.tombstone_count(), 2u);
  EXPECT_EQ(delta.external_id(6), 500u);
  const auto terms = TermGroups({{"race", 1}, {"swim", 1}});
  const auto entities = EntityGroups({{7, 1}});
  for (double alpha : {0.0, 0.6, 1.0}) {
    ExpectMatchesRebuild(delta, terms, entities, alpha,
                         "alpha=" + std::to_string(alpha));
  }
}

}  // namespace
}  // namespace crowdex::index
