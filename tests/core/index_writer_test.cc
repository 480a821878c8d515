// IndexWriter behavior tests (DESIGN.md §16): attach preconditions, batch
// validation atomicity, write-ahead segment logging and replay, in-place
// compaction, epoch-publishing compaction through the snapshot manager,
// the frozen-index mutation guard (typed kFailedPrecondition), and the
// index.delta.* / index.compact.* observability surface.

#include "core/index_writer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzed_world.h"
#include "core/corpus_index.h"
#include "core/expert_finder.h"
#include "core/serving.h"
#include "index/search_index.h"
#include "obs/metrics.h"
#include "support/analysis_cache.h"
#include "synth/world.h"

namespace crowdex::core {
namespace {

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

class IndexWriterTest : public ::testing::Test {
 protected:
  struct Fixture {
    synth::SyntheticWorld world;
    AnalyzedWorld analyzed;
    std::unique_ptr<CorpusIndex> shared_index;
  };

  static Fixture& F() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      synth::WorldConfig cfg;
      cfg.scale = 0.02;
      fx->world = synth::GenerateWorld(cfg);
      fx->analyzed = test_support::AnalyzeWorldCached(&fx->world, cfg);
      fx->shared_index = std::make_unique<CorpusIndex>(
          &fx->analyzed, platform::kAllPlatformsMask);
      return fx;
    }();
    return *f;
  }

  /// A finder that OWNS its corpus index — the writer-attachable kind.
  static ExpertFinder MakeOwning(
      const ExpertFinderConfig& cfg = ExpertFinderConfig{}) {
    return ExpertFinder::Create(&F().analyzed, cfg).value();
  }

  /// A mutation batch whose terms/entities come from a real query, so the
  /// docs influence rankings of that query.
  static UpdateBatch SampleBatch() {
    const auto& q = F().world.queries.front();
    index::AnalyzedQuery aq = F().analyzed.extractor->AnalyzeQuery(q.text);
    UpdateBatch batch;
    UpsertDoc up;
    up.doc.external_id = 9'000'001;
    up.doc.terms = aq.terms;
    for (size_t i = 0; i < aq.entities.size(); ++i) {
      up.doc.entities.push_back(
          {aq.entities[i], static_cast<uint32_t>(i % 3 + 1), 0.7});
    }
    up.associations = {{0, 0}, {1, 2}};
    batch.upserts.push_back(std::move(up));
    return batch;
  }

  static RankedExperts RankFirstQuery(const ExpertFinder& finder) {
    RankRequest request;
    request.text = F().world.queries.front().text;
    return finder.Rank(request).value();
  }

  static RankedExperts RankQuery(const ExpertFinder& finder,
                                 const std::string& text) {
    RankRequest request;
    request.text = text;
    return finder.Rank(request).value();
  }
};

TEST_F(IndexWriterTest, AttachRequiresOwnedCorpus) {
  ExpertFinder shared =
      ExpertFinder::Create(&F().analyzed, ExpertFinderConfig{},
                           F().shared_index.get())
          .value();
  Result<IndexWriter> writer = IndexWriter::Attach(&shared);
  EXPECT_EQ(writer.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(IndexWriter::Attach(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IndexWriterTest, AttachIsExclusivePerFinder) {
  ExpertFinder finder = MakeOwning();
  Result<IndexWriter> first = IndexWriter::Attach(&finder);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<IndexWriter> second = IndexWriter::Attach(&finder);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(IndexWriterTest, AttachAloneChangesNoRanking) {
  ExpertFinder plain = MakeOwning();
  ExpertFinder attached = MakeOwning();
  Result<IndexWriter> writer = IndexWriter::Attach(&attached);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_FALSE(writer.value().delta().active());
  for (const auto& q : F().world.queries) {
    RankRequest request;
    request.text = q.text;
    ExpectSameRanking(plain.Rank(request).value(),
                      attached.Rank(request).value(),
                      "query " + std::to_string(q.id));
  }
}

TEST_F(IndexWriterTest, ApplyValidationFailuresLeaveStateUntouched) {
  ExpertFinder finder = MakeOwning();
  IndexWriter writer = IndexWriter::Attach(&finder).value();
  const RankedExperts before = RankFirstQuery(finder);

  // Duplicate a LIVE id: the first occurrence passes the liveness check,
  // the second must be rejected as a duplicate.
  UpdateBatch dup;
  const uint64_t live_ext = writer.delta().external_id(0);
  dup.deletions = {live_ext, live_ext};
  EXPECT_EQ(writer.Apply(dup).code(), StatusCode::kInvalidArgument);

  UpdateBatch missing;
  missing.deletions = {123'456'789};
  EXPECT_EQ(writer.Apply(missing).code(), StatusCode::kNotFound);

  UpdateBatch bad_candidate = SampleBatch();
  bad_candidate.upserts[0].associations = {
      {static_cast<int>(finder.num_candidates()), 1}};
  EXPECT_EQ(writer.Apply(bad_candidate).code(),
            StatusCode::kInvalidArgument);

  // Nothing committed: the delta is still inactive and rankings are
  // byte-identical to before the rejected batches.
  EXPECT_FALSE(writer.delta().active());
  EXPECT_EQ(writer.batches_applied(), 0u);
  ExpectSameRanking(before, RankFirstQuery(finder), "after rejected batches");
}

TEST_F(IndexWriterTest, ApplyCommitsAtomicallyAndCountsBatches) {
  ExpertFinder finder = MakeOwning();
  IndexWriter writer = IndexWriter::Attach(&finder).value();
  ASSERT_TRUE(writer.Apply(SampleBatch()).ok());
  EXPECT_TRUE(writer.delta().active());
  EXPECT_EQ(writer.batches_applied(), 1u);
  {
    index::DeltaReadGuard guard(&writer.delta());
    EXPECT_EQ(writer.delta().delta_docs(), 1u);
    EXPECT_TRUE(writer.delta().IsLive(9'000'001));
  }
  // The new doc is associated with candidates 0 and 1 — removing it again
  // must restore the original ranking exactly.
  ExpertFinder reference = MakeOwning();
  UpdateBatch removal;
  removal.deletions = {9'000'001};
  ASSERT_TRUE(writer.Apply(removal).ok());
  EXPECT_EQ(writer.batches_applied(), 2u);
  for (const auto& q : F().world.queries) {
    RankRequest request;
    request.text = q.text;
    ExpectSameRanking(reference.Rank(request).value(),
                      finder.Rank(request).value(),
                      "add+remove round trip, query " + std::to_string(q.id));
  }
}

TEST_F(IndexWriterTest, FrozenIndexMutationIsTypedFailedPrecondition) {
  // Satellite regression: BulkAdd on a frozen index must return a typed
  // kFailedPrecondition (it used to silently drop the frozen form).
  index::SearchIndex si;
  index::IndexableDocument doc;
  doc.external_id = 1;
  doc.terms = {"swim"};
  si.Add(doc);
  si.Freeze();
  ASSERT_TRUE(si.frozen());
  std::vector<std::string> terms = {"dive"};
  std::vector<index::DocEntity> entities;
  std::vector<index::DocView> views = {{2, &terms, &entities}};
  Status status = si.BulkAdd(views);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(si.frozen());
  EXPECT_EQ(si.size(), 1u);
}

TEST_F(IndexWriterTest, LogBatchRoundTripsThroughApplySegmentFile) {
  const std::string path = ::testing::TempDir() + "/writer_segment.seg";
  ExpertFinder direct = MakeOwning();
  ExpertFinder replayed = MakeOwning();
  IndexWriter direct_writer = IndexWriter::Attach(&direct).value();
  IndexWriter replay_writer = IndexWriter::Attach(&replayed).value();

  const UpdateBatch batch = SampleBatch();
  ASSERT_TRUE(direct_writer.LogBatch(batch, path).ok());
  ASSERT_TRUE(direct_writer.Apply(batch).ok());
  ASSERT_TRUE(replay_writer.ApplySegmentFile(path).ok());
  for (const auto& q : F().world.queries) {
    RankRequest request;
    request.text = q.text;
    ExpectSameRanking(direct.Rank(request).value(),
                      replayed.Rank(request).value(),
                      "segment replay, query " + std::to_string(q.id));
  }
  EXPECT_EQ(replay_writer.ApplySegmentFile(path + ".missing").code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST_F(IndexWriterTest, CompactFoldsTheDeltaAndPreservesRankings) {
  ExpertFinder finder = MakeOwning();
  IndexWriter writer = IndexWriter::Attach(&finder).value();
  // Empty-delta compaction is a no-op.
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_FALSE(writer.delta().active());

  UpdateBatch batch = SampleBatch();
  batch.deletions = {writer.delta().external_id(0)};
  ASSERT_TRUE(writer.Apply(batch).ok());
  std::vector<RankedExperts> before;
  for (const auto& q : F().world.queries) {
    before.push_back(RankQuery(finder, q.text));
  }
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_FALSE(writer.delta().active());
  EXPECT_TRUE(finder.serving_compiled());
  EXPECT_TRUE(finder.corpus().search_index().frozen());
  for (size_t i = 0; i < F().world.queries.size(); ++i) {
    ExpectSameRanking(
        before[i],
        RankQuery(finder, F().world.queries[i].text),
        "compaction, query " + std::to_string(i));
  }
  // The writer keeps working against the new base.
  UpdateBatch removal;
  removal.deletions = {9'000'001};
  EXPECT_TRUE(writer.Apply(removal).ok());
}

TEST_F(IndexWriterTest, SaveSnapshotRefusesAnActiveDelta) {
  const std::string path = ::testing::TempDir() + "/writer_active_delta.snap";
  ExpertFinder finder = MakeOwning();
  IndexWriter writer = IndexWriter::Attach(&finder).value();
  ASSERT_TRUE(writer.Apply(SampleBatch()).ok());
  EXPECT_EQ(finder.SaveSnapshot(1, 42, path).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_TRUE(finder.SaveSnapshot(1, 42, path).ok());
  std::remove(path.c_str());
}

TEST_F(IndexWriterTest, CompactAndPublishAdvancesTheEpoch) {
  ExpertFinder finder = MakeOwning();
  IndexWriter writer = IndexWriter::Attach(&finder).value();
  EXPECT_EQ(writer.CompactAndPublish(nullptr).status().code(),
            StatusCode::kInvalidArgument);

  SnapshotManager manager;
  ASSERT_TRUE(writer.Apply(SampleBatch()).ok());
  std::vector<RankedExperts> want;
  for (const auto& q : F().world.queries) {
    want.push_back(RankQuery(finder, q.text));
  }
  Result<std::shared_ptr<ServingSnapshot>> published =
      writer.CompactAndPublish(&manager);
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_EQ(published.value()->epoch(), 1u);
  EXPECT_EQ(manager.active_epoch(), 1u);
  EXPECT_EQ(manager.swap_count(), 1u);
  EXPECT_EQ(manager.Acquire().get(), published.value().get());
  // The published snapshot serves the mutated rankings on the compiled
  // path; the writer's own finder still serves them through the delta.
  for (size_t i = 0; i < F().world.queries.size(); ++i) {
    RankRequest request;
    request.text = F().world.queries[i].text;
    ExpectSameRanking(want[i],
                      published.value()->finder().Rank(request).value(),
                      "published epoch, query " + std::to_string(i));
    ExpectSameRanking(want[i], finder.Rank(request).value(),
                      "old epoch, query " + std::to_string(i));
  }
  EXPECT_TRUE(writer.delta().active());  // untouched by publication

  // A second publication chains off the new snapshot's finder.
  IndexWriter next =
      IndexWriter::Attach(&published.value()->mutable_finder()).value();
  UpdateBatch removal;
  removal.deletions = {9'000'001};
  ASSERT_TRUE(next.Apply(removal).ok());
  Result<std::shared_ptr<ServingSnapshot>> republished =
      next.CompactAndPublish(&manager);
  ASSERT_TRUE(republished.ok()) << republished.status();
  EXPECT_EQ(republished.value()->epoch(), 2u);
  EXPECT_EQ(manager.active_epoch(), 2u);
}

TEST_F(IndexWriterTest, MetricsExportTheDeltaAndCompactionSurface) {
  obs::MetricsRegistry reg;
  ExpertFinder finder = MakeOwning();
  IndexWriter writer =
      IndexWriter::Attach(&finder, RuntimeContext{nullptr, &reg}).value();
  UpdateBatch batch = SampleBatch();
  batch.deletions = {writer.delta().external_id(0)};
  ASSERT_TRUE(writer.Apply(batch).ok());
  EXPECT_EQ(reg.counter("index.delta.batches")->Value(), 1u);
  EXPECT_EQ(reg.counter("index.delta.upserts")->Value(), 1u);
  EXPECT_EQ(reg.counter("index.delta.deletions")->Value(), 1u);
  EXPECT_EQ(reg.gauge("index.delta.docs")->Value(), 1);
  EXPECT_EQ(reg.gauge("index.delta.tombstones")->Value(), 1);
  ASSERT_TRUE(writer.Compact().ok());
  EXPECT_EQ(reg.counter("index.compact.runs")->Value(), 1u);
  EXPECT_EQ(reg.gauge("index.delta.docs")->Value(), 0);
  EXPECT_EQ(reg.gauge("index.delta.tombstones")->Value(), 0);
  EXPECT_GT(reg.gauge("index.compact.docs")->Value(), 0);
}

}  // namespace
}  // namespace crowdex::core
