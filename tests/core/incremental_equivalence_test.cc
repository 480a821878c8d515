// The tentpole equivalence suite (DESIGN.md §16): after ANY interleaving
// of adds, removes, replacements, and compactions, every serving arm —
// compiled fan-in, legacy fan-in, post-compaction frozen, and the sharded
// scatter-gather tier — must rank bit-identically to a from-scratch
// rebuild over the live documents, at every step, across alpha and window
// configurations. The kernels/<tier>/ ctest entries re-run this binary
// under CROWDEX_FORCE_KERNEL, extending the sweep across SIMD tiers; the
// sanitizer builds compile this TU into the ASan/UBSan and TSan binaries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzed_world.h"
#include "core/corpus_index.h"
#include "core/expert_finder.h"
#include "core/index_writer.h"
#include "core/shard_router.h"
#include "index/delta.h"
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

struct WindowVariant {
  int size;
  double fraction;
};

constexpr double kAlphas[] = {0.0, 0.6, 1.0};
constexpr WindowVariant kWindows[] = {
    {100, 0.0},  // the paper's default
    {1, 0.0},    // degenerate window
    {0, 0.3},    // fractional window
    {0, 0.0},    // all reachable resources
};

class IncrementalEquivalenceTest : public ::testing::Test {
 protected:
  struct Fixture {
    synth::SyntheticWorld world;
    AnalyzedWorld analyzed;
    /// Term/entity vocabulary harvested from the analyzed queries, so
    /// mutation docs actually influence the rankings under test.
    std::vector<std::string> vocab_terms;
    std::vector<entity::EntityId> vocab_entities;
    /// The deterministic mutation script (see MakeScript).
    std::vector<UpdateBatch> script;
  };

  static Fixture& F() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      synth::WorldConfig cfg;
      cfg.scale = 0.02;
      fx->world = synth::GenerateWorld(cfg);
      fx->analyzed = test_support::AnalyzeWorldCached(&fx->world, cfg);
      for (const auto& q : fx->world.queries) {
        index::AnalyzedQuery aq =
            fx->analyzed.extractor->AnalyzeQuery(q.text);
        for (auto& t : aq.terms) fx->vocab_terms.push_back(std::move(t));
        for (entity::EntityId e : aq.entities) {
          fx->vocab_entities.push_back(e);
        }
      }
      fx->script = MakeScript(*fx);
      return fx;
    }();
    return *f;
  }

  static ExpertFinder MakeOwning(
      const ExpertFinderConfig& cfg = ExpertFinderConfig{}) {
    return ExpertFinder::Create(&F().analyzed, cfg).value();
  }

  /// Builds the deterministic randomized mutation script: each batch mixes
  /// deletions of live ids, brand-new docs, and replacements (of base docs
  /// and of earlier incremental docs), tracked against a live-set model so
  /// every batch is valid by construction.
  static std::vector<UpdateBatch> MakeScript(const Fixture& fx) {
    // Base external ids, in doc order, via a throwaway finder's delta.
    ExpertFinder probe =
        ExpertFinder::Create(&fx.analyzed, ExpertFinderConfig{}).value();
    IndexWriter writer = IndexWriter::Attach(&probe).value();
    std::vector<uint64_t> live;
    for (size_t d = 0; d < writer.delta().base_docs(); ++d) {
      live.push_back(writer.delta().external_id(d));
    }
    const int num_candidates = static_cast<int>(probe.num_candidates());

    std::mt19937 rng(20260810);
    auto pick = [&rng](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    auto make_doc = [&](uint64_t ext) {
      UpsertDoc up;
      up.doc.external_id = ext;
      const size_t terms = 2 + pick(5);
      for (size_t i = 0; i < terms; ++i) {
        up.doc.terms.push_back(fx.vocab_terms[pick(fx.vocab_terms.size())]);
      }
      const size_t entities = pick(3);
      for (size_t i = 0; i < entities && !fx.vocab_entities.empty(); ++i) {
        up.doc.entities.push_back(
            {fx.vocab_entities[pick(fx.vocab_entities.size())],
             static_cast<uint32_t>(1 + pick(3)),
             // Include dscore 0 postings: pruned in frozen arenas, kept in
             // delta postings — both sides must agree they score nothing.
             pick(4) == 0 ? 0.0 : 0.25 * static_cast<double>(1 + pick(3))});
      }
      const size_t assocs = pick(4);
      for (size_t i = 0; i < assocs; ++i) {
        up.associations.push_back(
            {static_cast<int>(pick(static_cast<size_t>(num_candidates))),
             static_cast<int>(pick(3))});
      }
      return up;
    };

    std::vector<UpdateBatch> script;
    uint64_t next_ext = 9'000'000;
    for (int step = 0; step < 6; ++step) {
      UpdateBatch batch;
      const size_t deletions = pick(3);
      for (size_t i = 0; i < deletions && live.size() > 4; ++i) {
        const size_t at = pick(live.size());
        batch.deletions.push_back(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
      const size_t upserts = 1 + pick(3);
      for (size_t i = 0; i < upserts; ++i) {
        if (pick(3) == 0 && !live.empty()) {
          // Replacement of a live doc (base or earlier incremental).
          batch.upserts.push_back(make_doc(live[pick(live.size())]));
        } else {
          const uint64_t ext = ++next_ext;
          batch.upserts.push_back(make_doc(ext));
          live.push_back(ext);
        }
      }
      if (step == 3 && !batch.deletions.empty()) {
        // Delete-then-reinsert of the same id within one batch: deletions
        // apply first, so the upsert appends a fresh document.
        batch.upserts.push_back(make_doc(batch.deletions.front()));
        live.push_back(batch.deletions.front());
      }
      script.push_back(std::move(batch));
    }
    return script;
  }

  /// The from-scratch reference at step `upto`: a fresh finder, the first
  /// `upto + 1` batches replayed, then one compaction — which rebuilds the
  /// index over exactly the live documents via BulkAdd + Freeze.
  static ExpertFinder Rebuild(size_t upto) {
    ExpertFinder finder = MakeOwning();
    IndexWriter writer = IndexWriter::Attach(&finder).value();
    for (size_t i = 0; i <= upto; ++i) {
      CheckOk(writer.Apply(F().script[i]), "rebuild replay");
    }
    CheckOk(writer.Compact(), "rebuild compact");
    return finder;
  }

  static void ExpectFindersAgree(const ExpertFinder& want,
                                 const ExpertFinder& got,
                                 const std::string& context,
                                 bool full_sweep) {
    for (const auto& q : F().world.queries) {
      if (full_sweep) {
        for (double alpha : kAlphas) {
          for (const WindowVariant& w : kWindows) {
            RankRequest request;
            request.text = q.text;
            request.alpha = alpha;
            request.window_size = w.size;
            request.window_fraction = w.fraction;
            ExpectSameRanking(
                want.Rank(request).value(), got.Rank(request).value(),
                context + " query " + std::to_string(q.id) + " alpha=" +
                    std::to_string(alpha) + " window=" +
                    std::to_string(w.size) + "/" + std::to_string(w.fraction));
          }
        }
      } else {
        RankRequest request;
        request.text = q.text;
        ExpectSameRanking(want.Rank(request).value(),
                          got.Rank(request).value(),
                          context + " query " + std::to_string(q.id));
      }
    }
  }
};

TEST_F(IncrementalEquivalenceTest, FanInMatchesRebuildAtEveryStep) {
  ExpertFinder incremental = MakeOwning();
  IndexWriter writer = IndexWriter::Attach(&incremental).value();
  for (size_t step = 0; step < F().script.size(); ++step) {
    ASSERT_TRUE(writer.Apply(F().script[step]).ok()) << "step " << step;
    // Compact at interior steps so later batches land on a compacted base
    // — the interleaving the §16 safety argument is about.
    if (step == 1 || step == 3) {
      ASSERT_TRUE(writer.Compact().ok()) << "step " << step;
    }
    ExpertFinder reference = Rebuild(step);
    const bool last = step + 1 == F().script.size();
    ExpectFindersAgree(reference, incremental,
                       "step " + std::to_string(step), /*full_sweep=*/last);
  }
}

TEST_F(IncrementalEquivalenceTest, LegacyArmMatchesRebuild) {
  ExpertFinderConfig legacy_cfg;
  legacy_cfg.compiled_queries = false;
  ExpertFinder legacy = MakeOwning(legacy_cfg);
  IndexWriter writer = IndexWriter::Attach(&legacy).value();
  for (const UpdateBatch& batch : F().script) {
    ASSERT_TRUE(writer.Apply(batch).ok());
  }
  ExpertFinder reference = Rebuild(F().script.size() - 1);
  ExpectFindersAgree(reference, legacy, "legacy fan-in", /*full_sweep=*/true);
}

TEST_F(IncrementalEquivalenceTest, PrunedArmMatchesRebuild) {
  // Block-max pruning is planned against frozen block metadata, which a
  // live delta invalidates — the plan layer must fall back to exhaustive
  // fan-in and still match the rebuild bit for bit.
  ExpertFinderConfig pruned_cfg;
  pruned_cfg.blockmax_pruning = true;
  ExpertFinder pruned = MakeOwning(pruned_cfg);
  IndexWriter writer = IndexWriter::Attach(&pruned).value();
  for (const UpdateBatch& batch : F().script) {
    ASSERT_TRUE(writer.Apply(batch).ok());
  }
  ExpertFinder reference = Rebuild(F().script.size() - 1);
  for (const auto& q : F().world.queries) {
    RankRequest request;
    request.text = q.text;
    RankedExperts want = reference.Rank(request).value();
    RankedExperts got = pruned.Rank(request).value();
    ASSERT_EQ(want.ranking.size(), got.ranking.size()) << "query " << q.id;
    for (size_t i = 0; i < want.ranking.size(); ++i) {
      EXPECT_EQ(want.ranking[i].candidate, got.ranking[i].candidate);
      EXPECT_EQ(want.ranking[i].score, got.ranking[i].score);
    }
  }
}

TEST_F(IncrementalEquivalenceTest, ShardedTierMatchesRebuildAtEveryStep) {
  for (int shards : {1, 2, 3}) {
    ExpertFinder source = MakeOwning();
    Result<ShardRouter> router =
        ShardRouter::Partition(source, shards, ShardRouterConfig{});
    ASSERT_TRUE(router.ok()) << router.status();
    for (size_t step = 0; step < F().script.size(); ++step) {
      ASSERT_TRUE(router.value().ApplyUpdates(F().script[step]).ok())
          << "shards=" << shards << " step " << step;
      ExpertFinder reference = Rebuild(step);
      const bool last = step + 1 == F().script.size();
      for (const auto& q : F().world.queries) {
        if (last) {
          for (double alpha : kAlphas) {
            for (const WindowVariant& w : kWindows) {
              RankRequest request;
              request.text = q.text;
              request.alpha = alpha;
              request.window_size = w.size;
              request.window_fraction = w.fraction;
              Result<ShardedRankResult> got = router.value().Rank(request);
              ASSERT_TRUE(got.ok()) << got.status();
              EXPECT_TRUE(got.value().complete);
              ExpectSameRanking(
                  reference.Rank(request).value(), got.value().ranked,
                  "shards=" + std::to_string(shards) + " step " +
                      std::to_string(step) + " query " + std::to_string(q.id) +
                      " alpha=" + std::to_string(alpha) + " window=" +
                      std::to_string(w.size) + "/" +
                      std::to_string(w.fraction));
            }
          }
        } else {
          RankRequest request;
          request.text = q.text;
          Result<ShardedRankResult> got = router.value().Rank(request);
          ASSERT_TRUE(got.ok()) << got.status();
          ExpectSameRanking(reference.Rank(request).value(),
                            got.value().ranked,
                            "shards=" + std::to_string(shards) + " step " +
                                std::to_string(step) + " query " +
                                std::to_string(q.id));
        }
      }
    }
  }
}

TEST_F(IncrementalEquivalenceTest, ShardedValidationIsRouterWide) {
  ExpertFinder source = MakeOwning();
  Result<ShardRouter> router =
      ShardRouter::Partition(source, 2, ShardRouterConfig{});
  ASSERT_TRUE(router.ok()) << router.status();
  UpdateBatch missing;
  missing.deletions = {123'456'789};
  EXPECT_EQ(router.value().ApplyUpdates(missing).code(),
            StatusCode::kNotFound);
  // Duplicate a LIVE base id (harvested via a throwaway writer — base
  // external ids are deterministic across same-config finders): the first
  // occurrence passes the liveness probe, the second must be rejected.
  ExpertFinder probe = MakeOwning();
  IndexWriter probe_writer = IndexWriter::Attach(&probe).value();
  const uint64_t some_live = probe_writer.delta().external_id(0);
  UpdateBatch dup;
  dup.deletions = {some_live, some_live};
  EXPECT_EQ(router.value().ApplyUpdates(dup).code(),
            StatusCode::kInvalidArgument);
  // Rejected batches committed nothing: the tier still matches the
  // pristine source finder.
  for (const auto& q : F().world.queries) {
    RankRequest request;
    request.text = q.text;
    Result<ShardedRankResult> got = router.value().Rank(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameRanking(source.Rank(request).value(), got.value().ranked,
                      "after rejected batches, query " + std::to_string(q.id));
  }
}

TEST_F(IncrementalEquivalenceTest, ShardedEdgeCasesMatchRebuild) {
  // The delta's edge cases, routed through `ShardRouter::ApplyUpdates` so
  // every shard scores under the coordinator's installed global
  // statistics: a term and an entity that exist only in the delta, a
  // tombstoned base doc that matches the query, delta entity postings with
  // dscore 0, and a delta doc replaced twice.
  ExpertFinder probe = MakeOwning();
  IndexWriter probe_writer = IndexWriter::Attach(&probe).value();
  index::IndexableDocument victim;
  for (index::IndexableDocument& doc :
       probe_writer.delta().ReconstructLiveDocs()) {
    if (!doc.terms.empty()) {
      victim = std::move(doc);
      break;
    }
  }
  ASSERT_FALSE(victim.terms.empty());
  ASSERT_FALSE(F().vocab_entities.empty());
  const std::string fresh_term = "zzdeltaonly";
  const entity::EntityId fresh_entity = 3'999'999;
  const entity::EntityId known_entity = F().vocab_entities[0];

  auto upsert = [](uint64_t ext, std::vector<std::string> terms,
                   std::vector<index::DocEntity> entities, int candidate) {
    UpsertDoc up;
    up.doc.external_id = ext;
    up.doc.terms = std::move(terms);
    up.doc.entities = std::move(entities);
    up.associations.push_back({candidate, candidate % 3});
    return up;
  };
  std::vector<UpdateBatch> batches(3);
  batches[0].deletions = {victim.external_id};
  batches[0].upserts = {
      upsert(8'000'001, {fresh_term, victim.terms[0]},
             {{fresh_entity, 2, 0.5}, {known_entity, 1, 0.0}}, 0),
      upsert(8'000'002, {F().vocab_terms[0], fresh_term}, {}, 1)};
  batches[1].upserts = {upsert(8'000'002, {victim.terms[0]},
                               {{fresh_entity, 1, 0.0}}, 2)};
  batches[2].upserts = {
      upsert(8'000'002, {fresh_term, fresh_term}, {{known_entity, 3, 0.25}},
             3)};

  index::AnalyzedQuery query;
  query.terms = {victim.terms[0], fresh_term, F().vocab_terms[0]};
  query.entities = {fresh_entity, known_entity};

  ExpertFinder reference = MakeOwning();
  {
    IndexWriter writer = IndexWriter::Attach(&reference).value();
    for (const UpdateBatch& b : batches) ASSERT_TRUE(writer.Apply(b).ok());
    ASSERT_TRUE(writer.Compact().ok());
  }
  ExpertFinder single = MakeOwning();
  IndexWriter single_writer = IndexWriter::Attach(&single).value();
  for (const UpdateBatch& b : batches) {
    ASSERT_TRUE(single_writer.Apply(b).ok());
  }
  for (int shards : {1, 2, 3}) {
    ExpertFinder source = MakeOwning();
    Result<ShardRouter> router =
        ShardRouter::Partition(source, shards, ShardRouterConfig{});
    ASSERT_TRUE(router.ok()) << router.status();
    for (const UpdateBatch& b : batches) {
      ASSERT_TRUE(router.value().ApplyUpdates(b).ok());
    }
    for (double alpha : kAlphas) {
      for (const WindowVariant& w : kWindows) {
        RankRequest request;
        request.analyzed = &query;
        request.alpha = alpha;
        request.window_size = w.size;
        request.window_fraction = w.fraction;
        request.explain = true;
        const std::string context =
            "shards=" + std::to_string(shards) + " alpha=" +
            std::to_string(alpha) + " window=" + std::to_string(w.size) +
            "/" + std::to_string(w.fraction);
        const RankedExperts want = reference.Rank(request).value();
        ASSERT_GT(want.matched_resources, 0u) << context;
        Result<ShardedRankResult> got = router.value().Rank(request);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_TRUE(got.value().complete) << context;
        ExpectSameRanking(want, got.value().ranked, context);
        ASSERT_NE(got.value().ranked.explain, nullptr);
        EXPECT_TRUE(got.value().ranked.explain->delta_read) << context;
        ExpectSameRanking(want, single.Rank(request).value(),
                          "single-index " + context);
      }
    }
  }
}

TEST_F(IncrementalEquivalenceTest, DeltaReadsAreCountedAndExplained) {
  // Every rank over a live delta shows in `rank.delta.*` and explain; a
  // pruned plan the delta made exhaustive shows as `rank.prune.declined`;
  // after compaction reads are frozen again.
  obs::MetricsRegistry reg;
  ExpertFinderConfig cfg;
  cfg.blockmax_pruning = true;
  ExpertFinder finder =
      ExpertFinder::Create(&F().analyzed, cfg, nullptr,
                           RuntimeContext{nullptr, &reg})
          .value();
  IndexWriter writer = IndexWriter::Attach(&finder).value();
  index::AnalyzedQuery query;
  query.terms = F().vocab_terms;
  query.entities = F().vocab_entities;
  RankRequest request;
  request.analyzed = &query;
  request.explain = true;

  const RankedExperts frozen = finder.Rank(request).value();
  EXPECT_FALSE(frozen.explain->delta_read);
  EXPECT_FALSE(frozen.explain->prune_declined);
  EXPECT_EQ(reg.counter("rank.delta.reads")->Value(), 0u);

  ASSERT_TRUE(writer.Apply(F().script[0]).ok());
  const uint64_t runs_before = reg.counter("rank.kernel.runs")->Value();
  const RankedExperts live = finder.Rank(request).value();
  EXPECT_TRUE(live.explain->delta_read);
  EXPECT_TRUE(live.explain->prune_declined);
  EXPECT_NE(live.explain->plan_text.find("delta_fan_in"), std::string::npos)
      << live.explain->plan_text;
  EXPECT_EQ(reg.counter("rank.delta.reads")->Value(), 1u);
  EXPECT_GT(reg.counter("rank.delta.postings")->Value(), 0u);
  EXPECT_EQ(reg.counter("rank.prune.declined")->Value(), 1u);
  EXPECT_GT(reg.counter("rank.kernel.runs")->Value(), runs_before);

  ASSERT_TRUE(writer.Compact().ok());
  const RankedExperts compacted = finder.Rank(request).value();
  EXPECT_FALSE(compacted.explain->delta_read);
  EXPECT_EQ(compacted.explain->plan_text.find("delta_fan_in"),
            std::string::npos);
  EXPECT_EQ(reg.counter("rank.delta.reads")->Value(), 1u);
  EXPECT_EQ(reg.counter("rank.prune.declined")->Value(), 1u);
}

TEST_F(IncrementalEquivalenceTest, ConcurrentReadersSeeConsistentBatches) {
  // TSan target: readers rank continuously while the writer applies the
  // script and compacts. Every observed ranking must be internally valid
  // (scores sorted descending); bit-level equivalence is asserted by the
  // sequential tests above.
  ExpertFinder finder = MakeOwning();
  IndexWriter writer = IndexWriter::Attach(&finder).value();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&finder, &stop, t] {
      const auto& queries = F().world.queries;
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        RankRequest request;
        request.text = queries[i % queries.size()].text;
        Result<RankedExperts> ranked = finder.Rank(request);
        ASSERT_TRUE(ranked.ok());
        const auto& ranking = ranked.value().ranking;
        for (size_t r = 1; r < ranking.size(); ++r) {
          ASSERT_LE(ranking[r].score, ranking[r - 1].score);
        }
        ++i;
      }
    });
  }
  for (int round = 0; round < 3; ++round) {
    for (const UpdateBatch& batch : F().script) {
      Status status = writer.Apply(batch);
      // Later rounds re-delete ids the first round already removed — only
      // validation rejections are acceptable, never crashes or torn state.
      ASSERT_TRUE(status.ok() || status.code() == StatusCode::kNotFound ||
                  status.code() == StatusCode::kInvalidArgument)
          << status;
    }
    ASSERT_TRUE(writer.Compact().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace crowdex::core
