// Writer progress under continuous reads. Every rank holds the delta's
// shared lock from planning to aggregation; with a reader-preferring lock,
// two readers ranking back to back overlap so that the lock is never free,
// and a committing `IndexWriter::Apply` waits for as long as they keep
// reading. The delta lock prefers writers (`SharedMutex`), so here all 50
// batches must commit before a 10 s deadline while both readers keep
// going. The readers stop at the deadline whatever happens, so a starved
// writer fails the test instead of hanging it; the ctest timeout is the
// backstop. Compiled into the TSan binary too.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzed_world.h"
#include "core/expert_finder.h"
#include "core/index_writer.h"
#include "support/analysis_cache.h"
#include "synth/world.h"

namespace crowdex::core {
namespace {

constexpr int kBatches = 50;
constexpr int kReaders = 2;
constexpr auto kDeadline = std::chrono::seconds(10);

TEST(WriterStarvationTest, BatchesCommitWhileTwoReadersRankBackToBack) {
  synth::WorldConfig cfg;
  cfg.scale = 0.02;
  synth::SyntheticWorld world = synth::GenerateWorld(cfg);
  AnalyzedWorld analyzed = test_support::AnalyzeWorldCached(&world, cfg);
  ExpertFinder finder =
      ExpertFinder::Create(&analyzed, ExpertFinderConfig{}).value();
  IndexWriter writer = IndexWriter::Attach(&finder).value();

  // Readers rank one pre-analyzed query holding every query term and
  // entity of the world: a rank then spends nearly all of its time inside
  // the shared lock, scoring many posting runs. With a reader-preferring
  // lock the 50 commits below took 15-21 s on a 4-vCPU x86 host; with the
  // writer-preferring one, about 50 ms. One new document per batch, built
  // from query vocabulary so every commit changes what the readers score.
  index::AnalyzedQuery heavy;
  for (const auto& q : world.queries) {
    const index::AnalyzedQuery aq = analyzed.extractor->AnalyzeQuery(q.text);
    heavy.terms.insert(heavy.terms.end(), aq.terms.begin(), aq.terms.end());
    heavy.entities.insert(heavy.entities.end(), aq.entities.begin(),
                          aq.entities.end());
  }
  const std::vector<std::string>& vocab = heavy.terms;
  ASSERT_FALSE(vocab.empty());
  std::vector<UpdateBatch> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    UpsertDoc up;
    up.doc.external_id = 7'000'000 + static_cast<uint64_t>(b);
    for (int i = 0; i < 3; ++i) {
      up.doc.terms.push_back(vocab[(static_cast<size_t>(b) * 3 + i) %
                                   vocab.size()]);
    }
    up.associations.push_back({b % static_cast<int>(finder.num_candidates()),
                               1});
    batches[static_cast<size_t>(b)].upserts.push_back(std::move(up));
  }

  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  std::atomic<bool> stop{false};
  std::atomic<int> reading{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool counted = false;
      while (!stop.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < deadline) {
        RankRequest request;
        request.analyzed = &heavy;
        request.window_size = 0;  // every reachable resource: long reads
        request.window_fraction = 0.0;
        if (!finder.Rank(request).ok()) return;
        reads.fetch_add(1, std::memory_order_relaxed);
        if (!counted) {
          reading.fetch_add(1, std::memory_order_relaxed);
          counted = true;
        }
      }
    });
  }
  // Start committing only once both readers are ranking.
  while (reading.load(std::memory_order_relaxed) < kReaders &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  int committed_in_time = 0;
  for (const UpdateBatch& batch : batches) {
    ASSERT_TRUE(writer.Apply(batch).ok());
    if (std::chrono::steady_clock::now() < deadline) ++committed_in_time;
  }
  const uint64_t reads_while_writing = reads.load(std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(committed_in_time, kBatches)
      << "the writer was starved by back-to-back readers";
  EXPECT_EQ(writer.batches_applied(), static_cast<uint64_t>(kBatches));
  EXPECT_GT(reads_while_writing, 0u);
}

}  // namespace
}  // namespace crowdex::core
