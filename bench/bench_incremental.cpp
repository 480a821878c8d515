// Incremental-ingestion benchmark for the delta/tombstone/compaction
// subsystem (DESIGN.md §16). For each corpus scale it builds one owning
// finder, attaches an IndexWriter, and measures four things:
//
//   ingestion — a deterministic stream of update batches (new docs,
//               deletions, replacements) applied through
//               `IndexWriter::Apply`, reported as docs/sec and
//               batches/sec;
//   read latency — every world query ranked with the ingested delta live
//               and, over the same live documents, from the rebuilt
//               (frozen) reference; passes alternate and each side keeps
//               its fastest pass (same-process min-of-N);
//   reads during compaction — reader threads rank continuously while the
//               writer folds the delta with `Compact()`; only latencies
//               observed inside the compaction window land in the
//               p50/p95/p99, so the numbers answer "what does a reader
//               pay while a compaction is running?";
//   equivalence — after ingestion (delta active) AND after the final
//               compaction (frozen again), every query's ranking is
//               compared bit for bit against a from-scratch reference
//               (fresh finder, same batches replayed, one compaction).
//               Any divergence makes the binary exit non-zero, so the
//               ctest smoke doubles as an end-to-end correctness gate.
//
// Two gates besides equivalence. Reads with a live delta must go through
// the scoring kernels: each must bump `rank.delta.reads`, and together
// they must bump `rank.kernel.runs` (a deterministic counter check, every
// scale). At scale >= 0.1 the live-delta read may cost at most 2x the
// frozen read (`kMaxDeltaOverFrozen`); the 0.02 smoke scale is too small
// for a latency ratio to mean anything. Other timings are reported only.
// Everything lands in BENCH_incremental.json (schema
// crowdex-bench-incremental-v2, one entry per scale).
//
// Environment knobs: CROWDEX_BENCH_SCALE (single-scale mode; unset runs
// the default 0.1/0.5/1.0 sweep), CROWDEX_INC_BATCHES (batches in the
// ingestion stream, default 120), CROWDEX_BENCH_JSON (output path,
// default BENCH_incremental.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/thread_pool.h"
#include "core/analyzed_world.h"
#include "core/expert_finder.h"
#include "core/index_writer.h"
#include "core/runtime_context.h"
#include "index/kernels/kernels.h"
#include "obs/metrics.h"
#include "synth/world.h"

namespace {

using namespace crowdex;

/// Min-of-N passes per side of the read-latency comparison.
constexpr int kLatencyPasses = 7;
/// Live-delta read latency may be at most this multiple of the frozen one
/// (scale >= 0.1).
constexpr double kMaxDeltaOverFrozen = 2.0;
constexpr double kRatioGateMinScale = 0.1;

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

double Seconds(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

bool SameRanking(const core::RankedExperts& a, const core::RankedExperts& b) {
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

/// The deterministic mutation stream: every batch adds new documents built
/// from query vocabulary (so they actually move rankings), deletes a few
/// previously added ones, and occasionally replaces a live one. All ids
/// live in a private 9M+ range, so the stream never collides with the
/// synthesized base corpus and replaying it into a fresh writer is always
/// valid.
std::vector<core::UpdateBatch> MakeStream(const core::AnalyzedWorld& analyzed,
                                          const synth::SyntheticWorld& world,
                                          int num_batches,
                                          int num_candidates) {
  std::vector<std::string> vocab_terms;
  std::vector<entity::EntityId> vocab_entities;
  for (const auto& q : world.queries) {
    index::AnalyzedQuery aq = analyzed.extractor->AnalyzeQuery(q.text);
    for (auto& t : aq.terms) vocab_terms.push_back(std::move(t));
    for (entity::EntityId e : aq.entities) vocab_entities.push_back(e);
  }

  std::mt19937 rng(73);
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  auto make_doc = [&](uint64_t ext) {
    core::UpsertDoc up;
    up.doc.external_id = ext;
    const size_t terms = 2 + pick(6);
    for (size_t i = 0; i < terms; ++i) {
      up.doc.terms.push_back(vocab_terms[pick(vocab_terms.size())]);
    }
    const size_t entities = pick(3);
    for (size_t i = 0; i < entities && !vocab_entities.empty(); ++i) {
      up.doc.entities.push_back(
          {vocab_entities[pick(vocab_entities.size())],
           static_cast<uint32_t>(1 + pick(3)),
           0.25 * static_cast<double>(1 + pick(3))});
    }
    const size_t assocs = 1 + pick(3);
    for (size_t i = 0; i < assocs; ++i) {
      up.associations.push_back(
          {static_cast<int>(pick(static_cast<size_t>(num_candidates))),
           static_cast<int>(pick(3))});
    }
    return up;
  };

  std::vector<core::UpdateBatch> stream;
  stream.reserve(static_cast<size_t>(num_batches));
  std::vector<uint64_t> live;
  uint64_t next_ext = 9'000'000;
  for (int b = 0; b < num_batches; ++b) {
    core::UpdateBatch batch;
    const size_t deletions = pick(3);
    for (size_t i = 0; i < deletions && live.size() > 10; ++i) {
      const size_t at = pick(live.size());
      batch.deletions.push_back(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    const size_t upserts = 4 + pick(5);
    for (size_t i = 0; i < upserts; ++i) {
      if (pick(4) == 0 && !live.empty()) {
        batch.upserts.push_back(make_doc(live[pick(live.size())]));
      } else {
        const uint64_t ext = ++next_ext;
        batch.upserts.push_back(make_doc(ext));
        live.push_back(ext);
      }
    }
    stream.push_back(std::move(batch));
  }
  return stream;
}

/// Everything one scale contributes to the JSON.
struct ScaleResult {
  double scale = 0.0;
  size_t base_docs = 0;
  size_t batches = 0;
  size_t docs_ingested = 0;
  size_t docs_deleted = 0;
  double ingest_docs_per_sec = 0.0;
  double ingest_batches_per_sec = 0.0;
  double read_delta_ms = 0.0;
  double read_frozen_ms = 0.0;
  uint64_t delta_reads = 0;
  uint64_t delta_postings = 0;
  uint64_t kernel_runs = 0;
  double compact_seconds = 0.0;
  size_t compactions = 0;
  size_t reads_during_compaction = 0;
  double read_p50 = 0.0, read_p95 = 0.0, read_p99 = 0.0;
};

bool RunScale(double scale, int num_batches, ScaleResult* out) {
  std::printf("--- scale %.3f ---\n", scale);
  synth::WorldConfig cfg;
  cfg.scale = scale;
  synth::SyntheticWorld world = synth::GenerateWorld(cfg);
  core::AnalyzedWorld analyzed = core::AnalyzeWorld(&world);

  obs::MetricsRegistry metrics;
  core::ExpertFinder finder =
      core::ExpertFinder::Create(&analyzed, core::ExpertFinderConfig{},
                                 nullptr,
                                 core::RuntimeContext{nullptr, &metrics})
          .value();
  Result<core::IndexWriter> writer_r = core::IndexWriter::Attach(&finder);
  if (!writer_r.ok()) {
    std::fprintf(stderr, "FAIL: attach: %s\n",
                 writer_r.status().ToString().c_str());
    return false;
  }
  core::IndexWriter writer = std::move(writer_r).value();

  const std::vector<core::UpdateBatch> stream = MakeStream(
      analyzed, world, num_batches,
      static_cast<int>(finder.num_candidates()));
  size_t docs_ingested = 0;
  size_t docs_deleted = 0;
  for (const auto& b : stream) {
    docs_ingested += b.upserts.size();
    docs_deleted += b.deletions.size();
  }

  // Ingestion phase: the whole stream through Apply, timed.
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    Status status = writer.Apply(stream[i]);
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL: apply batch %zu: %s\n", i,
                   status.ToString().c_str());
      return false;
    }
  }
  const double ingest_s = Seconds(t0);

  // From-scratch reference: a fresh finder, the same stream replayed, one
  // compaction (which rebuilds over exactly the live documents).
  core::ExpertFinder reference =
      core::ExpertFinder::Create(&analyzed, core::ExpertFinderConfig{})
          .value();
  {
    core::IndexWriter ref_writer =
        core::IndexWriter::Attach(&reference).value();
    for (const auto& b : stream) {
      Status status = ref_writer.Apply(b);
      if (!status.ok()) {
        std::fprintf(stderr, "FAIL: reference apply: %s\n",
                     status.ToString().c_str());
        return false;
      }
    }
    Status status = ref_writer.Compact();
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL: reference compact: %s\n",
                   status.ToString().c_str());
      return false;
    }
  }

  // Equivalence gate #1: the live delta vs the rebuilt reference.
  for (const auto& q : world.queries) {
    core::RankRequest req;
    req.text = q.text;
    Result<core::RankedExperts> want = reference.Rank(req);
    Result<core::RankedExperts> got = finder.Rank(req);
    if (!want.ok() || !got.ok() ||
        !SameRanking(want.value(), got.value())) {
      std::fprintf(stderr,
                   "FAIL: live-delta ranking diverged from rebuild at query "
                   "%d\n",
                   q.id);
      return false;
    }
  }

  // Read latency, live delta vs frozen, over the same live documents: the
  // incremental finder serves them through its delta, the reference from
  // its compacted index. Alternating passes, fastest pass per side.
  auto pass_ms = [&world](const core::ExpertFinder& f) {
    const auto p0 = std::chrono::steady_clock::now();
    for (const auto& q : world.queries) {
      core::RankRequest req;
      req.text = q.text;
      if (!f.Rank(req).ok()) return -1.0;
    }
    return Seconds(p0) * 1e3 / static_cast<double>(world.queries.size());
  };
  obs::Counter* const delta_reads = metrics.counter("rank.delta.reads");
  obs::Counter* const delta_postings = metrics.counter("rank.delta.postings");
  obs::Counter* const kernel_runs = metrics.counter("rank.kernel.runs");
  const uint64_t reads0 = delta_reads->Value();
  const uint64_t postings0 = delta_postings->Value();
  const uint64_t runs0 = kernel_runs->Value();
  double delta_ms = std::numeric_limits<double>::infinity();
  double frozen_ms = std::numeric_limits<double>::infinity();
  for (int p = 0; p < kLatencyPasses; ++p) {
    const double d = pass_ms(finder);
    const double f = pass_ms(reference);
    if (d < 0.0 || f < 0.0) {
      std::fprintf(stderr, "FAIL: a latency-pass read errored\n");
      return false;
    }
    delta_ms = std::min(delta_ms, d);
    frozen_ms = std::min(frozen_ms, f);
  }
  out->delta_reads = delta_reads->Value() - reads0;
  out->delta_postings = delta_postings->Value() - postings0;
  out->kernel_runs = kernel_runs->Value() - runs0;
  out->read_delta_ms = delta_ms;
  out->read_frozen_ms = frozen_ms;
  const uint64_t want_reads =
      static_cast<uint64_t>(kLatencyPasses) * world.queries.size();
  if (out->delta_reads != want_reads || out->kernel_runs == 0) {
    std::fprintf(stderr,
                 "FAIL: %llu of %llu reads with a live delta counted as "
                 "rank.delta.reads, %llu rank.kernel.runs — the delta read "
                 "path is not the kernel path\n",
                 static_cast<unsigned long long>(out->delta_reads),
                 static_cast<unsigned long long>(want_reads),
                 static_cast<unsigned long long>(out->kernel_runs));
    return false;
  }
  const double ratio = delta_ms / frozen_ms;
  std::printf("read:      delta %.4fms  frozen %.4fms  ratio %.2f  (min of "
              "%d passes, %zu queries)\n",
              delta_ms, frozen_ms, ratio, kLatencyPasses,
              world.queries.size());
  if (scale >= kRatioGateMinScale && ratio > kMaxDeltaOverFrozen) {
    std::fprintf(stderr,
                 "FAIL: live-delta read %.4fms is %.2fx the frozen read "
                 "%.4fms (bound %.1fx at scale >= %.2f)\n",
                 delta_ms, ratio, frozen_ms, kMaxDeltaOverFrozen,
                 kRatioGateMinScale);
    return false;
  }

  // Compaction phase: reader threads rank continuously; latencies recorded
  // while the compaction flag is up are the "reads during compaction"
  // sample. Several apply+compact cycles stretch the window so the
  // percentiles rest on more than a handful of calls.
  constexpr int kReaders = 2;
  constexpr int kCycles = 3;
  std::atomic<bool> compacting{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> read_failed{false};
  std::vector<std::vector<double>> reader_lat(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        core::RankRequest req;
        req.text = world.queries[i % world.queries.size()].text;
        const auto r0 = std::chrono::steady_clock::now();
        Result<core::RankedExperts> r = finder.Rank(req);
        const double ms = Seconds(r0) * 1e3;
        if (!r.ok()) {
          read_failed.store(true, std::memory_order_relaxed);
          return;
        }
        if (compacting.load(std::memory_order_relaxed)) {
          reader_lat[static_cast<size_t>(t)].push_back(ms);
        }
        ++i;
      }
    });
  }

  double compact_s = 0.0;
  size_t compactions = 0;
  // Re-apply a slice of the stream between compactions so each cycle has a
  // real delta to fold. Deletions are skipped on re-apply: their targets
  // were already removed in the ingestion phase, and the cycle only needs
  // upsert volume. Replayed upserts are upserts-of-live-ids — valid
  // replacements by construction.
  const size_t slice = std::max<size_t>(1, stream.size() / kCycles / 4);
  size_t cursor = 0;
  for (int c = 0; c < kCycles; ++c) {
    for (size_t i = 0; i < slice; ++i) {
      core::UpdateBatch replay = stream[cursor++ % stream.size()];
      replay.deletions.clear();
      Status status = writer.Apply(replay);
      if (!status.ok()) {
        std::fprintf(stderr, "FAIL: cycle apply: %s\n",
                     status.ToString().c_str());
        stop.store(true, std::memory_order_relaxed);
        for (auto& th : readers) th.join();
        return false;
      }
    }
    compacting.store(true, std::memory_order_relaxed);
    const auto c0 = std::chrono::steady_clock::now();
    Status status = writer.Compact();
    compact_s += Seconds(c0);
    compacting.store(false, std::memory_order_relaxed);
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL: compact: %s\n", status.ToString().c_str());
      stop.store(true, std::memory_order_relaxed);
      for (auto& th : readers) th.join();
      return false;
    }
    ++compactions;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  if (read_failed.load()) {
    std::fprintf(stderr, "FAIL: a concurrent read errored\n");
    return false;
  }

  // Equivalence gate #2: the compacted finder vs a reference that replayed
  // everything the incremental side saw (stream + compaction-cycle
  // replays).
  core::ExpertFinder final_reference =
      core::ExpertFinder::Create(&analyzed, core::ExpertFinderConfig{})
          .value();
  {
    core::IndexWriter ref_writer =
        core::IndexWriter::Attach(&final_reference).value();
    for (const auto& b : stream) {
      (void)ref_writer.Apply(b);  // pre-validated: same stream as above
    }
    size_t replay_cursor = 0;
    for (int c = 0; c < kCycles; ++c) {
      for (size_t i = 0; i < slice; ++i) {
        core::UpdateBatch replay = stream[replay_cursor++ % stream.size()];
        replay.deletions.clear();
        Status status = ref_writer.Apply(replay);
        if (!status.ok()) {
          std::fprintf(stderr, "FAIL: final reference apply: %s\n",
                       status.ToString().c_str());
          return false;
        }
      }
    }
    Status status = ref_writer.Compact();
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL: final reference compact: %s\n",
                   status.ToString().c_str());
      return false;
    }
  }
  for (const auto& q : world.queries) {
    core::RankRequest req;
    req.text = q.text;
    Result<core::RankedExperts> want = final_reference.Rank(req);
    Result<core::RankedExperts> got = finder.Rank(req);
    if (!want.ok() || !got.ok() ||
        !SameRanking(want.value(), got.value())) {
      std::fprintf(stderr,
                   "FAIL: compacted index diverged from rebuild at query "
                   "%d\n",
                   q.id);
      return false;
    }
  }

  std::vector<double> lat;
  for (const auto& v : reader_lat) lat.insert(lat.end(), v.begin(), v.end());
  std::sort(lat.begin(), lat.end());

  out->scale = scale;
  out->base_docs = finder.corpus().search_index().size();
  out->batches = stream.size();
  out->docs_ingested = docs_ingested;
  out->docs_deleted = docs_deleted;
  out->ingest_docs_per_sec =
      ingest_s > 0 ? static_cast<double>(docs_ingested) / ingest_s : 0.0;
  out->ingest_batches_per_sec =
      ingest_s > 0 ? static_cast<double>(stream.size()) / ingest_s : 0.0;
  out->compact_seconds = compact_s;
  out->compactions = compactions;
  out->reads_during_compaction = lat.size();
  out->read_p50 = Percentile(lat, 0.50);
  out->read_p95 = Percentile(lat, 0.95);
  out->read_p99 = Percentile(lat, 0.99);

  std::printf("ingest:    %8.1f docs/s  (%zu docs, %zu deletions, %zu "
              "batches, %.3fs)\n",
              out->ingest_docs_per_sec, docs_ingested, docs_deleted,
              stream.size(), ingest_s);
  std::printf("compact:   %zu runs in %.3fs\n", compactions, compact_s);
  std::printf("reads during compaction: %zu calls  p50 %.4fms  p95 %.4fms  "
              "p99 %.4fms\n",
              lat.size(), out->read_p50, out->read_p95, out->read_p99);
  std::printf("equivalence: live delta and compacted index both "
              "bit-identical to rebuild\n");
  return true;
}

void WriteScaleJson(std::FILE* out, const ScaleResult& r, bool last) {
  std::fprintf(out, "    {\n");
  std::fprintf(out, "      \"scale\": %.6f,\n", r.scale);
  std::fprintf(out, "      \"indexed_docs\": %zu,\n", r.base_docs);
  std::fprintf(out, "      \"batches\": %zu,\n", r.batches);
  std::fprintf(out, "      \"docs_ingested\": %zu,\n", r.docs_ingested);
  std::fprintf(out, "      \"docs_deleted\": %zu,\n", r.docs_deleted);
  std::fprintf(out, "      \"ingest_docs_per_sec\": %.2f,\n",
               r.ingest_docs_per_sec);
  std::fprintf(out, "      \"ingest_batches_per_sec\": %.2f,\n",
               r.ingest_batches_per_sec);
  std::fprintf(out, "      \"read_latency_ms\": {\n");
  std::fprintf(out, "        \"delta\": %.4f,\n", r.read_delta_ms);
  std::fprintf(out, "        \"frozen\": %.4f,\n", r.read_frozen_ms);
  std::fprintf(out, "        \"delta_over_frozen\": %.3f,\n",
               r.read_frozen_ms > 0 ? r.read_delta_ms / r.read_frozen_ms
                                    : 0.0);
  std::fprintf(out, "        \"min_of_passes\": %d\n", kLatencyPasses);
  std::fprintf(out, "      },\n");
  std::fprintf(out, "      \"delta_reads\": %llu,\n",
               static_cast<unsigned long long>(r.delta_reads));
  std::fprintf(out, "      \"delta_postings\": %llu,\n",
               static_cast<unsigned long long>(r.delta_postings));
  std::fprintf(out, "      \"delta_kernel_runs\": %llu,\n",
               static_cast<unsigned long long>(r.kernel_runs));
  std::fprintf(out, "      \"compactions\": %zu,\n", r.compactions);
  std::fprintf(out, "      \"compact_seconds\": %.4f,\n", r.compact_seconds);
  std::fprintf(out, "      \"reads_during_compaction\": %zu,\n",
               r.reads_during_compaction);
  std::fprintf(out, "      \"read_latency_ms_during_compaction\": {\n");
  std::fprintf(out, "        \"p50\": %.4f,\n", r.read_p50);
  std::fprintf(out, "        \"p95\": %.4f,\n", r.read_p95);
  std::fprintf(out, "        \"p99\": %.4f\n", r.read_p99);
  std::fprintf(out, "      },\n");
  std::fprintf(out, "      \"divergence\": false\n");
  std::fprintf(out, "    }%s\n", last ? "" : ",");
}

bool Run(const std::string& json_path) {
  const int num_batches = std::max(10, EnvInt("CROWDEX_INC_BATCHES", 120));

  std::vector<double> scales;
  const char* single = std::getenv("CROWDEX_BENCH_SCALE");
  if (single != nullptr && *single != '\0') {
    scales.push_back(std::atof(single));
  } else {
    scales = {0.1, 0.5, 1.0};
  }

  std::printf("crowdex incremental: scales=%zu batches=%d\n", scales.size(),
              num_batches);

  std::vector<ScaleResult> results;
  results.reserve(scales.size());
  for (double scale : scales) {
    ScaleResult r;
    if (!RunScale(scale, num_batches, &r)) return false;
    results.push_back(r);
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"crowdex-bench-incremental-v2\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %d,\n",
               common::ThreadPool::HardwareThreads());
  std::fprintf(out, "  \"cpu_features\": \"%s\",\n",
               common::CpuFeatureString().c_str());
  std::fprintf(out, "  \"kernel\": \"%s\",\n",
               index::kernels::Active().name);
  std::fprintf(out, "  \"deterministic_equivalence\": true,\n");
  std::fprintf(out, "  \"scales\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    WriteScaleJson(out, results[i], i + 1 == results.size());
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return true;
}

}  // namespace

int main() {
  const char* json_env = std::getenv("CROWDEX_BENCH_JSON");
  const std::string json_path = (json_env != nullptr && *json_env != '\0')
                                    ? json_env
                                    : "BENCH_incremental.json";
  return Run(json_path) ? 0 : 1;
}
