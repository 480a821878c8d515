#ifndef CROWDEX_TESTS_SUPPORT_ANALYSIS_CACHE_H_
#define CROWDEX_TESTS_SUPPORT_ANALYSIS_CACHE_H_

// One analysis of a test world per test binary. ctest runs every test case
// in a process of its own, and the Fig. 4 analysis dominates a world
// fixture's set-up (about 11 s at scale 0.02 in the TSan binary, 3 s in the
// ASan one, against well under a second for the rest). So the first process
// analyzes and saves the corpora next to the test binaries, and later
// processes of the same binary load them — the corpus cache stores the
// exact analysis output, dscore bits included, so every test sees the
// corpora it would have computed. The cache is keyed by the binary's size
// and modification time as well as the world and pipeline configuration:
// a rebuilt binary analyzes afresh.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "core/analyzed_world.h"
#include "io/corpus_cache.h"
#include "platform/resource_extractor.h"
#include "synth/world.h"

#ifndef CROWDEX_TEST_CACHE_DIR
#error "CROWDEX_TEST_CACHE_DIR must name the directory for cached analyses"
#endif

namespace crowdex::test_support {

/// `core::AnalyzeWorld(world, {.thread_count = thread_count})` for the
/// world that `config` generated, loaded from this binary's cache file when
/// one matches (any thread count yields the same corpora). Concurrent first
/// runs each analyze and publish by rename, so a reader never sees a
/// partial file.
inline core::AnalyzedWorld AnalyzeWorldCached(
    const synth::SyntheticWorld* world, const synth::WorldConfig& config,
    int thread_count = 1) {
  const core::AnalyzeOptions options{.thread_count = thread_count};
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return core::AnalyzeWorld(world, options);
  exe[len] = '\0';
  struct stat st {};
  if (::stat(exe, &st) != 0) {
    return core::AnalyzeWorld(world, options);
  }
  std::string name(exe);
  name = name.substr(name.find_last_of('/') + 1);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".world_%.4f.cdx", config.scale);
  const std::string path =
      std::string(CROWDEX_TEST_CACHE_DIR) + "/" + name + suffix;

  io::CacheFingerprint fingerprint;
  fingerprint.world_seed = config.seed;
  fingerprint.world_scale = config.scale;
  fingerprint.num_candidates = static_cast<uint32_t>(config.num_candidates);
  fingerprint.options_hash =
      io::HashExtractorOptions(platform::ExtractorOptions{}) ^
      synth::HashWorldConfig(config) ^
      static_cast<uint64_t>(st.st_size) * 0x9E3779B97F4A7C15ULL ^
      (static_cast<uint64_t>(st.st_mtim.tv_sec) * 1'000'000'000ULL +
       static_cast<uint64_t>(st.st_mtim.tv_nsec));
  fingerprint.kb_entities = world->kb.size();

  auto cached = io::LoadAnalyzedCorpora(fingerprint, path);
  if (cached.ok()) {
    core::AnalyzedWorld analyzed;
    analyzed.world = world;
    analyzed.extractor =
        std::make_unique<platform::ResourceExtractor>(&world->kb);
    analyzed.corpora = std::move(cached).value();
    return analyzed;
  }
  core::AnalyzedWorld analyzed = core::AnalyzeWorld(world, options);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  if (io::SaveAnalyzedCorpora(analyzed.corpora, fingerprint, tmp).ok()) {
    std::rename(tmp.c_str(), path.c_str());
  }
  std::remove(tmp.c_str());
  return analyzed;
}

}  // namespace crowdex::test_support

#endif  // CROWDEX_TESTS_SUPPORT_ANALYSIS_CACHE_H_
