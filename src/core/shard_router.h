#ifndef CROWDEX_CORE_SHARD_ROUTER_H_
#define CROWDEX_CORE_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/index_writer.h"
#include "core/serving.h"
#include "index/delta.h"
#include "plan/passes.h"

namespace crowdex::core {

/// Seeded fault model of one shard backend, mirroring the knobs (and the
/// "zero probability consumes no randomness" contract) of
/// `platform::FaultConfig`. All probabilities are per attempt; all times
/// are simulated milliseconds on the shard's private `SimClock`.
struct ShardFaultConfig {
  /// Probability an attempt fails with `kUnavailable` (retryable).
  double transient_error_prob = 0.0;
  /// Simulated service latency of every attempt.
  uint64_t base_latency_ms = 1;
  /// Probability an attempt is hit by a latency spike ...
  double latency_spike_prob = 0.0;
  /// ... adding this much on top of the base latency.
  uint64_t spike_latency_ms = 200;
  /// Probability an attempt begins a hard outage: this attempt and every
  /// attempt until the outage ends fail with `kUnavailable`.
  double outage_prob = 0.0;
  /// Length of a hard outage.
  uint64_t outage_duration_ms = 5'000;
};

/// Router-wide configuration: quorum semantics plus the per-shard fault
/// boundary (deadline, retry policy, circuit breaker) and fault injection.
struct ShardRouterConfig {
  /// Minimum number of shards that must answer for a rank to succeed;
  /// below it the router returns a typed `kUnavailable` error, never an
  /// empty success. Clamped to [1, shards].
  int quorum_shards = 1;
  /// Per-shard-call deadline in simulated milliseconds (0 = none): an
  /// attempt whose simulated latency crosses it fails the shard call with
  /// `kDeadlineExceeded` (non-retryable — the budget is already spent).
  uint64_t shard_deadline_ms = 1'000;
  /// Retry policy of one shard call. `retry.deadline_ms` is overridden by
  /// `shard_deadline_ms`, keeping one deadline knob.
  RetryPolicy retry;
  /// Per-shard circuit breaker (each shard gets its own instance).
  CircuitBreakerConfig breaker;
  /// Fault model applied to every shard ...
  ShardFaultConfig faults;
  /// ... unless overridden here: shard `s` uses `shard_faults[s]` when
  /// `s < shard_faults.size()`.
  std::vector<ShardFaultConfig> shard_faults;
  /// Seed of the per-shard fault/jitter streams (shard `s` forks stream
  /// `fault_seed + s`), making every fault sequence reproducible.
  uint64_t fault_seed = 42;
};

/// Per-shard health/fault accounting, exported through `shard.*` metrics
/// and readable directly for tests.
struct ShardStats {
  uint64_t calls = 0;
  uint64_t failures = 0;
  uint64_t retries = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t breaker_shed = 0;
  BreakerSnapshot breaker;
};

/// Outcome of one sharded rank. `ranked` is bit-identical to unsharded
/// serving whenever `complete` is true; a degraded response (some shards
/// failed but quorum held) says exactly what is missing instead of
/// passing a partial ranking off as a full one.
struct ShardedRankResult {
  RankedExperts ranked;
  /// Shards the request fanned out to.
  int shards_total = 0;
  /// Shards that answered within the fault boundary.
  int shards_ok = 0;
  /// Fraction of the corpus' docs held by the shards that answered
  /// (1.0 exactly when `complete`).
  double coverage = 1.0;
  /// Ids of shards that failed this request, ascending.
  std::vector<int> degraded_shards;
  /// Why each entry of `degraded_shards` failed (parallel vector).
  std::vector<Status> degraded_statuses;
  /// True iff every shard contributed — the merged ranking is exact.
  bool complete = true;
};

/// Scatter-gather serving tier over doc-partitioned shards: each shard is
/// a `ServingSnapshot` behind its own `SnapshotManager` (independently
/// hot-swappable). `Rank` lowers the request into a query plan, runs the
/// sharded pass pipeline (which rewrites `Window → Score` into
/// `Window → Merge → ShardFanout → Score`, stamping the per-shard prefix
/// bound on the fanout node), and then *executes* that plan: the fanout's
/// Score subtree is fanned across all shards — each call wrapped in a
/// fault boundary (deadline + decorrelated-jitter retry + circuit breaker
/// + seeded fault injection on a private `SimClock`) — and the Merge/
/// Window/Aggregate stages run at the gather. Equal scores merge in
/// global `DocId` order at any shard count, so the merged ranking is
/// bit-identical to the unsharded index when all shards answer.
/// `RankRequest::explain` returns the sharded plan tree and pass trace on
/// the result, like unsharded serving.
///
/// When shards fail, the router degrades instead of erroring: as long as
/// `quorum_shards` answered, it returns the merged ranking over the
/// surviving shards with `coverage` / `degraded_shards` / `complete`
/// describing the gap. Below quorum it returns `kUnavailable`.
///
/// A non-null `ctx.metrics` at `Partition`/`Load` time exports the
/// `shard.*` family: `shard.count`, router counters
/// (`shard.rank.requests` / `.degraded` / `.below_quorum`), and per-shard
/// call/failure/retry/deadline/shed counters, a simulated-latency
/// histogram, and breaker transition counters. `Rank` is thread-safe.
class ShardRouter {
 public:
  /// Splits `finder` into `num_shards` doc-partitioned shard finders
  /// (global collection statistics retained — see
  /// `ExpertFinder::PartitionShards`) and stands up the serving tier:
  /// one `ServingSnapshot` + `SnapshotManager` per shard, fault state
  /// seeded from `config.fault_seed`. `finder` must be on the frozen
  /// compiled serving path (`kFailedPrecondition` otherwise). The shard
  /// finders borrow `finder`'s extractor, so it must outlive the router;
  /// `ctx.pool` (optional, borrowed) parallelizes `Rank` fan-out and
  /// `ctx.metrics` (optional, borrowed) enables `shard.*` export.
  static Result<ShardRouter> Partition(const ExpertFinder& finder,
                                       int num_shards,
                                       const ShardRouterConfig& config,
                                       const RuntimeContext& ctx = {});

  ShardRouter(ShardRouter&&) = default;
  ShardRouter& operator=(ShardRouter&&) = default;

  /// Fans `request` across all shards and merges. See the class comment
  /// for quorum/degradation semantics; per-call overrides are validated
  /// exactly as unsharded `ExpertFinder::Rank` validates them
  /// (`kInvalidArgument`). `kUnavailable` when fewer than `quorum_shards`
  /// shards answer (including "every shard's manager is out of service").
  Result<ShardedRankResult> Rank(const RankRequest& request) const;

  /// Persists the shard set: one serving snapshot per shard
  /// (`shard_<s>.snap`) plus a manifest (`shards.manifest`) recording the
  /// doc partition, all under directory `dir` (created if absent).
  /// `epoch`/`fingerprint` as in `ExpertFinder::SaveSnapshot`.
  Status SaveShardSet(uint64_t epoch, uint64_t fingerprint,
                      const std::string& dir) const;

  /// Cold-starts a router from a directory written by `SaveShardSet`,
  /// restoring every shard snapshot and the doc partition. `extractor`
  /// (non-null, outliving the router) analyzes query text; fingerprint
  /// mismatches fail with `kFailedPrecondition`, corrupt files with
  /// `kDataLoss`/`kInvalidArgument` — never a partial router.
  static Result<ShardRouter> LoadShardSet(
      const std::string& dir, uint64_t expected_fingerprint,
      const platform::ResourceExtractor* extractor,
      const ShardRouterConfig& config, const RuntimeContext& ctx = {});

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Shard `s`'s snapshot manager, for hot swaps (`Swap` a re-partitioned
  /// snapshot in, or null to take the shard out of service). Swapped
  /// snapshots must preserve the doc partition the router was built with.
  SnapshotManager& shard_manager(int s) { return *shards_[s]->manager; }
  const SnapshotManager& shard_manager(int s) const {
    return *shards_[s]->manager;
  }

  /// Applies one typed mutation batch across the shard tier — the sharded
  /// arm of the `IndexWriter` mutation API (DESIGN.md §16). Deletions are
  /// routed to the shard whose live set holds the external id; every
  /// upsert appends to the LAST shard (with a synthesized deletion on the
  /// shard that previously held the id), so global doc ids stay ascending
  /// in from-scratch-rebuild order and the merged (score desc, global doc
  /// asc) tie-break is preserved. After the per-shard commits the router
  /// acts as the cross-shard statistics coordinator: it merges every
  /// shard's rf / live-doc drift into absolute `GlobalLiveStats` (term
  /// base rf summed over the per-shard posting segments) and installs the
  /// global view into EVERY shard, so live-delta scoring on each shard uses
  /// collection-wide statistics and `Rank` stays bit-identical to an
  /// unsharded from-scratch rebuild over the live documents.
  ///
  /// The first call attaches an `IndexWriter` to every shard finder (under
  /// each shard's call mutex, so the serving-state re-resolution cannot
  /// race that shard's in-flight rank calls) and fails with
  /// `kFailedPrecondition` if any shard serves a snapshot the router did
  /// not install (a caller-swapped shard is not the router's to mutate).
  /// Validation (`kNotFound` / `kInvalidArgument`, same contract as
  /// `IndexWriter::Apply`) happens router-wide before anything commits.
  ///
  /// Concurrency: `ApplyUpdates` calls serialize with each other; each
  /// shard's commit is atomic with respect to that shard's rank calls, and
  /// the refreshed global statistics publish at the end of the call. A
  /// `Rank` issued concurrently with `ApplyUpdates` may therefore observe
  /// some shards pre-batch and others post-batch (the usual distributed
  /// read skew); ranks issued after `ApplyUpdates` returns see the full
  /// batch everywhere. The partition accounting (`doc_count`, coverage
  /// denominators, `SaveShardSet` manifests) stays partition-time
  /// authoritative until a compaction re-partitions the tier.
  Status ApplyUpdates(const UpdateBatch& batch);

  /// First global doc id served by shard `s`.
  index::DocId shard_doc_base(int s) const { return shards_[s]->doc_base; }

  /// Coherent copy of shard `s`'s fault/health accounting.
  ShardStats shard_stats(int s) const;

  const ShardRouterConfig& config() const { return config_; }

 private:
  /// Everything the router owns per shard. The fault state (clock, rng,
  /// breaker, outage) is guarded by `mu` so concurrent `Rank` calls see a
  /// consistent per-shard fault sequence; `manager` has its own locking.
  struct Shard {
    std::unique_ptr<SnapshotManager> manager;
    /// The snapshot the router itself installed, retained non-const so
    /// `ApplyUpdates` can attach an `IndexWriter` to its finder. Null (or
    /// stale, when a caller swapped its own snapshot in) disables the
    /// mutation path for this shard.
    std::shared_ptr<ServingSnapshot> owned;
    /// This shard's mutation writer, attached on the first `ApplyUpdates`.
    std::unique_ptr<IndexWriter> writer;
    index::DocId doc_base = 0;
    /// Docs this shard is responsible for under the partition (the
    /// coverage denominator contribution; authoritative across swaps).
    size_t doc_count = 0;

    mutable std::mutex mu;
    SimClock clock;
    Rng rng{0};
    CircuitBreaker breaker;
    /// End of the current injected hard outage (0 = none).
    uint64_t outage_until_ms = 0;
    ShardStats stats;
    /// Breaker transitions already published to metrics (delta tracking).
    BreakerTransitions published_transitions;

    /// Metric handles (null when observability is off).
    obs::Counter* m_calls = nullptr;
    obs::Counter* m_failures = nullptr;
    obs::Counter* m_retries = nullptr;
    obs::Counter* m_deadline = nullptr;
    obs::Counter* m_shed = nullptr;
    obs::Counter* m_breaker_closed_to_open = nullptr;
    obs::Counter* m_breaker_open_to_half_open = nullptr;
    obs::Counter* m_breaker_half_open_to_closed = nullptr;
    obs::Counter* m_breaker_half_open_to_open = nullptr;
    obs::Histogram* m_latency_ms = nullptr;
  };

  ShardRouter(const ShardRouterConfig& config, const RuntimeContext& ctx);

  /// Finishes construction once `shards_` has its managers/doc ranges:
  /// seeds fault streams and resolves metric handles.
  void InitShards();

  const ShardFaultConfig& FaultsFor(int s) const {
    return static_cast<size_t>(s) < config_.shard_faults.size()
               ? config_.shard_faults[s]
               : config_.faults;
  }

  /// Runs `work` for shard `s` inside the fault boundary (deadline,
  /// retry, breaker, fault injection), updating the shard's stats and
  /// metrics. `work` is only invoked on attempts that pass injection.
  template <typename Fn>
  Status CallShard(int s, Fn&& work) const;

  /// Index of the shard whose live set holds `external_id`, or -1 when no
  /// shard does. Requires attached writers; caller holds `apply_mu_`.
  int OwningShard(uint64_t external_id) const;

  /// First-call setup of the mutation path: attaches a writer to every
  /// shard and sums the per-shard posting-segment lengths into the global
  /// base term rf table. Caller holds `apply_mu_`.
  Status AttachShardWriters();

  ShardRouterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The sharded pass pipeline (fold, prune, shard-fanout insertion,
  /// pushdown, cache-key canonicalization), built in `InitShards` once the
  /// shard count is known.
  plan::PassManager pass_manager_;
  const common::ThreadPool* pool_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Serializes `ApplyUpdates` calls (boxed so the router stays movable).
  std::unique_ptr<std::mutex> apply_mu_ = std::make_unique<std::mutex>();
  /// True once every shard has a writer attached and `term_base_rf_` is
  /// built (the first `ApplyUpdates` call's setup).
  bool writers_ready_ = false;
  /// Global base term rf: the sum of per-shard posting-segment lengths
  /// (each base posting lives in exactly one shard). Shared into every
  /// published `GlobalLiveStats` as the untouched-term fallback.
  std::shared_ptr<const index::TermRfMap> term_base_rf_;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;
  obs::Counter* m_below_quorum_ = nullptr;
};

}  // namespace crowdex::core

#endif  // CROWDEX_CORE_SHARD_ROUTER_H_
