#ifndef CROWDEX_CORE_INDEX_WRITER_H_
#define CROWDEX_CORE_INDEX_WRITER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/expert_finder.h"
#include "core/runtime_context.h"
#include "core/serving.h"
#include "index/delta.h"

namespace crowdex::core {

/// One document mutation: the analyzed document plus the association lists
/// that make it reachable (which candidates reach the resource, at what
/// social-graph distance). An empty association list indexes the document
/// but keeps it ineligible — the same state an unreachable resource has in
/// a from-scratch build.
struct UpsertDoc {
  index::IndexableDocument doc;
  std::vector<ExpertFinder::Association> associations;
};

/// One typed mutation batch for `IndexWriter::Apply`. Deletions apply
/// first, then upserts, both in vector order — the order a from-scratch
/// rebuild models. An upsert whose external id is already live (in the
/// base or the delta) replaces the document: tombstone old, append new.
struct UpdateBatch {
  std::vector<UpsertDoc> upserts;
  /// External ids of documents to retire. Every id must be live when the
  /// batch starts (in-batch upserts cannot satisfy a deletion).
  std::vector<uint64_t> deletions;
};

/// The single mutation API over a frozen, serving `ExpertFinder`
/// (DESIGN.md §16). The frozen base index is never touched: committed
/// batches land in an append-only delta layer (`index::DeltaState`) whose
/// posting runs queries score after each group's base run, through the
/// same SIMD kernels, with retired documents zeroed out of the finder's
/// reachability bytes; `Compact` folds base + deltas into a freshly frozen
/// index — after which block-max pruning and the plan cache apply again.
/// Rankings after any add/remove/compact sequence are bit-identical to a
/// from-scratch rebuild over the live documents, at every step.
///
/// Lock audit (the delta's lock is writer-preferring, so a thread must
/// never take it shared twice): every serving entry point — `Rank`,
/// `Explain`, `ReachableResources`, `ExecuteFragmentPlan`,
/// `SaveSnapshot` — takes one `DeltaReadGuard` and calls nothing that
/// takes another; the writer takes it shared only while it holds no other
/// delta lock; the shard router takes each shard's guard on its own.
///
/// Thread model: reads (`Rank` and friends) stay fully concurrent — they
/// take the delta's shared lock per call. Writer operations (`Apply`,
/// `Compact`, `CompactAndPublish`) serialize on the writer's own mutex and
/// take the delta's unique lock only for the commit (Apply) or the
/// in-place swap (Compact); the expensive rebuild inside `Compact` runs
/// without blocking readers. One writer per finder.
///
/// Observability (`ctx.metrics` at `Attach`): `index.delta.batches` /
/// `.upserts` / `.deletions` / `.apply_ms`, live `index.delta.docs` /
/// `.tombstones` gauges, and `index.compact.runs` / `.docs` /
/// `.build_ms` / `.swap_ms`.
class IndexWriter {
 public:
  /// Attaches a writer to `finder`, which must own its corpus index (not
  /// share one — compaction rebuilds it in place), be frozen, and have no
  /// writer attached yet (`kFailedPrecondition` otherwise). The finder's
  /// serving state is re-resolved so its plan pipeline carries the
  /// `DeltaFanIn` pass; with the delta still empty this changes no
  /// serving behavior. `finder` must outlive the writer; `ctx.metrics`
  /// (optional, outliving the writer) resolves the `index.delta.*` /
  /// `index.compact.*` instruments.
  static Result<IndexWriter> Attach(ExpertFinder* finder,
                                    const RuntimeContext& ctx = {});

  IndexWriter(const IndexWriter&) = delete;
  IndexWriter& operator=(const IndexWriter&) = delete;
  IndexWriter(IndexWriter&&) = default;
  IndexWriter& operator=(IndexWriter&&) = default;

  /// Validates the whole batch, then commits it atomically with respect to
  /// readers: a concurrent `Rank` sees either none or all of the batch,
  /// never half. Validation failures (`kNotFound` for a deletion of a
  /// non-live id, `kInvalidArgument` for duplicate deletions or an
  /// association naming an out-of-range candidate) leave the serving state
  /// byte-identical to before the call.
  Status Apply(const UpdateBatch& batch);

  /// Persists `batch` as a CRC-checksummed delta-segment file at `path`
  /// (see io/delta_segment.h; atomic rename), stamped with the serving
  /// snapshot epoch and this writer's next commit sequence number. Pure
  /// write-ahead persistence — the batch is NOT applied; pair with `Apply`
  /// for a logged commit.
  Status LogBatch(const UpdateBatch& batch, const std::string& path) const;

  /// Loads the delta segment at `path` and applies it as one batch —
  /// recovery / replication replay. Same failure modes as `Apply` plus the
  /// io layer's (`kDataLoss` on corruption).
  Status ApplySegmentFile(const std::string& path);

  /// Folds [frozen base + deltas] into a freshly frozen index, in place:
  /// reconstructs the live documents in canonical rebuild order, bulk-adds
  /// and freezes a new index (across `ctx.pool` when given — the expensive
  /// phase, run WITHOUT blocking readers), then swaps it in under the
  /// exclusive lock, rebuilds the finder's association tables, resets the
  /// delta layer, and drops the plan cache (dictionary slots changed).
  /// After it returns, serving runs on the compiled/pruned/SIMD arms again
  /// and the ranking function is unchanged, bit for bit. A no-op (OK) when
  /// the delta is empty.
  Status Compact(const RuntimeContext& ctx = {});

  /// Epoch-publishing compaction: builds a brand-new finder over the
  /// compacted index (same config, extractor, and association state),
  /// wraps it in a `ServingSnapshot` at `manager->active_epoch() + 1`, and
  /// publishes it through `SnapshotManager::Swap` — in-flight ranks finish
  /// on the epoch they hold. This writer's own finder and delta are left
  /// untouched (still serving the old epoch until readers drain); attach a
  /// new writer to the returned snapshot's `mutable_finder()` to continue
  /// mutating. The returned handle is non-const for exactly that purpose.
  Result<std::shared_ptr<ServingSnapshot>> CompactAndPublish(
      SnapshotManager* manager, const RuntimeContext& ctx = {});

  /// Installs coordinator-computed global live statistics into the delta
  /// layer. Sharded serving only: a shard's local rf / live-doc numbers are
  /// shard-local while Eq. 1 wants collection-wide statistics, so the
  /// `ShardRouter` merges every shard's drift after each batch and installs
  /// the global view into every shard's writer — including shards with no
  /// local mutations, whose frozen statistics went stale the moment any
  /// other shard mutated (installing activates the live-delta arm there).
  /// Takes the delta's unique lock. Single-index writers never need this.
  void InstallGlobalStats(std::shared_ptr<const index::GlobalLiveStats> stats);

  /// The delta layer this writer mutates (shared with the finder). Tests
  /// read counts through it; take `delta().mu` (shared) when reading
  /// anything beyond the lock-free `active()`.
  const index::DeltaState& delta() const { return *delta_; }

  /// Batches committed through `Apply` since `Attach` (also the sequence
  /// number stamped on the next `LogBatch` segment).
  uint64_t batches_applied() const;

 private:
  IndexWriter(ExpertFinder* finder, std::shared_ptr<index::DeltaState> delta,
              obs::MetricsRegistry* metrics);

  /// Retires the per-doc sidecar state (association list, reachability
  /// byte, per-candidate counts) of live doc `doc` with external id `ext`.
  /// Caller holds the delta's unique lock.
  void RetireDocStateLocked(index::DocId doc, uint64_t ext);

  /// Re-projects the finder's association map onto the (new) frozen index
  /// doc order — the compaction analogue of `BuildAssociations`' dense
  /// projection. Caller holds the delta's unique lock.
  static void ReprojectAssociations(ExpertFinder* finder);

  /// Reconstructs the live documents (shared lock only) and builds +
  /// freezes the compacted index across `ctx.pool`. The returned index is
  /// the from-scratch rebuild the live-delta arm is bit-identical to.
  Result<index::SearchIndex> BuildCompactedIndex(const RuntimeContext& ctx,
                                                 size_t* live_docs) const;

  ExpertFinder* finder_ = nullptr;
  std::shared_ptr<index::DeltaState> delta_;

  /// Serializes writer operations against each other; reader concurrency
  /// is governed by `delta_->mu` alone. Boxed so the writer stays movable.
  std::unique_ptr<std::mutex> writer_mu_;
  uint64_t batches_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* delta_batches_ = nullptr;
  obs::Counter* delta_upserts_ = nullptr;
  obs::Counter* delta_deletions_ = nullptr;
  obs::Histogram* delta_apply_ms_ = nullptr;
  obs::Gauge* delta_docs_ = nullptr;
  obs::Gauge* delta_tombstones_ = nullptr;
  obs::Counter* compact_runs_ = nullptr;
  obs::Gauge* compact_docs_ = nullptr;
  obs::Histogram* compact_build_ms_ = nullptr;
  obs::Histogram* compact_swap_ms_ = nullptr;
};

}  // namespace crowdex::core

#endif  // CROWDEX_CORE_INDEX_WRITER_H_
