#ifndef CROWDEX_INDEX_DELTA_H_
#define CROWDEX_INDEX_DELTA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/shared_mutex.h"
#include "common/status.h"
#include "common/string_util.h"
#include "index/search_index.h"

namespace crowdex::index {

/// The delta postings of one term, in the frozen arenas' structure-of-
/// arrays layout so the scoring kernels run over them unchanged. Delta doc
/// ids continue the base id space: the i-th appended document gets id
/// `base_docs + i`, so every delta id is strictly greater than every base
/// id and appended order is id order — each run is strictly ascending, the
/// precondition the kernels' one-lane-per-doc argument rests on. Those are
/// exactly the ids a from-scratch rebuild over [base order minus
/// tombstones, then delta order] assigns, up to the strictly-increasing
/// renumbering that closes the tombstone gaps, which preserves the
/// (score desc, doc asc) tie-break (DESIGN.md §16).
struct DeltaTermRun {
  std::vector<DocId> docs;
  std::vector<uint32_t> tf;
};

/// The delta postings of one entity, SoA like `DeltaTermRun`. `we` is the
/// Eq. 2 weight `dscore > 0 ? 1 + dscore : 0`, computed once at `Upsert` —
/// the value `Freeze` stores in the entity arena. Unlike the arena, a
/// posting of weight 0 is kept: it contributes `+0.0`, a bitwise no-op on
/// the non-negative accumulator that cannot make a score positive.
struct DeltaEntityRun {
  std::vector<DocId> docs;
  std::vector<uint32_t> ef;
  std::vector<double> we;
};

/// Absolute live collection statistics installed by the index writer (or,
/// under sharding, by the router acting as cross-shard coordinator) after
/// every committed batch. Immutable once published — readers hold the
/// `shared_ptr` they loaded for the duration of one query.
///
/// The maps carry only the terms/entities *touched* by some mutation
/// (absolute live rf, not a delta). Untouched keys fall back to the frozen
/// base statistic: the local posting-segment length for terms and the
/// frozen `entity_rf` table for entities. Under sharding the term fallback
/// is wrong (a shard's segment length is shard-local while Eq. 1 wants the
/// collection rf), so the coordinator additionally publishes
/// `term_base_rf` — the global base rf per term — and shard-side lookups
/// prefer it. Entity rf needs no such table: `PartitionFrozen` already
/// copies the GLOBAL `entity_rf` into every shard.
/// Absolute term rf keyed by term text (heterogeneous `string_view`
/// lookup).
using TermRfMap = std::unordered_map<std::string, uint32_t,
                                     TransparentStringHash, std::equal_to<>>;

struct GlobalLiveStats {
  uint64_t live_docs = 0;
  TermRfMap term_rf;
  std::unordered_map<entity::EntityId, uint32_t> entity_rf;
  /// Global base term rf (sharded serving only; null for single-index
  /// writers, where the local segment length already is the collection rf).
  std::shared_ptr<const TermRfMap> term_base_rf;
};

/// The mutable half of an incrementally-served index (DESIGN.md §16):
/// append-only delta posting runs for documents added after the base
/// froze, tombstones masking retired documents (base or delta), and the
/// signed rf drift the mutations caused. The frozen base `SearchIndex` is
/// never touched — `Accumulate` scores each query group's base arena run
/// and then its delta run through the same SIMD kernels the frozen path
/// uses, and compaction reconstructs the live document set and refreezes
/// from scratch.
///
/// Thread model: `mu` is the single reader/writer lock, writer-preferring
/// so back-to-back readers cannot starve a commit. Every mutation
/// (`Upsert` / `Remove` / `ResetForNewBase` / `InstallStats`) requires the
/// unique lock; every read of delta state — including the whole of a rank
/// that might consume it — holds the shared lock (`DeltaReadGuard`), and
/// no thread may take it twice (see `SharedMutex`). `active()` alone is
/// lock-free (an atomic), so plan construction can ask "is there any
/// delta?" without touching the lock.
class DeltaState {
 public:
  /// Builds the delta layer over `base`, which must be frozen and must
  /// outlive this object (or be re-pointed with `ResetForNewBase`).
  /// Inverts the frozen arenas into per-document forward postings once, so
  /// removals can decrement the statistics of documents the base only
  /// stores inverted.
  explicit DeltaState(const SearchIndex* base);

  DeltaState(const DeltaState&) = delete;
  DeltaState& operator=(const DeltaState&) = delete;

  /// Adds (or replaces) the document keyed by `doc.external_id`. An
  /// existing live document with that id — base or delta — is tombstoned
  /// first, then the new version is appended with the next delta id, which
  /// is exactly the remove + re-add sequence a from-scratch rebuild
  /// models. Caller holds the unique lock.
  Status Upsert(const IndexableDocument& doc);

  /// Tombstones the live document keyed by `external_id` and decrements
  /// the live statistics of everything it contained. `kNotFound` when no
  /// live document has that id. Caller holds the unique lock.
  Status Remove(uint64_t external_id);

  /// Re-points the delta layer at a freshly compacted base and clears all
  /// delta state (postings, tombstones, stats, the active flag). Caller
  /// holds the unique lock and guarantees no reader is in flight.
  void ResetForNewBase(const SearchIndex* base);

  /// Publishes the absolute live statistics for the current delta state and
  /// activates the live-statistics path: under sharding, a shard with no
  /// local delta postings must still score with live weights once any
  /// shard mutated, because the global document count (and with it every
  /// inverse frequency) changed. Caller holds the unique lock.
  void InstallStats(std::shared_ptr<const GlobalLiveStats> stats) {
    stats_ = std::move(stats);
    active_.store(true, std::memory_order_release);
  }

  /// True once any mutation was applied since construction / the last
  /// `ResetForNewBase`. Lock-free: the plan layer reads it per rank to
  /// decide whether a `DeltaFanIn` stage is needed at all.
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Eq. 1 over [frozen base + delta] into `acc`, with live collection
  /// statistics: for each group in the given order, the base arena run
  /// (when the base dictionary holds the term/entity) and then the delta
  /// run (when one exists) go through the active `KernelSet` at the weight
  /// `alpha · qw · irf · irf`, irf over `LiveDocCount()` and the live rf.
  /// A document lives in exactly one segment, so it receives its
  /// contributions in group order — the rebuild's addition schedule.
  /// Groups absent from both segments score nothing and are skipped, so
  /// a term that first appeared in the delta scores at its own position.
  ///
  /// Candidates are collected through `eligible` (a byte per doc over
  /// `total_docs()`), which must be 0 for every tombstoned doc — the
  /// writer zeroes the finder's reachability byte on retirement. Null
  /// means "every live doc". `matched` is corrected to exclude tombstoned
  /// docs (an O(tombstones) walk), so both counts equal the rebuild's.
  /// Retrieve the ranking with `acc->TakeTop`; ids over the combined
  /// [base, delta] column. Caller holds the shared lock.
  RetrievalStats Accumulate(const std::vector<QueryTermGroup>& terms,
                            const std::vector<QueryEntityGroup>& entities,
                            double alpha, const uint8_t* eligible,
                            ScoreAccumulator* acc) const;

  // --- Shared-lock read surface (the scorer and the writer) ---------------

  const FrozenIndexView& base_view() const { return view_; }

  size_t base_docs() const { return base_docs_; }
  size_t delta_docs() const { return delta_docs_.size(); }
  /// Total id space the scorer ranks over: base ids then delta ids.
  size_t total_docs() const { return ext_ids_.size(); }
  /// Live documents (base + delta, minus tombstones).
  size_t live_docs() const {
    return static_cast<size_t>(static_cast<int64_t>(base_docs_) +
                               live_docs_delta_);
  }
  size_t tombstone_count() const { return tombstones_.size(); }

  bool IsTombstoned(DocId doc) const { return live_mask_[doc] == 0; }
  bool IsLive(uint64_t external_id) const {
    return live_.find(external_id) != live_.end();
  }
  /// Doc id of the live document keyed by `external_id`, or -1 when none —
  /// the writer uses it to retire per-doc sidecar state (association lists)
  /// in lockstep with a removal.
  int64_t LiveDocId(uint64_t external_id) const {
    auto it = live_.find(external_id);
    return it == live_.end() ? -1 : static_cast<int64_t>(it->second);
  }
  uint64_t external_id(DocId doc) const { return ext_ids_[doc]; }

  /// Live collection rf of `term` / `entity` — the statistics a rebuild
  /// over the live documents would compute (see `GlobalLiveStats` for the
  /// fallback chain).
  uint32_t LiveTermRf(std::string_view term) const;
  uint32_t LiveEntityRf(entity::EntityId entity) const;
  /// Live document count the inverse-frequency statistic divides by.
  uint64_t LiveDocCount() const;

  /// Delta posting run of `term` / `entity`; null when none was appended.
  const DeltaTermRun* TermRun(std::string_view term) const;
  const DeltaEntityRun* EntityRun(entity::EntityId entity) const;

  /// Base rf of `term` in the local frozen base (the posting-segment
  /// length; 0 for unknown terms). Shard-local under sharding.
  uint32_t LocalBaseTermRf(std::string_view term) const;
  uint32_t LocalBaseEntityRf(entity::EntityId entity) const;

  /// Dictionary slot of `term` / `entity` in the frozen base, or -1 when
  /// absent — how `Accumulate` finds the base arena segment to walk.
  int64_t BaseTermSlot(std::string_view term) const;
  int64_t BaseEntitySlot(entity::EntityId entity) const;

  /// Signed rf drift per touched term/entity and the signed live-doc
  /// drift, for the single-index writer (local stats) and the sharded
  /// coordinator (cross-shard merge) to turn into `GlobalLiveStats`.
  const std::unordered_map<std::string, int64_t, TransparentStringHash,
                           std::equal_to<>>&
  term_rf_delta() const {
    return term_rf_delta_;
  }
  const std::unordered_map<entity::EntityId, int64_t>& entity_rf_delta()
      const {
    return entity_rf_delta_;
  }
  int64_t live_docs_delta() const { return live_docs_delta_; }

  /// The live document set in canonical rebuild order: base documents in
  /// id order with tombstoned ones removed, then delta documents in
  /// appended order. Feeding this to `BulkAdd` + `Freeze` produces the
  /// from-scratch rebuild `Accumulate` is bit-identical to — which is
  /// exactly what compaction does.
  std::vector<IndexableDocument> ReconstructLiveDocs() const;

  /// One reader/writer lock over the whole delta state (see the class
  /// comment). Public so `DeltaReadGuard` and the writer can take it.
  mutable SharedMutex mu;

 private:
  struct BaseTermRef {
    uint32_t slot;
    uint32_t tf;
  };

  /// Tombstones `doc` (already known live) and decrements the rf deltas of
  /// everything it contained.
  void RemoveDocLocked(DocId doc);

  FrozenIndexView view_;
  size_t base_docs_ = 0;

  /// Own copies of the frozen dictionaries (term/entity -> slot), so slot
  /// lookups survive the base being move-assigned during compaction.
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      term_slot_;
  std::unordered_map<entity::EntityId, uint32_t> entity_slot_;

  /// Forward postings of every base document, inverted from the frozen
  /// arenas at construction. Entity entries carry the original Eq. 2
  /// inputs: `dscore = we - 1` for arena postings (an exact round trip —
  /// `we ∈ [1, 2)` makes the subtraction exact and re-adding 1 lands on
  /// the same `we`), with an arena `we` of exactly 1.0 mapped to the
  /// smallest positive double so the reconstructed posting stays on the
  /// positive side of the Eq. 2 branch it originally took; pruned
  /// zero-weight postings (from the base's zero lists) reconstruct as
  /// `ef = 1, dscore = 0` — pruned again on refreeze, counted in rf either
  /// way, so every downstream bit matches.
  std::vector<std::vector<BaseTermRef>> base_terms_;
  std::vector<std::vector<DocEntity>> base_entities_;

  /// external id -> doc id of every LIVE document (base and delta).
  std::unordered_map<uint64_t, DocId> live_;

  /// Appended documents in id order (delta id = base_docs_ + index); the
  /// stored copies are what compaction reconstructs from.
  std::vector<IndexableDocument> delta_docs_;
  /// Per delta doc, the aggregated postings as `AppendDoc` would build
  /// them (tf-merged terms, merged entities) — the decrement source when a
  /// delta document is itself removed later.
  std::vector<std::vector<std::pair<std::string, uint32_t>>>
      delta_doc_terms_;
  std::vector<std::vector<DocEntity>> delta_doc_entities_;

  std::unordered_map<std::string, DeltaTermRun, TransparentStringHash,
                     std::equal_to<>>
      term_runs_;
  std::unordered_map<entity::EntityId, DeltaEntityRun> entity_runs_;

  /// External id per doc over [0, total_docs()): the base column followed
  /// by one entry per append — the id column `TakeTop` materializes
  /// winners from.
  std::vector<uint64_t> ext_ids_;
  /// Byte per doc over [0, total_docs()); 1 = live, 0 = retired. The
  /// eligibility filter `Accumulate` falls back to without a caller mask.
  std::vector<uint8_t> live_mask_;
  /// Every retired doc id, each once (in retirement order) — the
  /// O(tombstones) walk that corrects `matched`.
  std::vector<DocId> tombstones_;

  std::unordered_map<std::string, int64_t, TransparentStringHash,
                     std::equal_to<>>
      term_rf_delta_;
  std::unordered_map<entity::EntityId, int64_t> entity_rf_delta_;
  int64_t live_docs_delta_ = 0;

  std::shared_ptr<const GlobalLiveStats> stats_;
  std::atomic<bool> active_{false};
};

/// RAII shared lock over a delta state; a no-op on null, so serving code
/// can guard unconditionally whether or not a writer is attached.
class DeltaReadGuard {
 public:
  explicit DeltaReadGuard(const DeltaState* delta) {
    if (delta != nullptr) {
      lock_ = std::shared_lock<SharedMutex>(delta->mu);
    }
  }

 private:
  std::shared_lock<SharedMutex> lock_;
};

}  // namespace crowdex::index

#endif  // CROWDEX_INDEX_DELTA_H_
