#ifndef CROWDEX_INDEX_SEARCH_INDEX_H_
#define CROWDEX_INDEX_SEARCH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "entity/knowledge_base.h"

namespace crowdex::common {
class ThreadPool;
}  // namespace crowdex::common

namespace crowdex::obs {
class MetricsRegistry;
}  // namespace crowdex::obs

namespace crowdex::index {

/// Position of a document inside one `SearchIndex` (dense, 0-based).
using DocId = uint32_t;

/// Number of postings covered by one block-max metadata entry. Blocks are
/// aligned to the start of each posting segment, so block `b` of a segment
/// starting at arena offset `s` covers `[s + b·128, min(s + (b+1)·128,
/// end))`. 128 postings keep a block's doc/tf (or doc/ef/we) data within a
/// couple of cache lines' worth of metadata while leaving skips coarse
/// enough to pay for themselves.
inline constexpr size_t kPostingBlockSize = 128;

/// Minimal aligned allocator so the dense accumulation buffers start on a
/// cache-line boundary: the compiled hot loop streams `scores_`/`stamps_`
/// and 64-byte alignment keeps those streams from straddling lines (and
/// lets the compiler use aligned vector loads).
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  using is_always_equal = std::true_type;
  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// Posting-arena storage: 64-byte-aligned so the SIMD scoring kernels see
/// cache-line-aligned arena bases everywhere an arena exists — `Freeze`
/// builds into these, `FromFrozen` copies the deserialized arrays into
/// them (realignment is an in-memory property, the snapshot format does
/// not change), and `PartitionFrozen` builds each shard's slices fresh, so
/// every shard partition starts aligned too.
template <typename T>
using PostingVec = std::vector<T, AlignedAllocator<T, 64>>;

/// Interned id of a term in a frozen index's dictionary (dense, 0-based,
/// assigned in lexicographic term order so ids are independent of how the
/// postings were built — sequential or sharded).
using TermId = uint32_t;

/// An entity occurrence attached to an indexed document.
struct DocEntity {
  entity::EntityId entity = entity::kInvalidEntityId;
  /// Number of occurrences in the document (the `ef(e, r)` of Eq. 1).
  uint32_t frequency = 0;
  /// Highest disambiguation confidence among the occurrences (the
  /// `dScore(e, r)` of Eq. 2).
  double dscore = 0.0;
};

/// Input document for index construction: the analyzed form of a resource
/// (terms already sanitized / stop-worded / stemmed, entities already
/// recognized and disambiguated).
struct IndexableDocument {
  /// Caller-side identifier (e.g. the graph `NodeId`); returned in results.
  uint64_t external_id = 0;
  std::vector<std::string> terms;
  std::vector<DocEntity> entities;
};

/// Borrowed view of a document for bulk construction: points at analyzed
/// data owned elsewhere (e.g. an `AnalyzedNode`), so indexing copies no
/// term vectors. The pointees must stay alive for the `BulkAdd` call.
struct DocView {
  uint64_t external_id = 0;
  const std::vector<std::string>* terms = nullptr;
  const std::vector<DocEntity>* entities = nullptr;
};

/// One retrieval result.
struct ScoredDoc {
  // Trivially default-constructible on purpose: the vectorized collect
  // kernel sizes the candidate buffer with a default-initializing resize
  // and then overwrites every kept slot with full-width stores, so a
  // zero-filling constructor would be pure overhead. Every producer
  // aggregate-initializes all three fields.
  DocId doc;
  uint64_t external_id;
  double score;
};

/// std::allocator except that construction with NO arguments performs
/// default-initialization — trivial element types stay uninitialized, so
/// `resize(n)` on a candidate buffer is O(1) bookkeeping instead of a
/// zero-fill the collect kernel's stores would immediately overwrite.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Candidate storage shared by the accumulator and the collect kernels.
using CandidateVec = std::vector<ScoredDoc, DefaultInitAllocator<ScoredDoc>>;

/// The analyzed expertise need, in the same representation space as
/// resources (Sec. 2.4's uniform vector space).
struct AnalyzedQuery {
  std::vector<std::string> terms;
  std::vector<entity::EntityId> entities;
};

/// One aggregated query-side term group: a distinct term with its
/// multiplicity in the query (`tf(t, q)`). The *sequence* of groups is the
/// accumulation order of the Eq. 1 sums — callers of the group APIs own
/// that order (the plan IR captures it at lowering time; `Search` /
/// `Compile` derive it from their bag's iteration order).
struct QueryTermGroup {
  std::string_view term;
  uint32_t qtf = 0;
};

/// One aggregated query-side entity group (`ef(e, q)`); same order
/// contract.
struct QueryEntityGroup {
  entity::EntityId entity = entity::kInvalidEntityId;
  uint32_t qef = 0;
};

/// A query compiled against one frozen index: terms resolved to interned
/// `TermId`s, entities to dense dictionary slots, with the query-side
/// multiplicities (`tf(t, q)` / `ef(e, q)`) pre-aggregated. Compiling once
/// and scoring many times skips string hashing and query-side bag
/// construction on every call. A compiled query is only meaningful against
/// the frozen state it was compiled from; refreezing after mutation
/// requires recompiling.
struct CompiledQuery {
  struct TermRef {
    TermId id = 0;
    /// Query-side term frequency (a repeated query term contributes
    /// repeatedly in Eq. 1).
    uint32_t qtf = 0;
    /// `qtf` as a double (uint32 → double is exact) and the term's `irf`,
    /// captured at compile time so the per-group weight
    /// `alpha * qw * irf * irf` needs no statistics-table load at scoring
    /// time. Bit-identical to multiplying the integral `qtf` directly —
    /// the implicit conversion the legacy expression performed is the
    /// same exact conversion. Valid for the frozen state the query was
    /// compiled against, like every other field here.
    double qw = 0.0;
    double irf = 0.0;
  };
  struct EntityRef {
    /// Dense slot in the frozen entity dictionary (not the EntityId).
    uint32_t slot = 0;
    uint32_t qef = 0;
    /// `qef` as a double and the entity's `eirf` (see TermRef::qw).
    double ew = 0.0;
    double eirf = 0.0;
  };
  /// Terms/entities present in the dictionary, in the exact group order
  /// the legacy scorer would have processed them (see `Compile`); unknown
  /// ones are dropped at compile time.
  std::vector<TermRef> terms;
  std::vector<EntityRef> entities;
};

/// Borrowed, read-only view of a frozen index's serving layout, in the
/// exact in-memory representation the compiled query path scores against.
/// Produced by `SearchIndex::ExportFrozen` for serialization; every pointer
/// targets storage owned by the index and stays valid until the index is
/// mutated or destroyed. `terms` / `entities` are materialized per call
/// (dictionary keys in TermId / slot order); everything else is borrowed.
struct FrozenIndexView {
  const std::vector<uint64_t>* external_ids = nullptr;
  /// Dictionary terms in TermId order (views into the index's own keys).
  std::vector<std::string_view> terms;
  const std::vector<double>* term_irf = nullptr;
  const std::vector<size_t>* term_offsets = nullptr;
  const PostingVec<DocId>* term_post_doc = nullptr;
  const PostingVec<uint32_t>* term_post_tf = nullptr;
  /// Dictionary entities in slot order.
  std::vector<entity::EntityId> entities;
  const std::vector<double>* entity_eirf = nullptr;
  /// Unpruned posting-list length per slot (the statistic `eirf` derives
  /// from — the arena below stores only the positive-weight postings).
  const std::vector<uint32_t>* entity_rf = nullptr;
  const std::vector<size_t>* entity_offsets = nullptr;
  const PostingVec<DocId>* entity_post_doc = nullptr;
  const PostingVec<uint32_t>* entity_post_ef = nullptr;
  const PostingVec<double>* entity_post_we = nullptr;
  /// Docs whose posting for each slot was pruned from the arena (Eq. 2
  /// weight exactly 0): an `entity_offsets`-style staircase over a doc
  /// array, ascending per segment. Together with the arena this recovers
  /// FULL entity membership — what the incremental-indexing layer needs to
  /// maintain live rf on deletion and to reconstruct documents for
  /// compaction (DESIGN.md §16). Scoring never reads it.
  const std::vector<size_t>* entity_zero_offsets = nullptr;
  const std::vector<DocId>* entity_zero_doc = nullptr;
  /// Block-max metadata (see `kPostingBlockSize`): per posting block, the
  /// maximum `tf` (term side, the α=1 score component per unit weight) and
  /// the maximum `ef·we` product as actually rounded (entity side, the α=0
  /// component). Block counts derive from the offsets tables, so only the
  /// maxima travel. `posting_block_size` records the block size the maxima
  /// were computed with.
  uint32_t posting_block_size = 0;
  const std::vector<uint32_t>* term_block_max_tf = nullptr;
  const std::vector<double>* entity_block_max = nullptr;
};

/// Owned form of the same layout, as a deserializer assembles it. Consumed
/// by `SearchIndex::FromFrozen`, which validates the structural invariants
/// and adopts the arrays without copying them.
struct FrozenIndexData {
  std::vector<uint64_t> external_ids;
  std::vector<std::string> terms;
  std::vector<double> term_irf;
  std::vector<size_t> term_offsets;
  std::vector<DocId> term_post_doc;
  std::vector<uint32_t> term_post_tf;
  std::vector<entity::EntityId> entities;
  std::vector<double> entity_eirf;
  std::vector<uint32_t> entity_rf;
  std::vector<size_t> entity_offsets;
  std::vector<DocId> entity_post_doc;
  std::vector<uint32_t> entity_post_ef;
  std::vector<double> entity_post_we;
  /// Pruned zero-weight entity membership (see `FrozenIndexView`). Both
  /// empty means "absent" (a pre-v3 snapshot): `FromFrozen` synthesizes
  /// empty zero lists, which only costs the incremental layer rf accuracy
  /// for entities whose pruned postings were dropped by a deletion.
  std::vector<size_t> entity_zero_offsets;
  std::vector<DocId> entity_zero_doc;
  /// Optional block-max metadata; 0 / empty means "absent" and makes
  /// `FromFrozen` rebuild the blocks from the arenas (the v1-snapshot
  /// fallback). Present-but-inconsistent metadata is rebuilt too.
  uint32_t posting_block_size = 0;
  std::vector<uint32_t> term_block_max_tf;
  std::vector<double> entity_block_max;
};

/// Counts produced by one compiled retrieval pass.
///
/// `AccumulateCompiled` reports both counts exactly. The pruned kernel
/// (`AccumulatePrunedTopK`) reports LOWER BOUNDS: once the threshold lets
/// it skip documents it never learns their scores, so it cannot count them.
/// The bounds are exact whenever no skipping occurred — in particular
/// whenever fewer than `k` eligible documents exist (the heap never fills,
/// the threshold stays at −∞, and nothing is skipped), which is why the
/// windowed result size is always exact even though these counts may not
/// be.
struct RetrievalStats {
  /// Documents with positive Eq. 1 score (the legacy `Search` result size).
  size_t matched = 0;
  /// Matched documents passing the eligibility filter (all of them when no
  /// filter is given) — the pool a top-k window applies to.
  size_t eligible = 0;
  /// Posting-run kernel invocations this pass dispatched (one per scored
  /// term/entity group on the compiled path; 0 on the pruned path, which
  /// seeks instead of running whole segments).
  uint64_t kernel_runs = 0;
  /// Software prefetches the selected kernel issued (accumulate-slot
  /// prefetches on the compiled path, next-block prefetches on the pruned
  /// path). Observability only.
  uint64_t kernel_prefetches = 0;
  /// Delta postings scanned (`DeltaState::Accumulate` only; 0 on frozen
  /// passes). Observability only.
  uint64_t delta_postings = 0;
};

/// Skip accounting for one pruned retrieval pass (observability only —
/// never consulted for correctness).
struct PruneStats {
  /// Whole posting blocks jumped over by cursor seeks without scoring.
  uint64_t blocks_skipped = 0;
  /// Distinct (group, block) pairs that contributed at least one scored
  /// posting.
  uint64_t blocks_scored = 0;
  /// Posting entries passed over without evaluating their contribution
  /// (candidate-level bound skips plus per-document early abandons).
  uint64_t docs_skipped = 0;
};

/// Reusable dense scoring scratch for the compiled query path: one score
/// slot per document plus a generation stamp, so clearing between queries
/// is a single epoch bump instead of an O(N) wipe or a per-query hash map.
/// Not thread-safe — use one accumulator per thread (they are cheap; the
/// buffers grow to the largest index served and are then reused).
class ScoreAccumulator {
 public:
  ScoreAccumulator() = default;
  ScoreAccumulator(const ScoreAccumulator&) = delete;
  ScoreAccumulator& operator=(const ScoreAccumulator&) = delete;

  /// Number of candidates collected by the last accumulate pass.
  size_t candidate_count() const { return candidates_.size(); }

  /// The one clamp every top-k consumer shares: how many results a request
  /// for `k` can actually produce from `available` candidates. Callers
  /// routinely pass `k > candidate_count()` (a fixed window larger than
  /// the match set), so both `TakeTop`'s `nth_element` pivot and the
  /// pruned path's heap sizing must clamp through here — a raw
  /// `begin() + k` past the end is undefined behavior.
  static size_t ClampTopK(size_t k, size_t available) {
    return k < available ? k : available;
  }

  /// Moves the top `k` collected candidates (by descending score, ties by
  /// ascending doc id) into `*out`, best first. `k >= candidate_count()`
  /// selects all of them. Because the order is a strict total order over
  /// distinct documents, the selected set and its order are exactly the
  /// first `k` elements of the full sort — partial selection cannot change
  /// the result, only skip sorting the tail.
  void TakeTop(size_t k, std::vector<ScoredDoc>* out);

  // --- Bounded top-k (the pruned kernel's threshold source) ---------------

  /// Switches `candidates_` into bounded top-k mode: subsequent
  /// `OfferTopK` calls keep only the best `limit` candidates (under the
  /// same strict total order `TakeTop` uses) in a binary heap whose root
  /// is the current k-th best — the running threshold dynamic pruning
  /// compares bounds against. Clears previously collected candidates.
  void BeginTopK(size_t limit);

  /// Offers one candidate to the bounded heap; returns true when it was
  /// kept (heap not yet full, or it beats the current k-th best).
  bool OfferTopK(const ScoredDoc& candidate);

  /// True once the heap holds `limit` candidates — only then is the
  /// threshold a real k-th-best score.
  bool TopKFull() const {
    return topk_limit_ > 0 && candidates_.size() >= topk_limit_;
  }

  /// The running k-th-best score: any document whose score upper bound is
  /// ≤ this cannot displace a kept candidate (later documents have larger
  /// doc ids, so an equal score loses the tie too). −∞ until the heap is
  /// full; monotonically non-decreasing afterwards.
  double TopKThreshold() const;

 private:
  friend class SearchIndex;
  friend class DeltaState;

  /// Starts a new query over `num_docs` documents: bumps the epoch and
  /// grows the buffers if the index is larger than anything seen before.
  void Reset(size_t num_docs);

  /// Dense per-doc buffers, cache-line-aligned so the accumulate loop's
  /// streams start on 64-byte boundaries (see `AlignedAllocator`).
  std::vector<double, AlignedAllocator<double, 64>> scores_;
  /// Stamp per doc; `stamps_[d] == epoch_` marks `scores_[d]` as live.
  std::vector<uint64_t, AlignedAllocator<uint64_t, 64>> stamps_;
  uint64_t epoch_ = 0;
  /// Docs touched by the current query, in first-touch order. A grow-only
  /// flat buffer (`touched_count_` live entries) rather than a push_back
  /// vector: the branchless SIMD kernels write the next slot
  /// unconditionally and bump the count only for fresh docs, so the
  /// buffer is sized one slot past the document count and `Reset` just
  /// zeroes the count.
  std::vector<DocId, AlignedAllocator<DocId, 64>> touched_;
  size_t touched_count_ = 0;
  /// Eligible positive-score docs collected after accumulation. In bounded
  /// top-k mode this doubles as the heap's storage (heap order while
  /// offering; `TakeTop` sorts it anyway). Default-init allocator: the
  /// vectorized collect sizes it with resize() and overwrites every slot.
  CandidateVec candidates_;
  /// 0 = unbounded (plain accumulate mode).
  size_t topk_limit_ = 0;
  /// External-id column of the index the last accumulate ran against (the
  /// delta layer's combined [base, delta] column after a live-delta pass);
  /// `TakeTop` materializes `ScoredDoc::external_id` from it for the
  /// selected winners only (the collect kernels and the pruned offers
  /// store 0). Null when candidates were offered manually with their ids
  /// already filled — then `TakeTop` leaves them untouched.
  const uint64_t* ext_ids_ = nullptr;
};

/// In-memory inverted index implementing the paper's retrieval model.
///
/// Resources are represented both as bags of words and as sets of entities
/// (Sec. 2.4); the relevance of resource `r` for query `q` is Eq. 1:
///
///   score(q,r) =      α · Σ_{t ∈ q}    tf(t,r) · irf(t)²
///             + (1 − α) · Σ_{e ∈ E(q)} ef(e,r) · eirf(e)² · we(e,r)
///
/// with `we(e,r) = 1 + dScore(e,r)` when the entity was disambiguated with
/// positive confidence and 0 otherwise (Eq. 2). `irf` / `eirf` are inverse
/// resource frequencies over the whole indexed collection.
///
/// The index has two serving forms. The mutable build form (`Add` /
/// `BulkAdd` + `Search`) accepts documents at any time and recomputes
/// collection statistics per query. `Freeze()` additionally compiles a
/// read-only serving layout — an interned term dictionary plus contiguous
/// structure-of-arrays posting arenas with `irf`/`eirf` precomputed — that
/// `Compile` + `AccumulateCompiled` score against without any hashing or
/// sorting beyond the requested top-k. The compiled path returns
/// bit-identical scores and orderings to `Search` (the equivalence
/// argument lives in DESIGN.md §10 and is enforced by
/// `tests/index/query_path_equivalence_test.cc`). Once frozen, the index
/// rejects direct mutation (`kFailedPrecondition`) — the frozen form is a
/// serving artifact other layers hold borrowed views into, so it is never
/// silently dropped. Incremental updates layer delta segments over it via
/// `core::IndexWriter` (DESIGN.md §16).
class SearchIndex {
 public:
  SearchIndex() = default;

  /// Adds `doc` to the collection and returns its dense id. Frequencies
  /// (`tf`, `ef`) are computed here; `irf`/`eirf` reflect the collection at
  /// query time, so documents may be added at any point before searching.
  /// Aborts on a serving-only index and on a frozen one (mutating a frozen
  /// index directly is a programming error — route incremental mutations
  /// through `core::IndexWriter`, which layers delta segments over the
  /// frozen form instead of invalidating it; see DESIGN.md §16).
  DocId Add(const IndexableDocument& doc);

  /// Adds `docs` in order: doc i receives id `size() + i` no matter how
  /// many threads build the postings. With a pool of more than one thread
  /// the collection is split into contiguous shards whose postings are
  /// built independently and merged in shard order, so every per-term and
  /// per-entity posting list comes out sorted by ascending doc id —
  /// exactly what the sequential loop produces. A null pool (or one
  /// thread) indexes sequentially.
  ///
  /// Returns `kInvalidArgument` when any `DocView` carries a null terms or
  /// entities pointer (the failure is detected inside the owning chunk and
  /// the lowest failing doc index wins deterministically), `kInternal`
  /// when a chunk body threw, or `kFailedPrecondition` on a serving-only
  /// index (see `FromFrozen`) or a frozen one (the frozen form is never
  /// silently dropped — incremental mutation goes through
  /// `core::IndexWriter`, DESIGN.md §16). On any failure the index is left
  /// exactly as it was before the call — no documents, ids, or postings
  /// are committed.
  ///
  /// When `metrics` is non-null, build and shard-merge wall time land in
  /// the `index.bulk_add_ms` / `index.shard_merge_ms` histograms and
  /// document/posting counts in `index.*` counters and gauges. Metrics
  /// never affect the indexed output.
  [[nodiscard]] Status BulkAdd(const std::vector<DocView>& docs,
                               const common::ThreadPool* pool = nullptr,
                               obs::MetricsRegistry* metrics = nullptr);

  /// Number of indexed documents.
  size_t size() const { return external_ids_.size(); }

  /// Resource frequency of `term` (number of documents containing it).
  uint32_t ResourceFrequency(std::string_view term) const;

  /// Resource frequency of `entity`.
  uint32_t EntityResourceFrequency(entity::EntityId entity) const;

  /// Inverse resource frequency: log(1 + N / rf). Returns 0 for unseen
  /// terms (they cannot contribute to any score).
  double Irf(std::string_view term) const;

  /// Entity inverse resource frequency, same formula over entity postings.
  double Eirf(entity::EntityId entity) const;

  /// Term frequency of `term` in `doc` (0 when absent).
  uint32_t TermFrequency(DocId doc, std::string_view term) const;

  /// Scores every matching document per Eq. 1 and returns them sorted by
  /// descending score (ties broken by ascending doc id for determinism).
  /// Only documents with score > 0 are returned. `alpha` must be in [0,1].
  /// Equivalent to aggregating the query into groups and calling
  /// `SearchGroups` (which is exactly how it is implemented).
  std::vector<ScoredDoc> Search(const AnalyzedQuery& query,
                                double alpha) const;

  /// `Search` over pre-aggregated query groups consumed strictly in the
  /// given sequence — the order-capture point for the plan executor:
  /// per-document sums are accumulated group by group in this order, so
  /// two calls with the same groups produce bit-identical results no
  /// matter who built the sequence. Unknown terms/entities score nothing
  /// and are skipped. The views must stay alive for the call.
  std::vector<ScoredDoc> SearchGroups(
      const std::vector<QueryTermGroup>& terms,
      const std::vector<QueryEntityGroup>& entities, double alpha) const;

  // --- Frozen serving form -------------------------------------------------

  /// Builds (or rebuilds) the frozen serving layout from the current
  /// postings: the interned term/entity dictionaries, the flat
  /// offset-indexed posting arenas, and the precomputed `irf`/`eirf`
  /// statistics. Idempotent; O(postings + V log V). Term/entity ids depend
  /// only on the indexed content (lexicographic / numeric order), never on
  /// how the postings were built. A non-null `metrics` records the wall
  /// time in the `index.freeze_ms` histogram.
  void Freeze(obs::MetricsRegistry* metrics = nullptr);

  /// True once `Freeze` built the serving form. Mutation is rejected while
  /// set (see `Add`/`BulkAdd`), so a frozen index stays frozen.
  bool frozen() const { return frozen_; }

  /// Exports the frozen serving layout for serialization. Requires
  /// `frozen()` (aborts otherwise); see `FrozenIndexView` for lifetimes.
  FrozenIndexView ExportFrozen() const;

  /// Reassembles an index directly in its frozen serving form from
  /// deserialized arrays — the cold-start path that skips every `Add` /
  /// `Freeze` step. The result is *serving-only*: it answers `Search`,
  /// `Compile`, statistics, and `TermFrequency` bit-identically to the
  /// index the data was exported from, but holds no mutable postings —
  /// `BulkAdd` returns `kFailedPrecondition` and `Add` aborts.
  ///
  /// Validates the structural invariants the scorer relies on (offset
  /// monotonicity, arena sizes, sorted dictionaries, doc ids in range,
  /// ascending per-segment postings) and returns `kDataLoss` when any is
  /// violated — corrupt bytes that survived a checksum must not turn into
  /// out-of-bounds loads at query time.
  static Result<SearchIndex> FromFrozen(FrozenIndexData data);

  /// True for indexes reassembled by `FromFrozen`: frozen serving state
  /// only, no mutable postings.
  bool serving_only() const { return serving_only_; }

  /// Doc-partitions the frozen serving form into `num_shards` serving-only
  /// indexes. Shard `s` holds the contiguous global doc range
  /// `[PartitionDocBase(size, num_shards, s), PartitionDocBase(size,
  /// num_shards, s + 1))`, renumbered to local ids `0..count-1` in global
  /// order — so ascending local id within a shard is ascending global id,
  /// which is what keeps per-shard top-k tie-breaking consistent with a
  /// global merge.
  ///
  /// Each shard's dictionaries are filtered to the terms/entities with at
  /// least one posting in the shard, but the `irf`/`eirf` weight tables
  /// are copied from the GLOBAL collection: Eq. 1 weights are collection
  /// statistics, so a shard scoring its own postings with global statistics
  /// produces bit-identical per-doc scores to the unsharded index — the
  /// invariant the scatter-gather router's exactness proof rests on
  /// (DESIGN.md §12). Shards therefore answer `Irf`/`Eirf`/
  /// `EntityResourceFrequency` with collection-level values, not
  /// shard-local ones (entity rf travels in its own table because entity
  /// postings are pruned). Term `ResourceFrequency` is the one shard-local
  /// statistic: serving-only indexes derive it from the posting-segment
  /// length, which in a shard covers only the shard's docs. Scoring never
  /// consults it — `Irf` reads the frozen global table directly.
  ///
  /// Requires `frozen()`; `num_shards` must be positive (shards beyond the
  /// doc count come out empty, which is legal). Returns `kFailedPrecondition`
  /// / `kInvalidArgument` respectively.
  Result<std::vector<SearchIndex>> PartitionFrozen(int num_shards) const;

  /// First global doc id of shard `s` when `num_docs` documents are split
  /// into `num_shards` contiguous ranges (`s == num_shards` gives the end
  /// sentinel). Pure arithmetic, shared by the partitioner and the router.
  static size_t PartitionDocBase(size_t num_docs, int num_shards, int s) {
    return num_docs * static_cast<size_t>(s) /
           static_cast<size_t>(num_shards);
  }

  /// Resolves `query` against the frozen dictionaries. Terms and entities
  /// absent from the collection are dropped (they cannot score). The group
  /// order of the result replicates the legacy scorer's iteration order
  /// exactly, which is what makes compiled scores bit-identical to
  /// `Search` (per-document sums are accumulated in the same sequence).
  /// Requires `frozen()`.
  CompiledQuery Compile(const AnalyzedQuery& query) const;

  /// `Compile` over pre-aggregated query groups, resolved strictly in the
  /// given sequence (see `SearchGroups` for the order contract). Dropping
  /// groups absent from the dictionary happens here — and only here — so
  /// plan-level rewrites never need dictionary access. Requires
  /// `frozen()`.
  CompiledQuery CompileGroups(
      const std::vector<QueryTermGroup>& terms,
      const std::vector<QueryEntityGroup>& entities) const;

  /// Scores `query` against the frozen arenas into `acc` and collects the
  /// candidates: every document with positive score that passes
  /// `eligible` (a byte per doc; null means all documents are eligible).
  /// Returns the matched/eligible counts; retrieve the ranked results with
  /// `acc->TakeTop(k, ...)`. Requires `frozen()`; `alpha` in [0, 1].
  /// Thread-safe for concurrent calls with distinct accumulators.
  RetrievalStats AccumulateCompiled(const CompiledQuery& query, double alpha,
                                    const uint8_t* eligible,
                                    ScoreAccumulator* acc) const;

  /// Block-max pruned top-k retrieval: collects into `acc` exactly the
  /// documents the compiled path's `TakeTop(k)` would return — same set,
  /// and bit-identical scores, because every kept document's score is
  /// accumulated in the original group order — while skipping whole
  /// posting blocks whose summed score upper bounds cannot beat the
  /// running k-th-best threshold (a document-at-a-time MaxScore loop over
  /// the same arenas; the safety argument lives in DESIGN.md §14).
  /// `k` must be positive. The returned matched/eligible counts are lower
  /// bounds (see `RetrievalStats`); a non-null `prune` receives the skip
  /// accounting. Requires `frozen()`; thread-safe for concurrent calls
  /// with distinct accumulators.
  RetrievalStats AccumulatePrunedTopK(const CompiledQuery& query,
                                      double alpha, const uint8_t* eligible,
                                      size_t k, ScoreAccumulator* acc,
                                      PruneStats* prune = nullptr) const;

  /// Convenience: full compiled retrieval, equivalent to `Search` (same
  /// documents, same score bits, same order).
  std::vector<ScoredDoc> SearchCompiled(const CompiledQuery& query,
                                        double alpha,
                                        ScoreAccumulator* acc) const;

  /// External id of `doc`.
  uint64_t external_id(DocId doc) const { return external_ids_[doc]; }

  /// Number of distinct terms in the collection.
  size_t vocabulary_size() const {
    return serving_only_ ? term_irf_.size() : term_postings_.size();
  }

 private:
  struct TermPosting {
    DocId doc;
    uint32_t tf;
  };
  struct EntityPosting {
    DocId doc;
    uint32_t ef;
    double dscore;
  };

  /// Transparent hash/eq so the statistic lookups (`ResourceFrequency`,
  /// `Irf`, `TermFrequency`) resolve `string_view` terms without
  /// materializing a temporary `std::string`.
  using TermPostingMap =
      std::unordered_map<std::string, std::vector<TermPosting>,
                         TransparentStringHash, std::equal_to<>>;
  using EntityPostingMap =
      std::unordered_map<entity::EntityId, std::vector<EntityPosting>>;

  /// log(1 + N / rf) over the current collection; 0 when `rf` is 0. The
  /// shared core of `Irf`/`Eirf`, also used by `Search` to derive the
  /// statistic from an already-found posting list instead of re-hashing
  /// the term, and by `Freeze` to precompute the per-term/per-entity
  /// statistics (same code, same inputs — bit-identical values).
  double InverseFrequency(size_t rf) const;

  /// Builds the postings of one document into `terms_out`/`entities_out`
  /// (which may be the index's own maps or a shard's).
  static void AppendDoc(DocId id, const std::vector<std::string>& terms,
                        const std::vector<DocEntity>& entities,
                        TermPostingMap* terms_out,
                        EntityPostingMap* entities_out);

  /// Recomputes the block-max metadata (and the derived per-segment maxima
  /// and block offset tables) from the frozen arenas. O(postings).
  void BuildBlockMax();

  /// Adopts externally supplied block maxima (a deserialized snapshot
  /// section) when they structurally match the arenas — same block size,
  /// same derived block counts — and derives the per-segment tables.
  /// Returns false (leaving the index without block metadata) on any
  /// mismatch; the caller then falls back to `BuildBlockMax`.
  bool AdoptBlockMax(uint32_t block_size,
                     std::vector<uint32_t> term_block_max_tf,
                     std::vector<double> entity_block_max);

  /// Derives `term_block_offsets_` / `entity_block_offsets_` and the
  /// per-segment maxima from the block-max arrays. Shared tail of
  /// `BuildBlockMax` / `AdoptBlockMax`.
  void DeriveBlockTables();

  std::vector<uint64_t> external_ids_;
  TermPostingMap term_postings_;
  EntityPostingMap entity_postings_;

  // Frozen serving form (valid iff `frozen_`). Term postings become one
  // flat doc/tf pair of arrays indexed by `term_offsets_[id] ..
  // term_offsets_[id + 1]`; entity postings likewise, with the Eq. 2
  // weight `we = 1 + dScore` precomputed per posting and zero-weight
  // postings pruned (they contribute exactly +0.0 to a non-negative
  // accumulator, so dropping them cannot change any score bit).
  bool frozen_ = false;
  /// Set by `FromFrozen`: the mutable posting maps are empty and every
  /// read path must answer from the frozen arrays alone.
  bool serving_only_ = false;
  std::unordered_map<std::string, TermId, TransparentStringHash,
                     std::equal_to<>>
      term_dict_;
  /// Precomputed log(1 + N / rf) per TermId. The scorer squares it in the
  /// legacy association order (see DESIGN.md §10): storing irf² outright
  /// would reassociate `α·qtf·irf·irf` into `α·qtf·(irf·irf)` and drift
  /// from the legacy path by an ulp.
  std::vector<double> term_irf_;
  std::vector<size_t> term_offsets_;
  // Posting arenas in 64-byte-aligned storage (see `PostingVec`); the
  // scoring kernels read them through raw pointers.
  PostingVec<DocId> term_post_doc_;
  PostingVec<uint32_t> term_post_tf_;
  std::unordered_map<entity::EntityId, uint32_t> entity_slot_;
  std::vector<double> entity_eirf_;
  /// Unpruned posting-list length per slot. `eirf` is a function of it,
  /// but serving-only indexes must also answer `EntityResourceFrequency`
  /// exactly, and the pruned arena segment below under-counts.
  std::vector<uint32_t> entity_rf_;
  std::vector<size_t> entity_offsets_;
  PostingVec<DocId> entity_post_doc_;
  PostingVec<uint32_t> entity_post_ef_;
  PostingVec<double> entity_post_we_;
  /// Zero-weight entity membership pruned from the arena above: per slot,
  /// the doc ids whose posting had Eq. 2 weight exactly 0 (staircase of
  /// size slots + 1, valid iff `frozen_`). Scoring never touches these;
  /// they exist so full membership — the statistic `entity_rf_` counts —
  /// survives into the frozen form for the incremental-indexing layer.
  std::vector<size_t> entity_zero_offsets_;
  std::vector<DocId> entity_zero_doc_;

  // Block-max metadata over the arenas above (valid iff `frozen_`; rebuilt
  // by `Freeze`, adopted or rebuilt by `FromFrozen`, recomputed per shard
  // by `PartitionFrozen`). The per-block maxima are the persisted part;
  // the offset tables and per-segment maxima are derived (DESIGN.md §14).
  /// Max `tf` per posting block, indexed `term_block_offsets_[t] + b`.
  std::vector<uint32_t> term_block_max_tf_;
  /// First block index per term, `term_offsets_`-style staircase (size
  /// vocab + 1).
  std::vector<size_t> term_block_offsets_;
  /// Max `tf` over a term's whole segment (its α=1 component bound per
  /// unit weight).
  std::vector<uint32_t> term_max_tf_;
  /// Max `fl(ef·we)` per entity posting block — the product as the scorer
  /// actually rounds it, so the bound dominates after one slack factor.
  std::vector<double> entity_block_max_;
  std::vector<size_t> entity_block_offsets_;
  /// Max `fl(ef·we)` over an entity's whole segment (α=0 component bound
  /// per unit weight).
  std::vector<double> entity_max_score_;
};

}  // namespace crowdex::index

#endif  // CROWDEX_INDEX_SEARCH_INDEX_H_
