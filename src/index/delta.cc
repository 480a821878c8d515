#include "index/delta.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "index/kernels/kernels.h"

namespace crowdex::index {

DeltaState::DeltaState(const SearchIndex* base) { ResetForNewBase(base); }

void DeltaState::ResetForNewBase(const SearchIndex* base) {
  if (base == nullptr || !base->frozen()) {
    CheckOk(Status::FailedPrecondition(
                "DeltaState: base index must be frozen"),
            "DeltaState::ResetForNewBase");
  }
  view_ = base->ExportFrozen();
  base_docs_ = view_.external_ids->size();

  term_slot_.clear();
  term_slot_.reserve(view_.terms.size());
  for (uint32_t t = 0; t < view_.terms.size(); ++t) {
    term_slot_.emplace(std::string(view_.terms[t]), t);
  }
  entity_slot_.clear();
  entity_slot_.reserve(view_.entities.size());
  for (uint32_t s = 0; s < view_.entities.size(); ++s) {
    entity_slot_.emplace(view_.entities[s], s);
  }

  // Invert the frozen arenas into per-document forward postings, the
  // decrement source for removals of base documents (and the term/entity
  // content `ReconstructLiveDocs` rebuilds from).
  base_terms_.assign(base_docs_, {});
  for (uint32_t t = 0; t < view_.terms.size(); ++t) {
    for (size_t i = (*view_.term_offsets)[t]; i < (*view_.term_offsets)[t + 1];
         ++i) {
      base_terms_[(*view_.term_post_doc)[i]].push_back(
          {t, (*view_.term_post_tf)[i]});
    }
  }
  base_entities_.assign(base_docs_, {});
  for (uint32_t s = 0; s < view_.entities.size(); ++s) {
    const entity::EntityId eid = view_.entities[s];
    for (size_t i = (*view_.entity_offsets)[s];
         i < (*view_.entity_offsets)[s + 1]; ++i) {
      // The arena stores `we = 1 + dScore`. For `we ∈ [1, 2)` the
      // subtraction below is exact (Sterbenz) and `1 + (we - 1)` rounds
      // back to the identical `we`; a `we` of exactly 1.0 came from a tiny
      // positive dScore that vanished in the rounding of `1 + dScore`, so
      // any positive stand-in reproduces it — the smallest positive double
      // keeps the posting on the positive branch of Eq. 2 (it must survive
      // a refreeze's zero-weight pruning, since the original did).
      double dscore = (*view_.entity_post_we)[i] - 1.0;
      if (dscore == 0.0) dscore = std::numeric_limits<double>::denorm_min();
      base_entities_[(*view_.entity_post_doc)[i]].push_back(
          {eid, (*view_.entity_post_ef)[i], dscore});
    }
    // Pruned zero-weight postings (the base's zero lists): membership with
    // an Eq. 2 weight of exactly 0. Reconstructing them as `ef = 1,
    // dScore = 0` is output-identical — they contribute `+0.0` in the
    // legacy scorer, are pruned again by `Freeze`, and count toward the
    // entity rf either way.
    if (view_.entity_zero_offsets != nullptr &&
        !view_.entity_zero_offsets->empty()) {
      for (size_t i = (*view_.entity_zero_offsets)[s];
           i < (*view_.entity_zero_offsets)[s + 1]; ++i) {
        base_entities_[(*view_.entity_zero_doc)[i]].push_back({eid, 1, 0.0});
      }
    }
  }

  live_.clear();
  live_.reserve(base_docs_);
  for (DocId d = 0; d < base_docs_; ++d) {
    live_.emplace((*view_.external_ids)[d], d);
  }

  delta_docs_.clear();
  delta_doc_terms_.clear();
  delta_doc_entities_.clear();
  term_runs_.clear();
  entity_runs_.clear();
  ext_ids_.assign(view_.external_ids->begin(), view_.external_ids->end());
  live_mask_.assign(base_docs_, 1);
  tombstones_.clear();
  term_rf_delta_.clear();
  entity_rf_delta_.clear();
  live_docs_delta_ = 0;
  stats_.reset();
  active_.store(false, std::memory_order_release);
}

void DeltaState::RemoveDocLocked(DocId doc) {
  live_mask_[doc] = 0;
  tombstones_.push_back(doc);
  --live_docs_delta_;
  auto bump_term = [this](std::string_view term, int64_t by) {
    auto it = term_rf_delta_.find(term);
    if (it != term_rf_delta_.end()) {
      it->second += by;
    } else {
      term_rf_delta_.emplace(std::string(term), by);
    }
  };
  if (doc < base_docs_) {
    for (const BaseTermRef& r : base_terms_[doc]) {
      bump_term(view_.terms[r.slot], -1);
    }
    for (const DocEntity& e : base_entities_[doc]) {
      --entity_rf_delta_[e.entity];
    }
  } else {
    const size_t di = doc - base_docs_;
    for (const auto& [term, count] : delta_doc_terms_[di]) {
      (void)count;
      bump_term(term, -1);
    }
    for (const DocEntity& e : delta_doc_entities_[di]) {
      --entity_rf_delta_[e.entity];
    }
  }
}

Status DeltaState::Upsert(const IndexableDocument& doc) {
  auto it = live_.find(doc.external_id);
  if (it != live_.end()) {
    // Replacing a live document is remove + re-add: exactly the sequence a
    // from-scratch rebuild models, so the replacement lands at the end of
    // the id order like any other fresh document.
    RemoveDocLocked(it->second);
    live_.erase(it);
  }

  const DocId id = static_cast<DocId>(base_docs_ + delta_docs_.size());

  // Aggregate the document exactly like `SearchIndex::AppendDoc` so the
  // delta postings are the postings a rebuild would hold for it.
  std::unordered_map<std::string, uint32_t> tf;
  for (const auto& term : doc.terms) ++tf[term];
  std::vector<std::pair<std::string, uint32_t>> dterms;
  dterms.reserve(tf.size());
  for (const auto& [term, count] : tf) {
    DeltaTermRun& run = term_runs_[term];
    run.docs.push_back(id);
    run.tf.push_back(count);
    ++term_rf_delta_[term];
    dterms.emplace_back(term, count);
  }

  std::unordered_map<entity::EntityId, DocEntity> merged;
  for (const DocEntity& e : doc.entities) {
    if (e.entity == entity::kInvalidEntityId) continue;
    DocEntity& slot = merged[e.entity];
    slot.entity = e.entity;
    slot.frequency += e.frequency;
    slot.dscore = std::max(slot.dscore, e.dscore);
  }
  std::vector<DocEntity> dents;
  dents.reserve(merged.size());
  for (const auto& [eid, e] : merged) {
    (void)eid;
    DeltaEntityRun& run = entity_runs_[e.entity];
    run.docs.push_back(id);
    run.ef.push_back(e.frequency);
    // Eq. 2, exactly as `Freeze` computes the arena weight.
    run.we.push_back(e.dscore > 0.0 ? 1.0 + e.dscore : 0.0);
    ++entity_rf_delta_[e.entity];
    dents.push_back(e);
  }

  delta_docs_.push_back(doc);
  delta_doc_terms_.push_back(std::move(dterms));
  delta_doc_entities_.push_back(std::move(dents));
  ext_ids_.push_back(doc.external_id);
  live_mask_.push_back(1);
  live_.emplace(doc.external_id, id);
  ++live_docs_delta_;
  active_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status DeltaState::Remove(uint64_t external_id) {
  auto it = live_.find(external_id);
  if (it == live_.end()) {
    return Status::NotFound("DeltaState::Remove: no live document with "
                            "external id " +
                            std::to_string(external_id));
  }
  RemoveDocLocked(it->second);
  live_.erase(it);
  active_.store(true, std::memory_order_release);
  return Status::Ok();
}

uint32_t DeltaState::LiveTermRf(std::string_view term) const {
  if (stats_ != nullptr) {
    auto it = stats_->term_rf.find(term);
    if (it != stats_->term_rf.end()) return it->second;
    if (stats_->term_base_rf != nullptr) {
      auto bit = stats_->term_base_rf->find(term);
      return bit == stats_->term_base_rf->end() ? 0 : bit->second;
    }
    return LocalBaseTermRf(term);
  }
  int64_t rf = LocalBaseTermRf(term);
  auto dit = term_rf_delta_.find(term);
  if (dit != term_rf_delta_.end()) rf += dit->second;
  return rf < 0 ? 0 : static_cast<uint32_t>(rf);
}

uint32_t DeltaState::LiveEntityRf(entity::EntityId entity) const {
  if (stats_ != nullptr) {
    auto it = stats_->entity_rf.find(entity);
    if (it != stats_->entity_rf.end()) return it->second;
    // `entity_rf` in the frozen base is the GLOBAL statistic even on
    // shards (`PartitionFrozen` copies it), so no global fallback table is
    // needed on the entity side.
    return LocalBaseEntityRf(entity);
  }
  int64_t rf = LocalBaseEntityRf(entity);
  auto dit = entity_rf_delta_.find(entity);
  if (dit != entity_rf_delta_.end()) rf += dit->second;
  return rf < 0 ? 0 : static_cast<uint32_t>(rf);
}

uint64_t DeltaState::LiveDocCount() const {
  if (stats_ != nullptr) return stats_->live_docs;
  return static_cast<uint64_t>(live_docs());
}

const DeltaTermRun* DeltaState::TermRun(std::string_view term) const {
  auto it = term_runs_.find(term);
  return it == term_runs_.end() ? nullptr : &it->second;
}

const DeltaEntityRun* DeltaState::EntityRun(entity::EntityId entity) const {
  auto it = entity_runs_.find(entity);
  return it == entity_runs_.end() ? nullptr : &it->second;
}

uint32_t DeltaState::LocalBaseTermRf(std::string_view term) const {
  auto it = term_slot_.find(term);
  if (it == term_slot_.end()) return 0;
  return static_cast<uint32_t>((*view_.term_offsets)[it->second + 1] -
                               (*view_.term_offsets)[it->second]);
}

uint32_t DeltaState::LocalBaseEntityRf(entity::EntityId entity) const {
  auto it = entity_slot_.find(entity);
  return it == entity_slot_.end() ? 0 : (*view_.entity_rf)[it->second];
}

int64_t DeltaState::BaseTermSlot(std::string_view term) const {
  auto it = term_slot_.find(term);
  return it == term_slot_.end() ? -1 : static_cast<int64_t>(it->second);
}

int64_t DeltaState::BaseEntitySlot(entity::EntityId entity) const {
  auto it = entity_slot_.find(entity);
  return it == entity_slot_.end() ? -1 : static_cast<int64_t>(it->second);
}

std::vector<IndexableDocument> DeltaState::ReconstructLiveDocs() const {
  std::vector<IndexableDocument> out;
  out.reserve(live_docs());
  for (DocId d = 0; d < base_docs_; ++d) {
    if (live_mask_[d] == 0) continue;
    IndexableDocument doc;
    doc.external_id = (*view_.external_ids)[d];
    for (const BaseTermRef& r : base_terms_[d]) {
      for (uint32_t i = 0; i < r.tf; ++i) {
        doc.terms.emplace_back(view_.terms[r.slot]);
      }
    }
    doc.entities = base_entities_[d];
    out.push_back(std::move(doc));
  }
  for (size_t i = 0; i < delta_docs_.size(); ++i) {
    if (live_mask_[base_docs_ + i] == 0) continue;
    out.push_back(delta_docs_[i]);
  }
  return out;
}

RetrievalStats DeltaState::Accumulate(
    const std::vector<QueryTermGroup>& terms,
    const std::vector<QueryEntityGroup>& entities, double alpha,
    const uint8_t* eligible, ScoreAccumulator* acc) const {
  assert(alpha >= 0.0 && alpha <= 1.0);
  acc->Reset(total_docs());
  const uint64_t epoch = acc->epoch_;
  double* const scores = acc->scores_.data();
  uint64_t* const stamps = acc->stamps_.data();
  DocId* const touched = acc->touched_.data();
  size_t touched_count = 0;

  // The live collection size Eq. 1's inverse frequencies divide by — what
  // `SearchIndex::size()` returns after a from-scratch rebuild — through
  // `SearchIndex::InverseFrequency`'s expression. The frozen `irf` tables
  // are stale as soon as N moves, so every weight is recomputed here.
  const uint64_t n = LiveDocCount();
  auto inverse_frequency = [n](uint64_t rf) {
    if (rf == 0) return 0.0;
    return std::log(1.0 +
                    static_cast<double>(n) / static_cast<double>(rf));
  };
  const FrozenIndexView& v = view_;
  const kernels::KernelSet& ks = kernels::Active();
  RetrievalStats stats;

  // The weights replicate the frozen path's `alpha * qw * irf * irf`
  // association (the uint32 multiplicity promotes to the same double), and
  // the kernels form the same per-posting products, so every contribution
  // is the double a rebuild's compiled pass adds.
  if (alpha > 0.0) {
    for (const QueryTermGroup& g : terms) {
      const int64_t slot = BaseTermSlot(g.term);
      const DeltaTermRun* run = TermRun(g.term);
      if (slot < 0 && run == nullptr) continue;
      const double irf = inverse_frequency(LiveTermRf(g.term));
      const double weight = alpha * g.qtf * irf * irf;
      if (slot >= 0) {
        const size_t begin = (*v.term_offsets)[static_cast<size_t>(slot)];
        const size_t end = (*v.term_offsets)[static_cast<size_t>(slot) + 1];
        stats.kernel_prefetches += ks.term_run(
            v.term_post_doc->data() + begin, v.term_post_tf->data() + begin,
            end - begin, weight, scores, stamps, epoch, touched,
            &touched_count);
        ++stats.kernel_runs;
      }
      if (run != nullptr) {
        stats.kernel_prefetches +=
            ks.term_run(run->docs.data(), run->tf.data(), run->docs.size(),
                        weight, scores, stamps, epoch, touched,
                        &touched_count);
        ++stats.kernel_runs;
        stats.delta_postings += run->docs.size();
      }
    }
  }

  if (alpha < 1.0) {
    const double anti = 1.0 - alpha;
    for (const QueryEntityGroup& g : entities) {
      const int64_t slot = BaseEntitySlot(g.entity);
      const DeltaEntityRun* run = EntityRun(g.entity);
      if (slot < 0 && run == nullptr) continue;
      const double eirf = inverse_frequency(LiveEntityRf(g.entity));
      const double weight = anti * g.qef * eirf * eirf;
      if (slot >= 0) {
        // The arena holds only positive-weight postings; the pruned ones
        // would add `+0.0`, a bitwise no-op, so skipping them changes no
        // score — the same argument `Freeze` makes.
        const size_t begin = (*v.entity_offsets)[static_cast<size_t>(slot)];
        const size_t end =
            (*v.entity_offsets)[static_cast<size_t>(slot) + 1];
        stats.kernel_prefetches += ks.entity_run(
            v.entity_post_doc->data() + begin,
            v.entity_post_ef->data() + begin,
            v.entity_post_we->data() + begin, end - begin, weight, scores,
            stamps, epoch, touched, &touched_count);
        ++stats.kernel_runs;
      }
      if (run != nullptr) {
        stats.kernel_prefetches += ks.entity_run(
            run->docs.data(), run->ef.data(), run->we.data(),
            run->docs.size(), weight, scores, stamps, epoch, touched,
            &touched_count);
        ++stats.kernel_runs;
        stats.delta_postings += run->docs.size();
      }
    }
  }

  acc->touched_count_ = touched_count;
  acc->ext_ids_ = ext_ids_.data();
  const uint8_t* filter = eligible != nullptr ? eligible : live_mask_.data();
  stats.matched =
      ks.collect(touched, touched_count, scores, filter, &acc->candidates_);
  stats.eligible = acc->candidates_.size();
  // The collect kernel counts positive scores before the filter, so a
  // retired doc this pass scored positive is counted but (filtered out)
  // never collected. A rebuild does not hold it at all.
  for (DocId d : tombstones_) {
    if (stamps[d] == epoch && scores[d] > 0.0) {
      assert(filter[d] == 0);
      --stats.matched;
    }
  }
  return stats;
}

}  // namespace crowdex::index
