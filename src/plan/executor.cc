#include "plan/executor.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "index/delta.h"

namespace crowdex::plan {

namespace {

/// Projects the Score node's leaf sequence into the group vectors the
/// index APIs consume — strictly in leaf order (the order contract).
void GatherGroups(const PlanNode& score,
                  std::vector<index::QueryTermGroup>* terms,
                  std::vector<index::QueryEntityGroup>* entities) {
  for (const PlanNode& leaf : score.children) {
    if (leaf.kind == PlanNodeKind::kTermLeaf) {
      terms->push_back({leaf.term, leaf.qtf});
    } else if (leaf.kind == PlanNodeKind::kEntityLeaf) {
      entities->push_back({leaf.entity, leaf.qef});
    }
  }
}

/// Resolves the compiled form of `score` through the plan cache when one
/// is attached, recording the traffic in `out`.
std::shared_ptr<const index::CompiledQuery> CompiledForScore(
    const PlanNode& score, const ExecContext& ctx, RetrievalOutcome* out) {
  std::vector<index::QueryTermGroup> terms;
  std::vector<index::QueryEntityGroup> entities;
  if (ctx.cache != nullptr) {
    // Canonicalization normally ran as a pass; an unstamped node (a plan
    // executed without the pipeline) gets its key computed here so caching
    // stays correct either way.
    const std::string key = score.cache_key.empty()
                                ? CanonicalScoreKey(score)
                                : score.cache_key;
    out->cache_used = true;
    if (std::shared_ptr<const index::CompiledQuery> hit =
            ctx.cache->Lookup(key)) {
      out->cache_hit = true;
      return hit;
    }
    GatherGroups(score, &terms, &entities);
    auto compiled = std::make_shared<const index::CompiledQuery>(
        ctx.index->CompileGroups(terms, entities));
    out->cache_evictions = ctx.cache->Insert(key, compiled);
    return compiled;
  }
  GatherGroups(score, &terms, &entities);
  return std::make_shared<const index::CompiledQuery>(
      ctx.index->CompileGroups(terms, entities));
}

/// The shared scoring core: accumulate (compiled) or full-sort (legacy),
/// then select `take(eligible)` docs. `take` maps the eligible count to
/// the number of docs to keep. A positive `pruned_k` routes the compiled
/// arm through the block-max MaxScore kernel with that fixed top-k bound;
/// callers pass 0 whenever no fixed bound exists (the pruned flag is then
/// ignored — defensive, the pass never marks such plans).
template <typename TakeFn>
RetrievalOutcome ExecuteScore(const PlanNode& score, const ExecContext& ctx,
                              TakeFn take, size_t pruned_k = 0) {
  assert(score.kind == PlanNodeKind::kScore);
  assert(ctx.index != nullptr);
  RetrievalOutcome out;

  if (score.use_compiled) {
    std::shared_ptr<const index::CompiledQuery> compiled =
        CompiledForScore(score, ctx, &out);
    index::ScoreAccumulator local;
    index::ScoreAccumulator* acc = ctx.acc != nullptr ? ctx.acc : &local;
    if (pruned_k > 0) {
      index::PruneStats ps;
      const index::RetrievalStats rs = ctx.index->AccumulatePrunedTopK(
          *compiled, score.alpha, ctx.eligible, pruned_k, acc, &ps);
      out.matched = rs.matched;
      out.eligible = rs.eligible;
      out.blocks_skipped = ps.blocks_skipped;
      out.blocks_scored = ps.blocks_scored;
      out.docs_skipped = ps.docs_skipped;
      out.kernel_runs = rs.kernel_runs;
      out.kernel_prefetches = rs.kernel_prefetches;
      // The heap holds at most pruned_k docs, and exactly
      // min(pruned_k, eligible) — the kernel never skips before the heap
      // is full — so this TakeTop returns the same bytes as the unpruned
      // `TakeTop(take(rs.eligible))`: fixed-size specs resolve to
      // min(eligible, size) and the clamp absorbs the rest.
      acc->TakeTop(pruned_k, &out.windowed);
      return out;
    }
    const index::RetrievalStats rs = ctx.index->AccumulateCompiled(
        *compiled, score.alpha, ctx.eligible, acc);
    out.matched = rs.matched;
    out.eligible = rs.eligible;
    out.kernel_runs = rs.kernel_runs;
    out.kernel_prefetches = rs.kernel_prefetches;
    acc->TakeTop(take(rs.eligible), &out.windowed);
    return out;
  }

  // Legacy arm (retained for equivalence testing and before/after
  // benchmarking): full-sort retrieval, then the eligibility filter, then
  // the window — the exact sequence of the pre-plan legacy path.
  std::vector<index::QueryTermGroup> terms;
  std::vector<index::QueryEntityGroup> entities;
  GatherGroups(score, &terms, &entities);
  std::vector<index::ScoredDoc> matches =
      ctx.index->SearchGroups(terms, entities, score.alpha);
  out.matched = matches.size();
  if (ctx.eligible != nullptr) {
    std::vector<index::ScoredDoc> filtered;
    filtered.reserve(matches.size());
    for (const index::ScoredDoc& doc : matches) {
      if (ctx.eligible[doc.doc] != 0) filtered.push_back(doc);
    }
    matches = std::move(filtered);
  }
  out.eligible = matches.size();
  matches.resize(take(matches.size()));
  out.windowed = std::move(matches);
  return out;
}

/// The live-delta arm: scores the leaf groups over [frozen base + delta
/// runs] with live statistics through the kernels
/// (`DeltaState::Accumulate`), then `TakeTop`s the resolved window — one
/// path for single-index and fragment serving, whatever the Score node's
/// arm flags say. Block-max bounds describe the frozen arenas at frozen
/// weights, so a pruned Score runs exhaustively here (`prune_declined`).
/// The plan cache is bypassed: its compiled forms are base-only. The
/// caller holds the delta's shared lock, and `ctx.eligible` — when
/// present — covers the combined [base + delta] id space and is 0 on
/// tombstoned docs.
template <typename TakeFn>
RetrievalOutcome ExecuteLive(const PlanNode& score, const ExecContext& ctx,
                             TakeFn take) {
  assert(score.kind == PlanNodeKind::kScore);
  assert(ctx.delta != nullptr);
  RetrievalOutcome out;
  std::vector<index::QueryTermGroup> terms;
  std::vector<index::QueryEntityGroup> entities;
  GatherGroups(score, &terms, &entities);
  index::ScoreAccumulator local;
  index::ScoreAccumulator* acc = ctx.acc != nullptr ? ctx.acc : &local;
  const index::RetrievalStats rs = ctx.delta->Accumulate(
      terms, entities, score.alpha, ctx.eligible, acc);
  out.matched = rs.matched;
  out.eligible = rs.eligible;
  out.kernel_runs = rs.kernel_runs;
  out.kernel_prefetches = rs.kernel_prefetches;
  out.delta_read = true;
  out.delta_postings = rs.delta_postings;
  out.prune_declined = score.pruned;
  acc->TakeTop(take(rs.eligible), &out.windowed);
  return out;
}

}  // namespace

RetrievalOutcome ExecuteRetrieval(const PlanNode& retrieval,
                                  const ExecContext& ctx) {
  // Accept both post-pushdown (bare Score with pushed_window) and
  // pre-pushdown (Window → Score) shapes, either with a DeltaFanIn stage
  // directly above the Score; they resolve the same window.
  const PlanNode* score = &retrieval;
  const WindowSpec* window = nullptr;
  if (score->kind == PlanNodeKind::kWindow) {
    assert(score->children.size() == 1);
    window = &score->window;
    score = &score->children[0];
  }
  bool live = false;
  if (score->kind == PlanNodeKind::kDeltaFanIn) {
    // With no delta attached the stage degrades to base-only scoring —
    // same bytes, since an absent delta means no mutations.
    assert(score->children.size() == 1);
    live = ctx.delta != nullptr;
    score = &score->children[0];
  }
  assert(score->kind == PlanNodeKind::kScore);
  if (window == nullptr && score->pushed_window.has_value()) {
    window = &*score->pushed_window;
  }
  const auto take = [window](size_t eligible) {
    return window != nullptr ? ResolveWindowSpec(eligible, *window) : eligible;
  };
  if (live) return ExecuteLive(*score, ctx, take);
  // Pruned execution needs a fixed top-k known before scoring; fraction
  // windows resolve against the eligible total, so they stay exhaustive.
  const size_t pruned_k =
      (score->pruned && window != nullptr && window->size > 0)
          ? static_cast<size_t>(window->size)
          : 0;
  return ExecuteScore(*score, ctx, take, pruned_k);
}

RetrievalOutcome ExecuteFragment(const PlanNode& score, size_t limit,
                                 const ExecContext& ctx) {
  // `limit` bounds this shard's prefix; the router resolves the global
  // window over the cross-shard eligible total, and the fanout pass set
  // the limit wide enough that truncation here can never cut a doc the
  // merged window would keep.
  const auto take = [limit](size_t eligible) {
    return limit == 0 ? eligible : std::min(limit, eligible);
  };
  // Sharded plans carry no DeltaFanIn node (the router's pipeline has no
  // delta), so fragments check the delta directly: an active delta scores
  // this shard through the live arm with the coordinator-installed global
  // statistics.
  if (ctx.delta != nullptr && ctx.delta->active()) {
    return ExecuteLive(score, ctx, take);
  }
  const size_t pruned_k = (score.pruned && limit > 0) ? limit : 0;
  return ExecuteScore(score, ctx, take, pruned_k);
}

}  // namespace crowdex::plan
