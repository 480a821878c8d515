#include "plan/passes.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "index/delta.h"

namespace crowdex::plan {

bool FoldConstantAlphaPass::Run(QueryPlan* plan) const {
  bool changed = false;
  PlanNode* score = FindNode(&plan->root, PlanNodeKind::kScore);
  if (score == nullptr) return false;
  if (score->alpha == 0.0 && !score->terms_folded_out) {
    score->terms_folded_out = true;
    changed = true;
  }
  if (score->alpha == 1.0 && !score->entities_folded_out) {
    score->entities_folded_out = true;
    changed = true;
  }
  return changed;
}

bool PruneZeroWeightLeavesPass::Run(QueryPlan* plan) const {
  PlanNode* score = FindNode(&plan->root, PlanNodeKind::kScore);
  if (score == nullptr) return false;
  const bool drop_terms = score->terms_folded_out;
  const bool drop_entities = score->entities_folded_out;
  const size_t before = score->children.size();
  score->children.erase(
      std::remove_if(score->children.begin(), score->children.end(),
                     [&](const PlanNode& leaf) {
                       if (leaf.kind == PlanNodeKind::kTermLeaf) {
                         return drop_terms || leaf.qtf == 0;
                       }
                       if (leaf.kind == PlanNodeKind::kEntityLeaf) {
                         return drop_entities || leaf.qef == 0;
                       }
                       return false;
                     }),
      score->children.end());
  return score->children.size() != before;
}

bool InsertShardFanoutPass::Run(QueryPlan* plan) const {
  if (num_shards_ < 1) return false;
  PlanNode* window = FindNode(&plan->root, PlanNodeKind::kWindow);
  if (window == nullptr || window->children.size() != 1 ||
      window->children[0].kind != PlanNodeKind::kScore) {
    return false;
  }

  PlanNode fanout;
  fanout.kind = PlanNodeKind::kShardFanout;
  fanout.num_shards = num_shards_;
  // A fixed window bounds every shard's useful prefix; fraction windows
  // need the cross-shard eligible total, so shards return everything.
  fanout.per_shard_limit =
      window->window.size > 0 ? static_cast<size_t>(window->window.size) : 0;
  fanout.children.push_back(std::move(window->children[0]));

  PlanNode merge;
  merge.kind = PlanNodeKind::kMerge;
  merge.children.push_back(std::move(fanout));

  window->children[0] = std::move(merge);
  return true;
}

namespace {

/// The node whose direct child is the first Score below `node` (pre-order);
/// null when no Score sits below it.
PlanNode* ParentOfScore(PlanNode* node) {
  for (PlanNode& child : node->children) {
    if (child.kind == PlanNodeKind::kScore) return node;
    if (PlanNode* parent = ParentOfScore(&child)) return parent;
  }
  return nullptr;
}

}  // namespace

bool DeltaFanInPass::Run(QueryPlan* plan) const {
  // Only the lock-free active flag is consulted at plan time; the executor
  // keys off the node's presence, not a re-read of the flag, so a
  // concurrent first-apply or compaction between planning and execution
  // still serves a consistent state (the live arm over an empty delta is
  // base-only scoring, bit for bit).
  if (delta_ == nullptr || !delta_->active()) return false;
  PlanNode* parent = ParentOfScore(&plan->root);
  if (parent == nullptr || parent->kind == PlanNodeKind::kDeltaFanIn) {
    return false;
  }
  for (PlanNode& child : parent->children) {
    if (child.kind != PlanNodeKind::kScore) continue;
    PlanNode fanin;
    fanin.kind = PlanNodeKind::kDeltaFanIn;
    fanin.children.push_back(std::move(child));
    child = std::move(fanin);
    break;
  }
  return true;
}

bool PushWindowIntoTakeTopPass::Run(QueryPlan* plan) const {
  PlanNode* window = FindNode(&plan->root, PlanNodeKind::kWindow);
  if (window == nullptr || window->children.size() != 1 ||
      window->children[0].kind != PlanNodeKind::kScore) {
    return false;
  }
  PlanNode score = std::move(window->children[0]);
  score.pushed_window = window->window;
  *window = std::move(score);
  return true;
}

bool PruneBlockMaxPass::Run(QueryPlan* plan) const {
  if (!enabled_) return false;
  PlanNode* score = nullptr;
  PlanNode* fanout = FindNode(&plan->root, PlanNodeKind::kShardFanout);
  if (fanout != nullptr) {
    // Sharded plan: each shard's fixed per-shard prefix is the top-k bound.
    // An unlimited fanout (fraction / no window) has no fixed k — no-op.
    if (fanout->per_shard_limit == 0 || fanout->children.size() != 1 ||
        fanout->children[0].kind != PlanNodeKind::kScore) {
      return false;
    }
    score = &fanout->children[0];
  } else {
    // Single-index plan: window pushdown hoisted the Score in place of the
    // Window, so a fixed `pushed_window` is the top-k bound. Fraction
    // windows resolve against the eligible total, which pruning would
    // under-count — no-op.
    score = FindNode(&plan->root, PlanNodeKind::kScore);
    if (score == nullptr || !score->pushed_window.has_value() ||
        score->pushed_window->size <= 0) {
      return false;
    }
  }
  // The pruned kernel walks the frozen block-max arenas; the legacy
  // hash-map arm has neither blocks nor bounds.
  if (!score->use_compiled || score->pruned) return false;
  score->pruned = true;
  return true;
}

bool CanonicalizeCacheKeyPass::Run(QueryPlan* plan) const {
  PlanNode* score = FindNode(&plan->root, PlanNodeKind::kScore);
  if (score == nullptr) return false;
  std::string key = CanonicalScoreKey(*score);
  if (key == score->cache_key) return false;
  score->cache_key = std::move(key);
  return true;
}

PassManager PassManager::ServingPipeline(const PipelineOptions& options) {
  PassManager pm;
  pm.Add(std::make_unique<FoldConstantAlphaPass>());
  pm.Add(std::make_unique<PruneZeroWeightLeavesPass>());
  if (options.sharded) {
    pm.Add(std::make_unique<InsertShardFanoutPass>(options.num_shards));
  }
  pm.Add(std::make_unique<PushWindowIntoTakeTopPass>());
  pm.Add(std::make_unique<PruneBlockMaxPass>(options.blockmax));
  if (options.delta != nullptr) {
    pm.Add(std::make_unique<DeltaFanInPass>(options.delta));
  }
  pm.Add(std::make_unique<CanonicalizeCacheKeyPass>());
  return pm;
}

void PassManager::Add(std::unique_ptr<Pass> pass) {
  Stage stage;
  stage.pass = std::move(pass);
  stages_.push_back(std::move(stage));
}

void PassManager::AttachMetrics(obs::MetricsRegistry* metrics) {
  for (Stage& stage : stages_) {
    if (metrics == nullptr) {
      stage.latency = nullptr;
      stage.applied = nullptr;
      continue;
    }
    std::string base = "plan.pass.";
    base += stage.pass->name();
    stage.latency = metrics->histogram(base + ".ms");
    stage.applied = metrics->counter(base + ".applied");
  }
}

bool PassManager::Run(QueryPlan* plan, std::vector<PassTrace>* trace) const {
  bool any = false;
  for (const Stage& stage : stages_) {
    bool changed;
    if (stage.latency != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      changed = stage.pass->Run(plan);
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      stage.latency->Record(elapsed.count());
    } else {
      changed = stage.pass->Run(plan);
    }
    if (changed && stage.applied != nullptr) stage.applied->Increment();
    if (trace != nullptr) trace->push_back({stage.pass->name(), changed});
    any = any || changed;
  }
  return any;
}

}  // namespace crowdex::plan
