#include "query/eval_plan.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace stardust {

bool EvalPlan::Holds(QueryId id) const {
  const auto is = [id](const std::shared_ptr<RegisteredQuery>& q) {
    return q->id == id;
  };
  const auto any = [&is](const auto& groups) {
    return std::any_of(groups.begin(), groups.end(), [&is](const auto& g) {
      return std::any_of(g.queries.begin(), g.queries.end(), is);
    });
  };
  return any(aggregate) || any(correlation) || any(sketch) ||
         std::any_of(pattern.begin(), pattern.end(),
                     [&is](const PatternEntry& e) { return is(e.query); });
}

std::shared_ptr<const EvalPlan> CompileEvalPlan(
    const QueryRegistry::Snapshot& snapshot, std::uint64_t version,
    const PlanContext& ctx) {
  SD_CHECK(ctx.fleet != nullptr);
  auto plan = std::make_shared<EvalPlan>();
  plan->version = version;

  // --- Aggregate: group by window, ascending -------------------------
  std::vector<std::shared_ptr<RegisteredQuery>> aggregate =
      snapshot.aggregate;
  std::stable_sort(aggregate.begin(), aggregate.end(),
                   [](const std::shared_ptr<RegisteredQuery>& a,
                      const std::shared_ptr<RegisteredQuery>& b) {
                     return a->spec.window < b->spec.window;
                   });
  for (const auto& q : aggregate) {
    if (plan->aggregate.empty() ||
        plan->aggregate.back().window != q->spec.window) {
      EvalPlan::AggregateGroup group;
      group.window = q->spec.window;
      // Algorithm 2's verification reads the raw subsequence; a window
      // wider than the retained history can never be verified, so the
      // seed path never alarmed on it and neither does the plan.
      group.evaluable = q->spec.window <= ctx.fleet->history;
      plan->aggregate.push_back(std::move(group));
    }
    plan->aggregate.back().queries.push_back(q);
  }
  for (EvalPlan::AggregateGroup& group : plan->aggregate) {
    if (!group.evaluable) continue;
    group.tracker_index = plan->aggregate_windows.size();
    plan->aggregate_windows.push_back(group.window);
  }

  // --- Pattern: precompile each query once ---------------------------
  for (const auto& q : snapshot.pattern) {
    EvalPlan::PatternEntry entry;
    entry.query = q;
    if (ctx.pattern != nullptr) {
      Result<CompiledPatternQuery> compiled =
          CompilePatternQuery(*ctx.pattern, q->spec.pattern, q->spec.radius);
      if (compiled.ok()) {
        entry.compiled = std::move(compiled.value());
        entry.ok = true;
      }
    }
    plan->pattern.push_back(std::move(entry));
  }

  // --- Correlation: group by resolved level, ascending ---------------
  if (ctx.correlation != nullptr) {
    std::vector<std::shared_ptr<RegisteredQuery>> correlation =
        snapshot.correlation;
    const std::size_t top = ctx.correlation->num_levels - 1;
    auto resolved = [top](const std::shared_ptr<RegisteredQuery>& q) {
      return q->spec.level == kTopLevel ? top : q->spec.level;
    };
    std::stable_sort(correlation.begin(), correlation.end(),
                     [&](const std::shared_ptr<RegisteredQuery>& a,
                         const std::shared_ptr<RegisteredQuery>& b) {
                       return resolved(a) < resolved(b);
                     });
    for (const auto& q : correlation) {
      const std::size_t level = resolved(q);
      if (level >= ctx.correlation->num_levels) continue;  // stale spec
      if (plan->correlation.empty() ||
          plan->correlation.back().level != level) {
        EvalPlan::CorrelationGroup group;
        group.level = level;
        group.window = ctx.correlation->LevelWindow(level);
        plan->correlation.push_back(std::move(group));
      }
      // Radii are validated non-negative, so the 0 a group starts from
      // never exceeds its largest radius.
      EvalPlan::CorrelationGroup& group = plan->correlation.back();
      group.max_radius = std::max(group.max_radius, q->spec.radius);
      group.queries.push_back(q);
    }
  }

  // --- Sketch: group by config equality ------------------------------
  for (const auto& q : snapshot.sketch) {
    std::size_t slot = plan->sketch.size();
    for (std::size_t i = 0; i < plan->sketch.size(); ++i) {
      if (plan->sketch[i].config == q->spec.sketch) {
        slot = i;
        break;
      }
    }
    if (slot == plan->sketch.size()) {
      EvalPlan::SketchGroup group;
      group.config = q->spec.sketch;
      group.slot = slot;
      plan->sketch.push_back(std::move(group));
      plan->sketch_slots.push_back(q->spec.sketch);
    }
    plan->sketch[slot].queries.push_back(q);
  }

  return plan;
}

}  // namespace stardust
