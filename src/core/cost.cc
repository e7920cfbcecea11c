#include "core/cost.h"

#include <sstream>

namespace craqr {
namespace engine {

double OperatorCosts::CostOf(ops::OperatorKind kind) const {
  switch (kind) {
    case ops::OperatorKind::kFlatten:
      return flatten;
    case ops::OperatorKind::kThin:
      return thin;
    case ops::OperatorKind::kPartition:
      return partition;
    case ops::OperatorKind::kUnion:
      return union_merge;
    case ops::OperatorKind::kSuperpose:
      return superpose;
    case ops::OperatorKind::kFilter:
      return filter;
    case ops::OperatorKind::kMap:
      return map;
    case ops::OperatorKind::kRateMonitor:
      return monitor;
    case ops::OperatorKind::kSink:
      return sink;
    case ops::OperatorKind::kPassThrough:
      return pass_through;
    case ops::OperatorKind::kReorder:
      return union_merge;
  }
  return 1.0;  // not an OperatorKind
}

std::string TopologyCostReport::ToString() const {
  std::ostringstream os;
  os << "cost=" << total_cost << " evaluations=" << evaluations
     << " operators=" << operators << " by_kind={";
  bool first = true;
  for (const auto& [kind, count] : evaluations_by_kind) {
    os << (first ? "" : ", ") << kind << ":" << count;
    first = false;
  }
  os << "}";
  return os.str();
}

TopologyCostReport EstimateCost(const runtime::ShardedFabricator& runtime,
                                const OperatorCosts& costs) {
  TopologyCostReport report;
  runtime.VisitOperators([&](const ops::Operator& op) {
    const std::uint64_t evaluations = op.stats().tuples_in;
    report.total_cost +=
        static_cast<double>(evaluations) * costs.CostOf(op.kind());
    report.evaluations += evaluations;
    ++report.operators;
    report.evaluations_by_kind[ops::OperatorKindLabel(op.kind())] +=
        evaluations;
  });
  return report;
}

}  // namespace engine
}  // namespace craqr
