#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "ops/operator.h"
#include "runtime/sharded_fabricator.h"

/// \file cost.h
/// \brief Operator cost model — the paper's "Query optimization" extension
/// (Section VI): "We should define the cost of processing a single query,
/// and prepare an execution topology that minimizes this cost."
///
/// Costs are abstract units per tuple evaluation, differentiated by
/// operator kind (an F evaluation runs estimation work; a T evaluation is
/// one coin toss). The report prices an entire runtime topology (shard
/// fabricators plus router merge stages) from its observed per-operator
/// evaluation counters, enabling apples-to-apples comparison of
/// alternative topologies (e.g. shared vs naive).

namespace craqr {
namespace engine {

/// \brief Per-evaluation cost of each operator kind (abstract units).
struct OperatorCosts {
  double flatten = 8.0;      ///< estimation + retaining-probability work
  double thin = 1.0;         ///< one Bernoulli draw
  double partition = 1.5;    ///< region lookups
  /// Pass-through with region check. Also prices the merge stage's
  /// Reorder buffer, which holds a step's merged tuples and re-emits them
  /// sorted: part of the same merge, not a separate kind of work.
  double union_merge = 0.5;
  double superpose = 0.5;
  double filter = 1.0;
  double map = 1.0;
  double monitor = 0.5;
  double sink = 0.5;
  double pass_through = 0.25;

  /// Cost for one evaluation of an operator of `kind`.
  double CostOf(ops::OperatorKind kind) const;
};

/// \brief Priced summary of a topology.
struct TopologyCostReport {
  /// Sum over operators of evaluations * per-kind cost.
  double total_cost = 0.0;
  /// Total operator evaluations.
  std::uint64_t evaluations = 0;
  /// Number of operators.
  std::size_t operators = 0;
  /// Evaluations per operator kind (keyed by the kind's block label).
  std::map<std::string, std::uint64_t> evaluations_by_kind;

  /// One-line rendering.
  std::string ToString() const;
};

/// \brief Prices every operator in a runtime from its observed
/// evaluation counters.
TopologyCostReport EstimateCost(const runtime::ShardedFabricator& runtime,
                                const OperatorCosts& costs = OperatorCosts());

}  // namespace engine
}  // namespace craqr
