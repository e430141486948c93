#ifndef MIDAS_IRES_MOO_OPTIMIZER_H_
#define MIDAS_IRES_MOO_OPTIMIZER_H_

#include <functional>
#include <span>
#include <vector>

#include "federation/federation.h"
#include "linalg/matrix.h"
#include "optimizer/best_in_pareto.h"
#include "optimizer/nsga2.h"
#include "optimizer/nsga_g.h"
#include "query/enumerator.h"

namespace midas {

/// Search strategy of the Multi-Objective Optimizer module.
enum class MoqpAlgorithm {
  /// Enumerate every physical plan, extract the exact Pareto front,
  /// choose with Algorithm 2. Tractable for the paper's 2-table queries.
  kExhaustivePareto,
  /// NSGA-II over the candidate set (for large plan spaces), then
  /// Algorithm 2 on the evolved front.
  kNsga2,
  /// NSGA-G variant of the above.
  kNsgaG,
  /// Figure 3's baseline: scalarise with the Weighted Sum Model up front
  /// and return only the argmin plan (no Pareto set).
  kWsm,
};

std::string MoqpAlgorithmName(MoqpAlgorithm algorithm);

struct MoqpOptions {
  MoqpAlgorithm algorithm = MoqpAlgorithm::kExhaustivePareto;
  EnumeratorOptions enumerator;
  Nsga2Options nsga2;
  NsgaGOptions nsga_g;
  /// Concurrent enumerate → cost → fold pipelines: the plan space is
  /// partitioned into this many shards (PlanEnumerator::PartitionShards)
  /// that each run the whole pipeline on the thread pool, after which the
  /// shard results are merged back into the serial arrival order. 1 = the
  /// single serial pipeline (default); 0 = the process-wide default
  /// parallelism. The result is identical at any value, for every
  /// algorithm; the cost predictor must be thread-safe when != 1.
  size_t threads = 1;
  /// Candidate plans per enumerate → cost → fold chunk, which is also the
  /// batch handed to the cost predictor. Smaller chunks tighten the
  /// exhaustive fold's O(front + chunk) working set; larger ones amortise
  /// the predictor's per-batch setup over more rows. 0 falls back to the
  /// default. The result is independent of the value.
  size_t chunk_size = 4096;
};

/// \brief Pipeline metrics of one enumeration shard (one of the
/// MoqpOptions::threads concurrent pipelines): timings are per shard, so
/// plans/sec here exposes stragglers the aggregate result hides.
struct MoqpShardStats {
  /// Shard id, 0-based (matches the PartitionShards output order).
  size_t shard = 0;
  /// Candidate plans this shard enumerated and costed.
  uint64_t candidates_examined = 0;
  /// Rows this shard kept when it finished: its local Pareto archive for
  /// kExhaustivePareto (pre-merge front size), its whole slice of the
  /// cost table for the other algorithms.
  size_t front_size = 0;
  /// High-water mark of this shard's resident candidates (its kept rows
  /// plus one in-flight chunk).
  size_t peak_resident_candidates = 0;
  /// Wall-clock seconds of the shard's enumerate→cost→fold pipeline.
  double seconds = 0.0;
  /// candidates_examined / seconds (0 when the duration underflows the
  /// clock).
  double plans_per_sec = 0.0;
};

/// \brief Outcome of one MOQP optimisation.
struct MoqpResult {
  /// Pareto plan set (for kWsm this holds just the selected plan).
  std::vector<QueryPlan> pareto_plans;
  /// Predicted cost vectors aligned with pareto_plans.
  std::vector<Vector> pareto_costs;
  /// Index of the plan Algorithm 2 picked for the user policy.
  size_t chosen = 0;
  /// Number of physical plans considered (and costed): SUM across the
  /// concurrent pipelines — every candidate is examined by exactly one
  /// shard, so the sum equals the serial count.
  size_t candidates_examined = 0;
  /// Estimator snapshot epoch the costs were predicted against. Stamped
  /// by MidasSystem::OptimizeQuery; 0 when the optimizer is driven
  /// directly with a caller-owned predictor.
  uint64_t snapshot_epoch = 0;
  /// High-water mark of simultaneously materialised candidate plans: SUM
  /// of the per-shard peaks (shard_stats breaks it down) — the worst case
  /// when every shard hits its high-water mark simultaneously. That is
  /// O(front + threads × chunk) for kExhaustivePareto and the whole
  /// candidate set for the table-consuming algorithms.
  size_t peak_resident_candidates = 0;
  /// Per-shard pipeline metrics, one row per shard.
  std::vector<MoqpShardStats> shard_stats;

  const QueryPlan& chosen_plan() const { return pareto_plans[chosen]; }
  const Vector& chosen_costs() const { return pareto_costs[chosen]; }
};

/// \brief IReS' Multi-Objective Optimizer with the paper's pipeline:
/// enumerate equivalent QEPs, predict each plan's multi-metric cost with
/// the Modelling estimator, find the Pareto plan set, and select the final
/// plan with BestInPareto (Algorithm 2) under the user policy.
class MultiObjectiveOptimizer {
 public:
  /// Scores one chunk of candidate plans: fills *costs with one row per
  /// plan (in span order) and one column per metric. Called once per
  /// enumeration chunk, concurrently from the shard pipelines when
  /// MoqpOptions::threads != 1.
  using CostPredictor =
      std::function<Status(std::span<const QueryPlan> plans, Matrix* costs)>;

  MultiObjectiveOptimizer(const Federation* federation,
                          const Catalog* catalog,
                          MoqpOptions options = MoqpOptions());

  /// The one MOQP pipeline. The plan space of `logical` is partitioned
  /// into options.threads shards; each shard enumerates its plans in
  /// options.chunk_size chunks, costs every chunk with one `predictor`
  /// call, and folds the costed chunk:
  ///  - kExhaustivePareto folds the chunk's own front into a
  ///    sequence-keyed online Pareto archive (O(front + chunk) memory);
  ///  - kWsm, kNsga2 and kNsgaG append every (sequence, cost, plan) row,
  ///    since WSM normalises over the full candidate set and the NSGA
  ///    variants evolve over the full cost table.
  /// The shard archives are tree-merged and every result is put back in
  /// serial enumeration order, so the front and the Algorithm 2 choice are
  /// identical at any threads/chunk_size setting.
  ///
  /// Every predicted cost must be finite: a NaN or infinite entry fails
  /// the call with InvalidArgument naming the candidate's sequence number
  /// (its 0-based index in PlanEnumerator::EnumeratePhysical order). When
  /// several candidates fail, the error of the lowest sequence is
  /// reported, at any thread count.
  StatusOr<MoqpResult> Optimize(const QueryPlan& logical,
                                const CostPredictor& predictor,
                                const QueryPolicy& policy) const;

 private:
  /// Runs the table-consuming algorithms (kWsm, kNsga2, kNsgaG) over the
  /// full candidate table in serial enumeration order.
  StatusOr<MoqpResult> RunOnTable(std::vector<QueryPlan> plans,
                                  std::vector<Vector> costs,
                                  const QueryPolicy& policy) const;

  const Federation* federation_;
  const Catalog* catalog_;
  MoqpOptions options_;
};

/// Adapts a per-plan cost function (e.g. a simulator oracle that prices a
/// plan by its join shape, not only its features) to the chunked
/// CostPredictor: calls `cost` once per plan, in order, and stacks the
/// results. Every call must return the same number of metrics.
MultiObjectiveOptimizer::CostPredictor PerPlanCostPredictor(
    std::function<StatusOr<Vector>(const QueryPlan&)> cost);

}  // namespace midas

#endif  // MIDAS_IRES_MOO_OPTIMIZER_H_
