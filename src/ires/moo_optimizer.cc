#include "ires/moo_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/statistics.h"
#include "common/thread_pool.h"
#include "optimizer/configuration_problem.h"
#include "optimizer/pareto.h"
#include "optimizer/pareto_archive.h"
#include "optimizer/wsm.h"

namespace midas {

std::string MoqpAlgorithmName(MoqpAlgorithm algorithm) {
  switch (algorithm) {
    case MoqpAlgorithm::kExhaustivePareto:
      return "exhaustive-pareto";
    case MoqpAlgorithm::kNsga2:
      return "nsga2";
    case MoqpAlgorithm::kNsgaG:
      return "nsga-g";
    case MoqpAlgorithm::kWsm:
      return "wsm";
  }
  return "?";
}

MultiObjectiveOptimizer::CostPredictor PerPlanCostPredictor(
    std::function<StatusOr<Vector>(const QueryPlan&)> cost) {
  return [cost = std::move(cost)](std::span<const QueryPlan> plans,
                                  Matrix* costs) -> Status {
    if (!cost) return Status::InvalidArgument("null cost predictor");
    for (size_t i = 0; i < plans.size(); ++i) {
      MIDAS_ASSIGN_OR_RETURN(Vector row, cost(plans[i]));
      if (i == 0) {
        *costs = Matrix(plans.size(), row.size());
      } else if (row.size() != costs->cols()) {
        return Status::InvalidArgument(
            "per-plan predictor returned cost vectors of different arity");
      }
      costs->SetRow(i, row);
    }
    return Status::OK();
  };
}

MultiObjectiveOptimizer::MultiObjectiveOptimizer(const Federation* federation,
                                                 const Catalog* catalog,
                                                 MoqpOptions options)
    : federation_(federation),
      catalog_(catalog),
      options_(std::move(options)) {}

StatusOr<MoqpResult> MultiObjectiveOptimizer::RunOnTable(
    std::vector<QueryPlan> plans, std::vector<Vector> costs,
    const QueryPolicy& policy) const {
  MoqpResult result;
  if (options_.algorithm == MoqpAlgorithm::kWsm) {
    // Figure 3, right branch: one scalar winner, no Pareto set.
    MIDAS_ASSIGN_OR_RETURN(size_t best, WsmSelect(costs, policy.weights));
    result.pareto_plans.push_back(std::move(plans[best]));
    result.pareto_costs.push_back(std::move(costs[best]));
    result.chosen = 0;
    return result;
  }

  // NSGA-II / NSGA-G: evolve over the candidate index space; the
  // evaluator reads the predicted cost table.
  ConfigurationProblem problem(
      "qep-selection", {plans.size()}, costs.empty() ? 0 : costs[0].size(),
      [&costs](const std::vector<size_t>& cfg) { return costs[cfg[0]]; });
  MooResult moo;
  if (options_.algorithm == MoqpAlgorithm::kNsga2) {
    Nsga2 nsga2(options_.nsga2);
    MIDAS_ASSIGN_OR_RETURN(moo, nsga2.Optimize(problem));
  } else {
    NsgaG nsga_g(options_.nsga_g);
    MIDAS_ASSIGN_OR_RETURN(moo, nsga_g.Optimize(problem));
  }
  // Collect the distinct candidate plans on the evolved front.
  std::vector<uint8_t> seen(plans.size(), 0);
  std::vector<QueryPlan> front_plans;
  std::vector<Vector> front_costs;
  for (size_t i : moo.front) {
    const size_t plan_idx = problem.Decode(moo.population[i].variables)[0];
    if (seen[plan_idx] == 0) {
      seen[plan_idx] = 1;
      front_plans.push_back(plans[plan_idx]);
      front_costs.push_back(costs[plan_idx]);
    }
  }
  // Equivalent QEPs can share identical predicted costs (e.g., commuted
  // joins over the same features); keep one representative per cost point.
  std::unordered_set<Vector, VectorHash> seen_costs;
  for (size_t idx : ParetoFrontIndices(front_costs)) {
    if (!seen_costs.insert(front_costs[idx]).second) continue;
    result.pareto_plans.push_back(std::move(front_plans[idx]));
    result.pareto_costs.push_back(std::move(front_costs[idx]));
  }
  MIDAS_ASSIGN_OR_RETURN(result.chosen,
                         BestInPareto(result.pareto_costs, policy));
  return result;
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::Optimize(
    const QueryPlan& logical, const CostPredictor& predictor,
    const QueryPolicy& policy) const {
  if (!predictor) return Status::InvalidArgument("null cost predictor");

  PlanEnumerator enumerator(federation_, catalog_, options_.enumerator);
  const size_t num_shards = options_.threads == 0
                                ? ThreadPool::DefaultThreadCount()
                                : options_.threads;
  const size_t chunk_size = options_.chunk_size == 0
                                ? MoqpOptions().chunk_size
                                : options_.chunk_size;
  const size_t arity = policy.weights.size();
  const bool fold_front =
      options_.algorithm == MoqpAlgorithm::kExhaustivePareto;
  MIDAS_ASSIGN_OR_RETURN(std::vector<EnumerationShard> shards,
                         enumerator.PartitionShards(logical, num_shards));

  // One independent pipeline per shard: enumerate its strata, cost whole
  // chunks, fold each costed chunk into shard-private state keyed by
  // global sequence numbers. Shards share nothing but the predictor.
  struct ShardRun {
    ParetoArchive<QueryPlan> archive;  // kExhaustivePareto
    std::vector<uint64_t> seqs;        // the other algorithms' table rows
    std::vector<Vector> costs;
    std::vector<QueryPlan> plans;
    uint64_t examined = 0;
    size_t peak_resident = 0;
    double seconds = 0.0;
    Status status;
    // Sequence a failure is attributed to: the non-finite candidate, else
    // the first candidate of the chunk being costed when it failed.
    uint64_t failed_seq = std::numeric_limits<uint64_t>::max();
  };
  std::vector<ShardRun> runs(shards.size());

  auto cost_and_fold = [&](ShardRun& run, std::vector<QueryPlan>&& chunk,
                           const std::vector<uint64_t>& seqs) -> Status {
    run.examined += chunk.size();
    run.failed_seq = seqs.front();  // read only if this chunk fails
    Matrix scored;
    MIDAS_RETURN_IF_ERROR(
        predictor(std::span<const QueryPlan>(chunk), &scored));
    if (scored.rows() != chunk.size()) {
      return Status::InvalidArgument(
          "cost predictor returned a wrong-sized batch");
    }
    if (scored.cols() != arity) {
      return Status::InvalidArgument("predictor/policy arity mismatch");
    }
    // A NaN breaks the strict weak ordering the Pareto sort relies on and
    // an infinity breaks Algorithm 2's normalisation, so neither may pass.
    std::vector<Vector> costs(chunk.size());
    for (size_t r = 0; r < chunk.size(); ++r) {
      costs[r] = scored.Row(r);
      for (double c : costs[r]) {
        if (!std::isfinite(c)) {
          run.failed_seq = seqs[r];
          return Status::InvalidArgument(
              "predicted cost of candidate " + std::to_string(seqs[r]) +
              " is not finite");
        }
      }
    }

    const size_t kept = fold_front ? run.archive.size() : run.plans.size();
    run.peak_resident = std::max(run.peak_resident, kept + chunk.size());
    if (fold_front) {
      // Reduce the chunk to its own front (cheap for the 2–3 metric
      // policies), keeping one plan per cost point — front indices are
      // ascending, so the first is the lowest sequence; each duplicate
      // would otherwise cost the archive an O(front) lookup. The archive
      // keeps the lowest-sequence representative of every cost point and
      // evicts members a later chunk dominates.
      std::unordered_set<Vector, VectorHash> seen;
      for (size_t idx : ParetoFrontIndices(costs, /*threads=*/1)) {
        if (!seen.insert(costs[idx]).second) continue;
        run.archive.InsertSequenced(std::move(costs[idx]), seqs[idx],
                                    std::move(chunk[idx]));
      }
    } else {
      for (size_t r = 0; r < chunk.size(); ++r) {
        run.seqs.push_back(seqs[r]);
        run.costs.push_back(std::move(costs[r]));
        run.plans.push_back(std::move(chunk[r]));
      }
    }
    return Status::OK();
  };

  ParallelForOptions parallel;
  parallel.threads = num_shards;
  MIDAS_RETURN_IF_ERROR(ParallelFor(
      shards.size(),
      [&](size_t s) -> Status {
        ShardRun& run = runs[s];
        const double started = MonotonicSeconds();
        run.status = enumerator.EnumerateShardChunked(
            logical, shards[s], chunk_size,
            [&](std::vector<QueryPlan>&& chunk,
                std::vector<uint64_t>&& seqs) -> Status {
              return cost_and_fold(run, std::move(chunk), seqs);
            });
        run.seconds = MonotonicSeconds() - started;
        // Failures are collected rather than returned so every shard runs
        // to its own first failure and the lowest-sequence one is
        // reported, independent of the shard count.
        return Status::OK();
      },
      parallel));
  const ShardRun* failed = nullptr;
  for (const ShardRun& run : runs) {
    if (!run.status.ok() &&
        (failed == nullptr || run.failed_seq < failed->failed_seq)) {
      failed = &run;
    }
  }
  if (failed != nullptr) return failed->status;

  MoqpResult result;
  size_t candidates = 0;
  size_t peak_resident = 0;
  std::vector<MoqpShardStats> shard_stats;
  shard_stats.reserve(runs.size());
  for (size_t s = 0; s < runs.size(); ++s) {
    const ShardRun& run = runs[s];
    candidates += static_cast<size_t>(run.examined);
    peak_resident += run.peak_resident;
    MoqpShardStats stats;
    stats.shard = s;
    stats.candidates_examined = run.examined;
    stats.front_size = fold_front ? run.archive.size() : run.plans.size();
    stats.peak_resident_candidates = run.peak_resident;
    stats.seconds = run.seconds;
    stats.plans_per_sec =
        run.seconds > 0.0 ? static_cast<double>(run.examined) / run.seconds
                          : 0.0;
    shard_stats.push_back(stats);
  }

  if (fold_front) {
    // Tree-merge the shard archives (associative + dedup-stable, so the
    // member set is independent of the tree shape) and restore the serial
    // arrival order via the global sequence numbers: from here on the
    // result is byte-for-byte the single-pipeline one.
    std::vector<ParetoArchive<QueryPlan>> archives;
    archives.reserve(runs.size());
    for (ShardRun& run : runs) archives.push_back(std::move(run.archive));
    ParetoArchive<QueryPlan> merged =
        ParetoArchive<QueryPlan>::MergeTree(std::move(archives));
    merged.SortBySequence();
    result.pareto_costs = merged.TakeCosts();
    result.pareto_plans = merged.TakePayloads();
    MIDAS_ASSIGN_OR_RETURN(result.chosen,
                           BestInPareto(result.pareto_costs, policy));
  } else {
    // Reassemble the full cost table in serial enumeration order: the
    // shards' sequence numbers are exactly 0..candidates-1.
    std::vector<QueryPlan> plans(candidates);
    std::vector<Vector> costs(candidates);
    for (ShardRun& run : runs) {
      for (size_t r = 0; r < run.seqs.size(); ++r) {
        if (run.seqs[r] >= candidates) {
          return Status::Internal("shard sequence numbers are not dense");
        }
        plans[run.seqs[r]] = std::move(run.plans[r]);
        costs[run.seqs[r]] = std::move(run.costs[r]);
      }
    }
    MIDAS_ASSIGN_OR_RETURN(
        result, RunOnTable(std::move(plans), std::move(costs), policy));
  }
  result.candidates_examined = candidates;
  result.peak_resident_candidates = peak_resident;
  result.shard_stats = std::move(shard_stats);
  return result;
}

}  // namespace midas
