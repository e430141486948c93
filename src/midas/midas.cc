#include "midas/midas.h"

#include "ires/features.h"
#include "query/enumerator.h"

namespace midas {

MidasSystem::MidasSystem(Federation federation, Catalog catalog,
                         MidasOptions options)
    : federation_(std::move(federation)),
      catalog_(std::move(catalog)),
      options_(std::move(options)),
      rng_(options_.seed) {
  modelling_ = std::make_unique<Modelling>(
      FeatureNames(federation_), StandardMetricNames(), options_.seed + 7);
  SimulatorOptions sim_opts = options_.simulator;
  sim_opts.seed = options_.seed;
  simulator_ = std::make_unique<ExecutionSimulator>(&federation_, &catalog_,
                                                    sim_opts);
  scheduler_ = std::make_unique<Scheduler>(&federation_, simulator_.get(),
                                           modelling_.get());
  optimizer_ = std::make_unique<MultiObjectiveOptimizer>(
      &federation_, &catalog_, options_.moqp);
}

Status MidasSystem::Bootstrap(const std::string& scope,
                              const QueryPlan& logical, size_t runs) {
  PlanEnumerator enumerator(&federation_, &catalog_,
                            options_.moqp.enumerator);
  MIDAS_ASSIGN_OR_RETURN(std::vector<QueryPlan> plans,
                         enumerator.EnumeratePhysical(logical));
  for (size_t i = 0; i < runs; ++i) {
    const QueryPlan& pick = plans[rng_.Index(plans.size())];
    MIDAS_RETURN_IF_ERROR(
        scheduler_->ExecuteAndRecord(scope, pick).status());
  }
  return Status::OK();
}

StatusOr<QueryOutcome> MidasSystem::OptimizeQuery(
    const std::shared_ptr<const EstimatorSnapshot>& snapshot,
    const QueryRequest& request) const {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("OptimizeQuery needs a pinned snapshot");
  }
  // The one place that knows the estimator's feature layout: each chunk
  // of candidates becomes a feature matrix scored in one batch against the
  // pinned snapshot.
  const EstimatorSnapshot& pinned = *snapshot;
  MultiObjectiveOptimizer::CostPredictor predictor =
      [this, &request, &pinned](std::span<const QueryPlan> plans,
                                Matrix* costs) -> Status {
    MIDAS_ASSIGN_OR_RETURN(Matrix features,
                           ExtractFeatureMatrix(federation_, plans));
    MIDAS_ASSIGN_OR_RETURN(*costs,
                           modelling_->PredictBatch(pinned, request.scope,
                                                    features,
                                                    options_.estimator));
    return Status::OK();
  };
  QueryOutcome outcome;
  MIDAS_ASSIGN_OR_RETURN(
      outcome.moqp,
      optimizer_->Optimize(request.logical, predictor, request.policy));
  outcome.moqp.snapshot_epoch = pinned.epoch();
  outcome.predicted = outcome.moqp.chosen_costs();
  outcome.estimator = EstimatorName(options_.estimator);
  return outcome;
}

StatusOr<QueryOutcome> MidasSystem::RunQuery(const std::string& scope,
                                             const QueryPlan& logical,
                                             const QueryPolicy& policy) {
  // Pin one estimator snapshot for the whole optimization: every candidate
  // cost comes from the same epoch, so feedback recorded concurrently can
  // never skew this query's Pareto front.
  QueryRequest request{scope, logical, policy};
  MIDAS_ASSIGN_OR_RETURN(
      QueryOutcome outcome,
      OptimizeQuery(modelling_->Snapshot(), request));
  MIDAS_ASSIGN_OR_RETURN(
      outcome.actual,
      scheduler_->ExecuteAndRecord(scope, outcome.moqp.chosen_plan()));
  return outcome;
}

}  // namespace midas
