// Serial equivalence of the snapshot prediction path and the estimators
// run directly on the scope's live TrainingSet: at the same estimator
// state, pinning a snapshot must change NOTHING about the numbers —
// predictions, diagnostics and whole optimizations are bit-identical to
// Dream::PredictCosts / PredictCostsBatch / EstimateCostValue and
// ModelSelector::SelectBest (with Modelling's non-negative clamp). This is
// what licenses answering every prediction from snapshots without
// re-validating the paper's results.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/simulator.h"
#include "ires/features.h"
#include "ires/modelling.h"
#include "ires/moo_optimizer.h"
#include "ires/scheduler.h"
#include "ml/model_selection.h"
#include "regression/dream.h"

namespace midas {
namespace {

std::unique_ptr<Modelling> MakeTrainedModelling(int observations,
                                                uint64_t seed = 17) {
  auto modelling = std::make_unique<Modelling>(
      std::vector<std::string>{"x1", "x2"},
      std::vector<std::string>{"seconds", "dollars"});
  Rng rng(seed);
  for (int i = 0; i < observations; ++i) {
    const double x1 = rng.Uniform(1, 10);
    const double x2 = rng.Uniform(1, 10);
    Observation obs;
    obs.timestamp = i;
    obs.features = {x1, x2};
    obs.costs = {2 + 3 * x1 + x2 + rng.Gaussian(0, 0.4),
                 0.1 + 0.02 * x1 + rng.Gaussian(0, 0.01)};
    modelling->Record("q", std::move(obs)).CheckOK();
  }
  return modelling;
}

std::vector<EstimatorConfig> AllEstimators() {
  return {
      EstimatorConfig::DreamDefault(),
      EstimatorConfig::Bml(WindowPolicy::kLastN),
      EstimatorConfig::Bml(WindowPolicy::kLast2N),
      EstimatorConfig::Bml(WindowPolicy::kAll),
  };
}

// The scope's writer-side TrainingSet, read through the const accessor so
// the published snapshot is not marked stale.
const TrainingSet& LiveSet(const Modelling& modelling,
                           const std::string& scope) {
  return *modelling.history().Get(scope).ValueOrDie();
}

// Modelling's clamp: costs are physical quantities, never negative.
void Clamp(Matrix* costs) {
  for (size_t r = 0; r < costs->rows(); ++r) {
    for (size_t c = 0; c < costs->cols(); ++c) {
      (*costs)(r, c) = std::max(0.0, (*costs)(r, c));
    }
  }
}

// BML straight on the TrainingSet: ModelSelector::SelectBest per metric
// over the policy's window, with the candidates Modelling's default seed
// registers.
StatusOr<std::vector<SelectedModel>> SelectBmlDirect(const TrainingSet& set,
                                                     WindowPolicy window) {
  ModelSelector selector;
  selector.AddDefaultCandidates(31);
  const size_t m = WindowSizeFor(window, set.num_features() + 2, set.size());
  MIDAS_ASSIGN_OR_RETURN(std::vector<Vector> xs, set.RecentFeatures(m));
  std::vector<SelectedModel> models;
  for (size_t metric = 0; metric < set.num_metrics(); ++metric) {
    MIDAS_ASSIGN_OR_RETURN(Vector ys, set.RecentCosts(m, metric));
    MIDAS_ASSIGN_OR_RETURN(SelectedModel model, selector.SelectBest(xs, ys));
    models.push_back(std::move(model));
  }
  return models;
}

// The estimator of `config` run straight on the TrainingSet, batched.
StatusOr<Matrix> PredictBatchDirect(const TrainingSet& set, const Matrix& X,
                                    const EstimatorConfig& config) {
  Matrix out;
  if (config.kind == EstimatorKind::kDream) {
    MIDAS_ASSIGN_OR_RETURN(out, Dream(config.dream).PredictCostsBatch(set, X));
  } else {
    MIDAS_ASSIGN_OR_RETURN(std::vector<SelectedModel> models,
                           SelectBmlDirect(set, config.window));
    out = Matrix(X.rows(), models.size());
    Vector column;
    for (size_t metric = 0; metric < models.size(); ++metric) {
      MIDAS_RETURN_IF_ERROR(models[metric].learner->PredictBatch(X, &column));
      for (size_t r = 0; r < X.rows(); ++r) out(r, metric) = column[r];
    }
  }
  Clamp(&out);
  return out;
}

// The estimator of `config` run straight on the TrainingSet, one point.
StatusOr<Vector> PredictDirect(const TrainingSet& set, const Vector& x,
                               const EstimatorConfig& config) {
  Vector out;
  if (config.kind == EstimatorKind::kDream) {
    MIDAS_ASSIGN_OR_RETURN(out, Dream(config.dream).PredictCosts(set, x));
  } else {
    MIDAS_ASSIGN_OR_RETURN(std::vector<SelectedModel> models,
                           SelectBmlDirect(set, config.window));
    out.resize(models.size());
    for (size_t metric = 0; metric < models.size(); ++metric) {
      MIDAS_ASSIGN_OR_RETURN(out[metric], models[metric].learner->Predict(x));
    }
  }
  for (double& c : out) c = std::max(0.0, c);
  return out;
}

TEST(SnapshotEquivalenceTest, PredictMatchesLivePathBitwise) {
  auto modelling_ptr = MakeTrainedModelling(30);
  Modelling& modelling = *modelling_ptr;
  auto snapshot = modelling.Snapshot();
  const TrainingSet& set = LiveSet(modelling, "q");
  Rng rng(23);
  for (const EstimatorConfig& config : AllEstimators()) {
    for (int p = 0; p < 5; ++p) {
      const Vector probe = {rng.Uniform(1, 10), rng.Uniform(1, 10)};
      auto frozen = modelling.Predict(*snapshot, "q", probe, config);
      ASSERT_TRUE(frozen.ok()) << EstimatorName(config);
      auto direct = PredictDirect(set, probe, config);
      ASSERT_TRUE(direct.ok()) << EstimatorName(config);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(*direct, *frozen) << EstimatorName(config);
    }
  }
}

TEST(SnapshotEquivalenceTest, PredictBatchMatchesLivePathBitwise) {
  auto modelling_ptr = MakeTrainedModelling(25);
  Modelling& modelling = *modelling_ptr;
  auto snapshot = modelling.Snapshot();
  const TrainingSet& set = LiveSet(modelling, "q");
  Rng rng(29);
  Matrix probes(7, 2);
  for (size_t r = 0; r < probes.rows(); ++r) {
    probes.SetRow(r, {rng.Uniform(1, 10), rng.Uniform(1, 10)});
  }
  for (const EstimatorConfig& config : AllEstimators()) {
    auto direct = PredictBatchDirect(set, probes, config);
    auto frozen = modelling.PredictBatch(*snapshot, "q", probes, config);
    ASSERT_TRUE(direct.ok()) << EstimatorName(config);
    ASSERT_TRUE(frozen.ok()) << EstimatorName(config);
    for (size_t r = 0; r < probes.rows(); ++r) {
      for (size_t c = 0; c < 2u; ++c) {
        EXPECT_EQ((*direct)(r, c), (*frozen)(r, c)) << EstimatorName(config);
      }
    }
  }
}

TEST(SnapshotEquivalenceTest, DreamDiagnosticsMatchLivePath) {
  auto modelling_ptr = MakeTrainedModelling(30);
  Modelling& modelling = *modelling_ptr;
  auto snapshot = modelling.Snapshot();
  DreamOptions options;
  auto live = Dream(options).EstimateCostValue(LiveSet(modelling, "q"));
  auto frozen = modelling.DreamDiagnostics(*snapshot, "q", options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(live->window_size, frozen->window_size);
  ASSERT_EQ(live->models.size(), frozen->models.size());
  for (size_t m = 0; m < live->models.size(); ++m) {
    EXPECT_EQ(live->models[m].r_squared(), frozen->models[m].r_squared());
  }
}

TEST(SnapshotEquivalenceTest, ErrorsMatchLivePathVerbatim) {
  auto modelling_ptr = MakeTrainedModelling(30);
  Modelling& modelling = *modelling_ptr;
  auto snapshot = modelling.Snapshot();
  const EstimatorConfig config = EstimatorConfig::DreamDefault();
  // Unknown scope: the snapshot answers exactly as the live History does.
  const Status live_missing =
      modelling.publisher().history().Get("nope").status();
  const Status frozen_missing =
      modelling.Predict(*snapshot, "nope", {1.0, 1.0}, config).status();
  EXPECT_FALSE(live_missing.ok());
  EXPECT_EQ(live_missing.code(), frozen_missing.code());
  EXPECT_EQ(live_missing.message(), frozen_missing.message());
  // Wrong arity.
  const Status frozen_arity =
      modelling.Predict(*snapshot, "q", {1.0}, config).status();
  EXPECT_EQ(frozen_arity.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(frozen_arity.message(), "feature arity mismatch");
}

// ---------------------------------------------------------------------------
// Whole-pipeline equivalence: an Optimize driven by snapshot-pinned
// predictions must reproduce the optimization driven by the estimator run
// directly on the live TrainingSet exactly.

struct Environment {
  Federation federation;
  Catalog catalog;
};

Environment MakeEnvironment() {
  Environment env;
  SiteConfig a;
  a.name = "A";
  a.engines = {EngineKind::kHive};
  a.node_type = {ProviderKind::kAmazon, "a1.xlarge", 4, 8.0, 0.0, 0.0197};
  a.max_nodes = 8;
  const SiteId site_a = env.federation.AddSite(a).ValueOrDie();
  SiteConfig b;
  b.name = "B";
  b.engines = {EngineKind::kPostgres};
  b.node_type = {ProviderKind::kMicrosoft, "B2S", 2, 4.0, 8.0, 0.042};
  b.max_nodes = 8;
  const SiteId site_b = env.federation.AddSite(b).ValueOrDie();
  NetworkLink wan;
  wan.bandwidth_mbps = 100.0;
  wan.egress_price_per_gib = 0.09;
  env.federation.network().SetSymmetricLink(site_a, site_b, wan).CheckOK();

  TableDef t1;
  t1.name = "t1";
  t1.row_count = 200000;
  t1.columns = {{"id", ColumnType::kInt, 8.0, 200000},
                {"pay", ColumnType::kString, 72.0, 200000}};
  env.catalog.AddTable(t1).CheckOK();
  TableDef t2;
  t2.name = "t2";
  t2.row_count = 5000;
  t2.columns = {{"id", ColumnType::kInt, 8.0, 5000}};
  env.catalog.AddTable(t2).CheckOK();
  env.federation.PlaceTable("t1", site_a, EngineKind::kHive).CheckOK();
  env.federation.PlaceTable("t2", site_b, EngineKind::kPostgres).CheckOK();
  return env;
}

QueryPlan LogicalJoin() {
  return QueryPlan(MakeJoin(MakeScan("t1"), MakeScan("t2"), "id", "id"));
}

SimulatorOptions Deterministic() {
  SimulatorOptions options;
  options.stochastic = false;
  options.variance = VarianceOptions{};
  options.variance.drift_amplitude = 0.0;
  options.variance.ar_sigma = 0.0;
  options.variance.noise_sigma = 0.0;
  return options;
}

TEST(SnapshotEquivalenceTest, OptimizeOverSnapshotReproducesLivePath) {
  Environment env = MakeEnvironment();
  ExecutionSimulator simulator(&env.federation, &env.catalog,
                               Deterministic());
  Modelling modelling(FeatureNames(env.federation), StandardMetricNames());
  Scheduler scheduler(&env.federation, &simulator, &modelling);
  const std::string scope = "join";

  // Warm the history over a spread of plans so DREAM has signal.
  EnumeratorOptions enum_opts;
  PlanEnumerator enumerator(&env.federation, &env.catalog, enum_opts);
  auto plans = enumerator.EnumeratePhysical(LogicalJoin()).ValueOrDie();
  Rng rng(41);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        scheduler.ExecuteAndRecord(scope, plans[rng.Index(plans.size())])
            .ok());
  }

  const EstimatorConfig estimator = EstimatorConfig::DreamDefault();
  auto snapshot = modelling.Snapshot();
  const TrainingSet& set = LiveSet(modelling, scope);
  auto live_predictor = PerPlanCostPredictor(
      [&](const QueryPlan& plan) -> StatusOr<Vector> {
        MIDAS_ASSIGN_OR_RETURN(Vector x,
                               ExtractFeatures(env.federation, plan));
        return PredictDirect(set, x, estimator);
      });
  auto snapshot_predictor = PerPlanCostPredictor(
      [&](const QueryPlan& plan) -> StatusOr<Vector> {
        MIDAS_ASSIGN_OR_RETURN(Vector x,
                               ExtractFeatures(env.federation, plan));
        return modelling.Predict(*snapshot, scope, x, estimator);
      });

  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  QueryPolicy policy;
  policy.weights = {0.6, 0.4};
  auto live = optimizer.Optimize(LogicalJoin(), live_predictor, policy);
  auto frozen = optimizer.Optimize(LogicalJoin(), snapshot_predictor, policy);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(live->candidates_examined, frozen->candidates_examined);
  EXPECT_EQ(live->chosen, frozen->chosen);
  ASSERT_EQ(live->pareto_costs.size(), frozen->pareto_costs.size());
  for (size_t i = 0; i < live->pareto_costs.size(); ++i) {
    EXPECT_EQ(live->pareto_costs[i], frozen->pareto_costs[i]);
  }
}

}  // namespace
}  // namespace midas
