// Cross-component equivalence and consistency checks.

#include <gtest/gtest.h>

#include "ires/modelling.h"
#include "optimizer/best_in_pareto.h"
#include "ml/least_squares.h"
#include "optimizer/pareto.h"
#include "optimizer/wsm.h"
#include "regression/dream.h"

namespace midas {
namespace {

// DREAM stopped at window m must predict what a plain OLS fit on the
// newest m observations predicts — Algorithm 1 is windowed MLR, no more.
// The batch engine goes through FitOls itself, so it matches bitwise; the
// default incremental engine solves the same normal equations via
// Cholesky and computes R² algebraically, so it matches to numerical
// precision.
TEST(EquivalenceTest, DreamMatchesOlsAtItsWindow) {
  Rng rng(3);
  TrainingSet set({"x1", "x2"}, {"c"});
  for (int i = 0; i < 40; ++i) {
    const double x1 = rng.Uniform(0, 10);
    const double x2 = rng.Uniform(0, 10);
    set.Add({x1, x2}, {3 + x1 + 2 * x2 + rng.Gaussian(0, 0.5)}).CheckOK();
  }
  DreamOptions batch_options;
  batch_options.engine = DreamEngine::kBatch;
  auto batch = Dream(batch_options).EstimateCostValue(set).ValueOrDie();
  auto incremental = Dream().EstimateCostValue(set).ValueOrDie();
  ASSERT_EQ(incremental.window_size, batch.window_size);
  const size_t m = batch.window_size;
  auto xs = set.RecentFeatures(m).ValueOrDie();
  auto ys = set.RecentCosts(m, 0).ValueOrDie();
  auto ols = FitOls(xs, ys).ValueOrDie();
  const Vector probe = {4.0, 6.0};
  const double ols_prediction = ols.Predict(probe).ValueOrDie();
  EXPECT_DOUBLE_EQ(batch.models[0].Predict(probe).ValueOrDie(),
                   ols_prediction);
  EXPECT_DOUBLE_EQ(batch.models[0].r_squared(), ols.r_squared());
  EXPECT_NEAR(incremental.models[0].Predict(probe).ValueOrDie(),
              ols_prediction, 1e-9);
  EXPECT_NEAR(incremental.models[0].r_squared(), ols.r_squared(), 1e-9);
}

// The LeastSquaresLearner must agree with FitOls — it is the same model
// behind the Learner interface.
TEST(EquivalenceTest, LeastSquaresLearnerMatchesFitOls) {
  Rng rng(5);
  std::vector<Vector> xs;
  Vector ys;
  for (int i = 0; i < 15; ++i) {
    const double x = rng.Uniform(0, 5);
    xs.push_back({x});
    ys.push_back(2 * x + rng.Gaussian(0, 0.2));
  }
  LeastSquaresLearner learner;
  ASSERT_TRUE(learner.Fit(xs, ys).ok());
  auto direct = FitOls(xs, ys).ValueOrDie();
  EXPECT_DOUBLE_EQ(learner.Predict({2.5}).ValueOrDie(),
                   direct.Predict({2.5}).ValueOrDie());
}

// BestInPareto with no constraints must agree with WsmSelect over the
// same set (Algorithm 2 degenerates to the weighted-sum ranking).
TEST(EquivalenceTest, UnconstrainedBestInParetoIsWsmSelect) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vector> costs;
    const size_t n = 3 + rng.Index(20);
    for (size_t i = 0; i < n; ++i) {
      costs.push_back({rng.Uniform(1, 100), rng.Uniform(0.001, 0.1)});
    }
    const double w = rng.Uniform(0.05, 0.95);
    QueryPolicy policy;
    policy.weights = {w, 1.0 - w};
    EXPECT_EQ(BestInPareto(costs, policy).ValueOrDie(),
              WsmSelect(costs, policy.weights).ValueOrDie());
  }
}

// Weak dominance must be a superset relation of strict dominance, and
// standard dominance must sit between them.
TEST(EquivalenceTest, DominanceHierarchy) {
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const Vector a = {rng.Uniform(0, 2), rng.Uniform(0, 2)};
    const Vector b = {rng.Uniform(0, 2), rng.Uniform(0, 2)};
    if (StrictlyDominates(a, b)) {
      EXPECT_TRUE(Dominates(a, b));
    }
    if (Dominates(a, b)) {
      EXPECT_TRUE(WeaklyDominates(a, b));
    }
  }
}

// Modelling's DREAM path and a hand-rolled Dream over the same history
// must agree (the module adds only clamping, which is inactive for
// positive costs).
TEST(EquivalenceTest, ModellingDreamMatchesRawDream) {
  Modelling modelling({"x"}, {"c"});
  Rng rng(11);
  TrainingSet mirror({"x"}, {"c"});
  for (int i = 0; i < 20; ++i) {
    const double x = rng.Uniform(1, 10);
    const double c = 5 + 3 * x + rng.Gaussian(0, 0.3);
    Observation obs;
    obs.timestamp = i;
    obs.features = {x};
    obs.costs = {c};
    modelling.Record("q", obs).CheckOK();
    mirror.Add(std::move(obs)).CheckOK();
  }
  EstimatorConfig config = EstimatorConfig::DreamDefault();
  const Vector probe = {5.5};
  auto module_pred =
      modelling.Predict(*modelling.Snapshot(), "q", probe, config)
          .ValueOrDie();
  Dream raw(config.dream);
  auto raw_pred = raw.PredictCosts(mirror, probe).ValueOrDie();
  EXPECT_DOUBLE_EQ(module_pred[0], raw_pred[0]);
}

}  // namespace
}  // namespace midas
