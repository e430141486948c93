// Quickstart: build a two-cloud medical federation, warm up the DREAM
// estimator with a few executions, then run Example 2.1's query end to end
// and print the Pareto plan set and the chosen QEP.
//
//   ./examples/quickstart

#include <iostream>

#include "common/text_table.h"
#include "midas/medical.h"
#include "midas/midas.h"

int main() {
  using namespace midas;  // NOLINT: example brevity

  // 1. Environment: the paper's federation (Amazon cloud-A with Hive/Spark,
  //    Microsoft cloud-B with PostgreSQL) plus the medical schema.
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(/*scale=*/0.25).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();

  // 2. System: DREAM estimator (R² >= 0.8), exhaustive Pareto MOQP.
  MidasOptions options;
  options.estimator = EstimatorConfig::DreamDefault();
  options.moqp.algorithm = MoqpAlgorithm::kExhaustivePareto;
  MidasSystem system(std::move(federation), std::move(catalog), options);

  // 3. Warm-up: the Modelling history needs a handful of observed runs
  //    before DREAM can fit (at least L + 2).
  QueryPlan example21 = MakeExample21Query().ValueOrDie();
  system.Bootstrap("example-2.1", example21, /*runs=*/24).CheckOK();

  // 4. User policy: 70% weight on execution time, 30% on money, and a
  //    budget cap of $0.05 per query.
  QueryPolicy policy;
  policy.weights = {0.7, 0.3};
  policy.constraints = {};  // no hard constraint in the quickstart

  auto outcome = system.RunQuery("example-2.1", example21, policy);
  outcome.status().CheckOK();

  std::cout << "MIDAS quickstart — Example 2.1 (Patient ⋈ GeneralInfo)\n\n";
  std::cout << "Equivalent QEPs examined: "
            << outcome->moqp.candidates_examined << "\n";
  std::cout << "Pareto plan set size:     " << outcome->moqp.pareto_plans.size()
            << "\n\n";

  TextTable table({"plan", "pred seconds", "pred dollars", "chosen"});
  for (size_t i = 0; i < outcome->moqp.pareto_costs.size(); ++i) {
    const std::string index = std::to_string(i);
    table.AddRow({"#" + index,
                  FormatDouble(outcome->moqp.pareto_costs[i][0], 2),
                  FormatDouble(outcome->moqp.pareto_costs[i][1], 5),
                  i == outcome->moqp.chosen ? "  <==" : ""});
  }
  table.Print(std::cout);

  std::cout << "\nChosen plan (estimator: " << outcome->estimator << "):\n"
            << outcome->moqp.chosen_plan().ToString() << "\n";
  std::cout << "Predicted: " << FormatDouble(outcome->predicted[0], 2)
            << " s, $" << FormatDouble(outcome->predicted[1], 5) << "\n";
  std::cout << "Actual:    " << FormatDouble(outcome->actual.seconds, 2)
            << " s, $" << FormatDouble(outcome->actual.dollars, 5) << "\n";
  return 0;
}
