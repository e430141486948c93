// TPC-H multi-objective query processing: prints the predicted
// time-vs-money Pareto front of every paper query (12, 13, 14, 17) over a
// two-cloud federation, and the plan Algorithm 2 picks under a budgeted
// policy ("fastest plan under $X").
//
//   ./examples/tpch_moqp

#include <iostream>

#include "common/text_table.h"
#include "engine/simulator.h"
#include "ires/moo_optimizer.h"
#include "tpch/workload.h"

int main() {
  using namespace midas;  // NOLINT: example brevity

  // Two-cloud environment: Hive on Amazon, PostgreSQL on Microsoft.
  Federation federation;
  const InstanceCatalog instances = InstanceCatalog::PaperTable1();
  SiteConfig a;
  a.name = "cloud-A";
  a.provider = ProviderKind::kAmazon;
  a.engines = {EngineKind::kHive};
  a.node_type = instances.Find("a1.xlarge").ValueOrDie();
  a.max_nodes = 8;
  const SiteId site_a = federation.AddSite(a).ValueOrDie();
  SiteConfig b;
  b.name = "cloud-B";
  b.provider = ProviderKind::kMicrosoft;
  b.engines = {EngineKind::kPostgres};
  b.node_type = instances.Find("B2S").ValueOrDie();
  b.max_nodes = 8;
  const SiteId site_b = federation.AddSite(b).ValueOrDie();
  NetworkLink wan;
  wan.bandwidth_mbps = 200.0;
  wan.latency_ms = 25.0;
  wan.egress_price_per_gib = 0.09;
  federation.network().SetSymmetricLink(site_a, site_b, wan).CheckOK();

  tpch::WorkloadOptions wl_opts;
  wl_opts.scale_factor = tpch::kScaleFactor100MiB;
  tpch::Workload workload(wl_opts);

  SimulatorOptions sim_opts;
  sim_opts.stochastic = false;  // expected costs for a clean illustration
  ExecutionSimulator simulator(&federation, &workload.catalog(), sim_opts);
  // The simulator prices a plan by its join shape, not only its
  // features, so it is adapted plan by plan.
  const auto predictor = PerPlanCostPredictor(
      [&simulator](const QueryPlan& plan) -> StatusOr<Vector> {
        MIDAS_ASSIGN_OR_RETURN(Measurement m,
                               simulator.ExpectedCostAt(plan, 0));
        return Vector{m.seconds, m.dollars};
      });

  for (int query_id : tpch::PaperQueryIds()) {
    // Place this query's two tables across the two engines.
    auto tables = tpch::QueryTables(query_id).ValueOrDie();
    federation.PlaceTable(tables.first, site_b, EngineKind::kPostgres)
        .CheckOK();
    federation.PlaceTable(tables.second, site_a, EngineKind::kHive)
        .CheckOK();

    MultiObjectiveOptimizer optimizer(&federation, &workload.catalog());
    QueryPolicy policy;
    policy.weights = {1.0, 0.0};           // fastest...
    policy.constraints = {1e12, 0.0030};   // ...under a $0.003 budget

    QueryPlan logical = tpch::MakeQuery(query_id).ValueOrDie();
    auto result = optimizer.Optimize(logical, predictor, policy);
    result.status().CheckOK();

    std::cout << "TPC-H Q" << query_id << " (" << tables.first << " ⋈ "
              << tables.second << "), "
              << result->candidates_examined << " equivalent QEPs\n";
    TextTable front({"Pareto plan", "seconds", "dollars", "chosen"});
    for (size_t i = 0; i < result->pareto_costs.size(); ++i) {
      const std::string index = std::to_string(i);
      front.AddRow({"#" + index,
                    FormatDouble(result->pareto_costs[i][0], 2),
                    FormatDouble(result->pareto_costs[i][1], 5),
                    i == result->chosen ? "<== fastest under $0.003" : ""});
    }
    front.Print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
