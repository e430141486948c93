// Reproduces Table 1: the instance pricing catalogue of the two providers,
// plus a derived view the paper discusses in §2.2 — the monetary cost of
// holding a reference query's resources on each instance type, showing that
// the cheaper provider depends on the demand.

#include <iostream>

#include "common/text_table.h"
#include "federation/instance.h"

int main() {
  using namespace midas;  // NOLINT: bench brevity

  const InstanceCatalog catalog = InstanceCatalog::PaperTable1();

  std::cout << "Table 1 — Example of instances pricing\n";
  TextTable table(
      {"Provider", "Machine", "vCPU", "Memory (GiB)", "Storage (GiB)",
       "Price"});
  for (const InstanceType& t : catalog.types()) {
    const std::string price = FormatDouble(t.price_per_hour, 4);
    table.AddRow({ProviderKindName(t.provider), t.name,
                  std::to_string(t.vcpu), FormatDouble(t.memory_gib, 0),
                  t.storage_gib > 0.0 ? FormatDouble(t.storage_gib, 0)
                                      : "EBS-Only",
                  "$" + price + "/hour"});
  }
  table.Print(std::cout);

  // §2.2's observation: "depending on the demand of a query, the monetary
  // cost is lower or higher at a specific provider". Price a 1-hour query
  // needing (vCPU, memory) on the cheapest qualifying shape per provider.
  std::cout << "\nDerived — cheapest qualifying instance per demand "
               "(1-hour query)\n";
  TextTable derived({"Demand (vCPU, GiB)", "Amazon pick", "Amazon $",
                     "Microsoft pick", "Microsoft $", "cheaper"});
  const std::vector<std::pair<int, double>> demands = {
      {1, 1}, {1, 2}, {2, 4}, {4, 8}, {4, 16}, {8, 16}, {8, 32}};
  for (const auto& [vcpu, mem] : demands) {
    auto amazon =
        catalog.CheapestSatisfying(vcpu, mem, ProviderKind::kAmazon);
    auto microsoft =
        catalog.CheapestSatisfying(vcpu, mem, ProviderKind::kMicrosoft);
    std::string winner = "-";
    if (amazon.ok() && microsoft.ok()) {
      winner = amazon->price_per_hour <= microsoft->price_per_hour
                   ? "Amazon"
                   : "Microsoft";
    } else if (amazon.ok()) {
      winner = "Amazon";
    } else if (microsoft.ok()) {
      winner = "Microsoft";
    }
    const std::string vcpu_text = std::to_string(vcpu);
    derived.AddRow(
        {"(" + vcpu_text + ", " + FormatDouble(mem, 0) + ")",
         amazon.ok() ? amazon->name : "n/a",
         amazon.ok() ? FormatDouble(amazon->price_per_hour, 4) : "-",
         microsoft.ok() ? microsoft->name : "n/a",
         microsoft.ok() ? FormatDouble(microsoft->price_per_hour, 4) : "-",
         winner});
  }
  derived.Print(std::cout);
  std::cout << "\nNote: Amazon wins on compute-only demands (storage is "
               "EBS-extra); bundled-storage demands can favour Microsoft.\n";
  return 0;
}
