#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <thread>
#include <unordered_set>

#include "common/random.h"
#include "ires/features.h"
#include "midas/medical.h"
#include "midas/midas.h"
#include "optimizer/best_in_pareto.h"
#include "optimizer/pareto.h"
#include "query/enumerator.h"
#include "serve/query_service.h"
#include "tpch/queries.h"
#include "tpch/workload.h"

namespace perfbench {
namespace {

using midas::Catalog;
using midas::DreamEstimate;
using midas::EstimatorSnapshot;
using midas::Federation;
using midas::Matrix;
using midas::MidasOptions;
using midas::MidasSystem;
using midas::QueryOutcome;
using midas::QueryPlan;
using midas::QueryPolicy;
using midas::QueryRequest;
using midas::Status;
using midas::StatusOr;
using midas::Vector;

/// At least ten samples beyond p95.
constexpr size_t kMinSamples = 200;
/// Set-ups timed per phase (setup_s is their median): at least
/// kMinSetups, and more of the cheap ones until kMinSetupSeconds of
/// set-up were timed (at most kMaxSetups).
constexpr size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 0.2;
constexpr size_t kMaxSetups = 1000;
/// Safety cap on one run (no new episode starts after it), so a run stays
/// under the three-minute limit even on a much slower program.
constexpr double kMaxRunSeconds = 120.0;
/// Measured-engine re-executions per traced phase (the exec sidecar):
/// every query of a measured workload up to the cap, a few chosen plans
/// of an analytical one (whose plans never run on the engine otherwise).
constexpr size_t kMaxExecSidecars = 48;
constexpr size_t kMaxAnalyticalExecSidecars = 4;
/// The SIMD layer's equivalence budget between the per-plan and the
/// batched prediction paths.
constexpr double kRelTolerance = 1e-12;
/// Re-executed instances per measured episode (digest repeat check).
constexpr size_t kDigestReplays = 3;

/// The user policies closed loops cycle through: time-vs-money weights.
constexpr double kWeightings[] = {0.5, 0.7, 0.3, 0.9, 0.1};
constexpr size_t kNumWeightings = sizeof(kWeightings) / sizeof(double);

QueryPolicy Policy(size_t k) {
  const double w = kWeightings[k % kNumWeightings];
  QueryPolicy policy;
  policy.weights = {w, 1.0 - w};
  return policy;
}

bool Close(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= kRelTolerance * scale;
}

bool CloseVec(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Close(a[i], b[i])) return false;
  }
  return true;
}

/// Every vector of `a` has a match in `b` within the tolerance.
bool Covered(const std::vector<Vector>& a, const std::vector<Vector>& b) {
  for (const Vector& x : a) {
    bool found = false;
    for (const Vector& y : b) {
      if (CloseVec(x, y)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Algorithm 2's choice on `front` and `other` (OptimizeQuery's choice)
/// agree when their weighted sums over the min-max normalised front are
/// equal up to the drift the tolerance allows: the front is the same
/// set, but its order may differ, so an exact tie may resolve to either
/// member.
bool SameChoice(const std::vector<Vector>& front, size_t chosen,
                const Vector& other, const QueryPolicy& policy) {
  if (CloseVec(front[chosen], other)) return true;
  double score_chosen = 0.0, score_other = 0.0, slack = 0.0;
  for (size_t m = 0; m < other.size(); ++m) {
    double lo = front[0][m], hi = front[0][m];
    for (const Vector& v : front) {
      lo = std::min(lo, v[m]);
      hi = std::max(hi, v[m]);
    }
    const double range = hi - lo;
    if (!(range > 0.0)) continue;
    const double w = policy.weights[m];
    score_chosen += w * (front[chosen][m] - lo) / range;
    score_other += w * (other[m] - lo) / range;
    slack += w * 4.0 * kRelTolerance * std::max(std::abs(lo), std::abs(hi)) /
             range;
  }
  return std::abs(score_chosen - score_other) <= slack;
}

/// Estimated rows the plan's scans read.
double ScannedRows(const QueryPlan& plan) {
  double rows = 0.0;
  for (const midas::PlanNode* node : plan.Nodes()) {
    if (node->kind == midas::OperatorKind::kScan) rows += node->output_rows;
  }
  return rows;
}

/// The per-query output checks; empty when the outcome is sound.
std::string CheckOutcome(const QueryOutcome& out, size_t expected_candidates,
                         bool measured) {
  const midas::MoqpResult& moqp = out.moqp;
  if (moqp.pareto_costs.empty() || moqp.chosen >= moqp.pareto_costs.size()) {
    return "chosen plan is not on the returned front";
  }
  for (const Vector& member : moqp.pareto_costs) {
    if (midas::Dominates(member, moqp.chosen_costs())) {
      return "chosen plan is dominated by a front member";
    }
  }
  if (moqp.candidates_examined != expected_candidates) {
    return "examined " + std::to_string(moqp.candidates_examined) +
           " candidates, expected " + std::to_string(expected_candidates);
  }
  if (out.predicted.size() != 2 || !std::isfinite(out.predicted[0]) ||
      !std::isfinite(out.predicted[1])) {
    return "non-finite predicted cost";
  }
  if (!(out.actual.seconds > 0.0) || !(out.actual.dollars > 0.0) ||
      !std::isfinite(out.actual.seconds) || !std::isfinite(out.actual.dollars)) {
    return "measured cost is not positive and finite";
  }
  if (measured && out.actual.result_digest == 0) {
    return "measured execution returned a zero result digest";
  }
  return "";
}

void RecordOutcome(const QueryOutcome& out, double latency, Phase* ph) {
  ph->latency.push_back(latency);
  ph->predicted_seconds.push_back(out.predicted[0]);
  ph->predicted_dollars.push_back(out.predicted[1]);
  ph->actual_seconds.push_back(out.actual.seconds);
  ph->actual_dollars.push_back(out.actual.dollars);
  ph->outcome_fingerprint.push_back(out.predicted[0]);
  ph->outcome_fingerprint.push_back(out.actual.seconds);
  ph->samples["candidates"].push_back(
      static_cast<double>(out.moqp.candidates_examined));
  ph->samples["rows_scanned_est"].push_back(
      ScannedRows(out.moqp.chosen_plan()));
}

/// Runs the measured engine on the chosen plan off the blocking path and
/// sums the operators' self times by kind.
Status ExecSidecar(MidasSystem& sys, const QueryOutcome& out, uint64_t q,
                   bool measured, Phase* ph) {
  if (ph->exec_sidecars >=
      (measured ? kMaxExecSidecars : kMaxAnalyticalExecSidecars)) {
    return Status::OK();
  }
  ++ph->exec_sidecars;
  const QueryPlan& plan = out.moqp.chosen_plan();
  const double e0 = Now();
  MIDAS_ASSIGN_OR_RETURN(midas::exec::ExecResult result,
                         sys.simulator().ExecuteMeasured(plan));
  const double e1 = Now();
  ph->tracer.Add(q, "exec.run", "sidecar", e0, e1);
  const std::vector<const midas::PlanNode*> nodes = plan.Nodes();
  if (result.stats.size() != nodes.size()) {
    return Status::Internal("exec stats do not cover the plan");
  }
  double by_kind[4] = {0.0, 0.0, 0.0, 0.0};  // scan, filter, join, aggregate
  double rows = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    switch (nodes[i]->kind) {
      case midas::OperatorKind::kScan:
        by_kind[0] += result.stats[i].seconds;
        rows += static_cast<double>(result.stats[i].output_rows);
        break;
      case midas::OperatorKind::kFilter:
        by_kind[1] += result.stats[i].seconds;
        break;
      case midas::OperatorKind::kJoin:
        by_kind[2] += result.stats[i].seconds;
        break;
      case midas::OperatorKind::kAggregate:
        by_kind[3] += result.stats[i].seconds;
        break;
      default:
        break;
    }
  }
  ph->samples["exec.total"].push_back(result.total_seconds);
  ph->samples["exec.scan"].push_back(by_kind[0]);
  ph->samples["exec.filter"].push_back(by_kind[1]);
  ph->samples["exec.join"].push_back(by_kind[2]);
  ph->samples["exec.aggregate"].push_back(by_kind[3]);
  ph->samples["exec.rows"].push_back(rows);
  if (measured && (result.digest == 0 ||
                   result.digest != out.actual.result_digest)) {
    return Status::Internal("re-executed plan changed its result digest");
  }
  return Status::OK();
}

/// Re-runs enumerate → extract → predict → fold on the pinned snapshot,
/// off the blocking path, and cross-checks the front and the chosen plan
/// against OptimizeQuery's.
Status Sidecar(MidasSystem& sys,
               const std::shared_ptr<const EstimatorSnapshot>& snap,
               const QueryRequest& req, const QueryOutcome& out, uint64_t q,
               bool measured, Phase* ph) {
  const double s0 = Now();
  midas::PlanEnumerator enumerator(&sys.federation(), &sys.catalog(),
                                   sys.options().moqp.enumerator);
  MIDAS_ASSIGN_OR_RETURN(std::vector<QueryPlan> plans,
                         enumerator.EnumeratePhysical(req.logical));
  const double s1 = Now();
  Matrix features(plans.size(), snap->num_features());
  for (size_t r = 0; r < plans.size(); ++r) {
    MIDAS_ASSIGN_OR_RETURN(Vector x,
                           midas::ExtractFeatures(sys.federation(), plans[r]));
    features.SetRow(r, x);
  }
  const double s2 = Now();
  MIDAS_ASSIGN_OR_RETURN(
      Matrix predicted,
      sys.modelling().PredictBatch(*snap, req.scope, features,
                                   sys.options().estimator));
  const double s3 = Now();
  std::vector<Vector> costs(plans.size());
  for (size_t r = 0; r < plans.size(); ++r) costs[r] = predicted.Row(r);
  std::vector<Vector> front;
  std::unordered_set<Vector, midas::VectorHash> seen;
  for (size_t idx : midas::ParetoFrontIndices(costs)) {
    if (seen.insert(costs[idx]).second) front.push_back(costs[idx]);
  }
  MIDAS_ASSIGN_OR_RETURN(size_t chosen, midas::BestInPareto(front, req.policy));
  const double s4 = Now();

  Tracer& tr = ph->tracer;
  tr.Add(q, "query.enumerate", "sidecar", s0, s1);
  tr.Add(q, "features.extract", "sidecar", s1, s2);
  tr.Add(q, "modelling.predict", "sidecar", s2, s3);
  tr.Add(q, "optimizer.fold", "sidecar", s3, s4);
  ph->samples["query.candidates"].push_back(static_cast<double>(plans.size()));
  ph->samples["optimizer.front_size"].push_back(
      static_cast<double>(front.size()));

  if (!Covered(front, out.moqp.pareto_costs) ||
      !Covered(out.moqp.pareto_costs, front)) {
    return Status::Internal("sidecar Pareto front differs from OptimizeQuery's");
  }
  if (!SameChoice(front, chosen, out.moqp.chosen_costs(), req.policy)) {
    return Status::Internal("sidecar chose another plan than OptimizeQuery");
  }
  MIDAS_RETURN_IF_ERROR(ExecSidecar(sys, out, q, measured, ph));
  tr.Add(q, "sidecar", "", s0, Now());
  return Status::OK();
}

/// Per-scope DREAM diagnostics of a fit on the blocking path.
void RecordFit(const DreamEstimate& fit, size_t history, Phase* ph) {
  ph->samples["regression.window"].push_back(
      static_cast<double>(fit.window_size));
  ph->samples["regression.converged"].push_back(fit.converged ? 1.0 : 0.0);
  ph->samples["history"].push_back(static_cast<double>(history));
}

// --- closed loops -----------------------------------------------------------

struct ClosedLoopSpec {
  size_t queries = 0;  ///< per episode
  size_t bootstrap_runs = 16;
  /// Candidates per query, by scope.
  std::map<std::string, size_t> candidates;
  /// Measured cost source: digest checks apply, costs are wall-clock.
  bool measured = false;
  /// Builds the system for an episode seed (federation, catalog, options).
  std::function<StatusOr<std::unique_ptr<MidasSystem>>(uint64_t)> build;
  /// Scopes to bootstrap, with the logical plan their warm-up runs.
  std::vector<std::pair<std::string, QueryPlan>> bootstrap;
  /// The episode's request sequence.
  std::function<StatusOr<std::vector<QueryRequest>>(uint64_t)> requests;
};

class ClosedLoop : public Workload {
 public:
  explicit ClosedLoop(ClosedLoopSpec spec) : spec_(std::move(spec)) {}

  size_t tenants() const override { return spec_.bootstrap.size(); }
  bool deterministic() const override { return !spec_.measured; }

 protected:
  Status SetupOnly(uint64_t episode_seed, Phase* ph) override {
    return Setup(episode_seed, ph).status();
  }

  Status Episode(uint64_t episode_seed, bool traced, Phase* ph) override {
    MIDAS_ASSIGN_OR_RETURN(std::vector<QueryRequest> requests,
                           spec_.requests(episode_seed));
    MIDAS_ASSIGN_OR_RETURN(std::unique_ptr<MidasSystem> sys,
                           Setup(episode_seed, ph));
    std::vector<std::pair<QueryPlan, uint64_t>> replays;
    const double loop_start = Now();
    double prev_end = loop_start;
    for (const QueryRequest& req : requests) {
      ++ph->attempted;
      const double begin = Now();
      ph->samples["client.turnaround"].push_back(begin - prev_end);
      double traced_latency = 0.0;
      StatusOr<QueryOutcome> out =
          traced ? TracedQuery(*sys, req, ph, &traced_latency)
                 : sys->RunQuery(req.scope, req.logical, req.policy);
      const double latency = traced ? traced_latency : Now() - begin;
      const std::string problem =
          out.ok() ? CheckOutcome(*out, spec_.candidates.at(req.scope),
                                  spec_.measured)
                   : out.status().ToString();
      if (!problem.empty()) {
        ph->Fail(problem);
      } else {
        RecordOutcome(*out, latency, ph);
        if (spec_.measured && replays.size() < kDigestReplays) {
          replays.emplace_back(out->moqp.chosen_plan(),
                               out->actual.result_digest);
        }
      }
      prev_end = Now();
    }
    ph->timed_seconds += Now() - loop_start;
    // A re-executed instance must reproduce its result digest.
    for (const auto& [plan, digest] : replays) {
      ++ph->attempted;
      StatusOr<midas::exec::ExecResult> again =
          sys->simulator().ExecuteMeasured(plan);
      if (!again.ok() || again->digest != digest) {
        ph->Fail("re-executed instance changed its result digest");
      }
    }
    if (traced) {
      const midas::exec::TableCache* cache = sys->simulator().table_cache();
      if (cache != nullptr) {
        const midas::exec::TableCacheStats stats = cache->Stats();
        ph->counters["tpch.table_cache_misses"] =
            static_cast<double>(stats.misses);
        ph->counters["tpch.table_bytes"] =
            static_cast<double>(stats.resident_bytes);
      }
    }
    return Status::OK();
  }

 private:
  StatusOr<std::unique_ptr<MidasSystem>> Setup(uint64_t episode_seed,
                                               Phase* ph) {
    const double t0 = Now();
    MIDAS_ASSIGN_OR_RETURN(std::unique_ptr<MidasSystem> sys,
                           spec_.build(episode_seed));
    const double tb = Now();
    for (const auto& [scope, logical] : spec_.bootstrap) {
      MIDAS_RETURN_IF_ERROR(
          sys->Bootstrap(scope, logical, spec_.bootstrap_runs));
    }
    const double t1 = Now();
    ph->setup_seconds.push_back(t1 - t0);
    ph->bootstrap_seconds.push_back(t1 - tb);
    return sys;
  }

  /// RunQuery's work as separate calls — pin → DreamFit → OptimizeQuery →
  /// execute → publish — each one a span, then the sidecar.
  StatusOr<QueryOutcome> TracedQuery(MidasSystem& sys, const QueryRequest& req,
                                     Phase* ph, double* latency) {
    const uint64_t q = ph->next_query++;
    const double t0 = Now();
    std::shared_ptr<const EstimatorSnapshot> snap = sys.modelling().Snapshot();
    const double t1 = Now();
    StatusOr<std::shared_ptr<const DreamEstimate>> fit =
        snap->DreamFit(req.scope, sys.options().estimator.dream);
    const double t2 = Now();
    MIDAS_RETURN_IF_ERROR(fit.status());
    MIDAS_ASSIGN_OR_RETURN(QueryOutcome out, sys.OptimizeQuery(snap, req));
    const double t3 = Now();
    MIDAS_ASSIGN_OR_RETURN(
        midas::Scheduler::BatchWriteResult write,
        sys.scheduler().ExecuteAndRecordBatch(req.scope,
                                              {out.moqp.chosen_plan()}));
    const double t4 = Now();
    out.actual = write.measurements.front();
    const double publish_start = t4 - write.publish_seconds;
    Tracer& tr = ph->tracer;
    tr.Add(q, "query", "", t0, t4);
    tr.Add(q, "snapshot.pin", "query", t0, t1);
    tr.Add(q, "regression.fit", "query", t1, t2);
    tr.Add(q, "moqp.optimize", "query", t2, t3);
    tr.Add(q, "engine.execute", "query", t3, publish_start);
    tr.Add(q, "snapshot.publish", "query", publish_start, t4);
    *latency = t4 - t0;
    RecordFit(**fit, snap->SizeOf(req.scope), ph);
    MIDAS_RETURN_IF_ERROR(Sidecar(sys, snap, req, out, q, spec_.measured, ph));
    return out;
  }

  ClosedLoopSpec spec_;
};

StatusOr<std::unique_ptr<MidasSystem>> MedicalSystem(Federation federation,
                                                     MidasOptions options) {
  MIDAS_ASSIGN_OR_RETURN(Catalog catalog,
                         midas::MakeMedicalCatalog(/*scale=*/0.05));
  return std::make_unique<MidasSystem>(std::move(federation),
                                       std::move(catalog), std::move(options));
}

/// Closed loop over one scope and one logical plan, policies cycling from
/// a seeded offset.
std::function<StatusOr<std::vector<QueryRequest>>(uint64_t)> CyclingRequests(
    std::string scope, QueryPlan logical, size_t n) {
  return [scope, logical, n](uint64_t seed) {
    midas::Rng rng(MixSeed(seed, 1));
    const size_t offset = rng.Index(kNumWeightings);
    std::vector<QueryRequest> out;
    out.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      out.push_back(QueryRequest{scope, logical, Policy(offset + k)});
    }
    return StatusOr<std::vector<QueryRequest>>(std::move(out));
  };
}

/// Example 2.1 on the paper's two-cloud federation, one growing history.
std::unique_ptr<Workload> MedicalHistory() {
  const QueryPlan query = midas::MakeExample21Query().ValueOrDie();
  ClosedLoopSpec spec;
  spec.queries = 5;
  spec.bootstrap_runs = 100;
  spec.candidates = {{"medical", 96}};
  spec.build = [](uint64_t seed) -> StatusOr<std::unique_ptr<MidasSystem>> {
    Federation federation = Federation::PaperFederation();
    MIDAS_RETURN_IF_ERROR(midas::PlaceMedicalTables(&federation));
    MidasOptions options;
    options.seed = seed;
    return MedicalSystem(std::move(federation), std::move(options));
  };
  spec.bootstrap = {{"medical", query}};
  spec.requests = CyclingRequests("medical", query, spec.queries);
  return std::make_unique<ClosedLoop>(std::move(spec));
}

/// Patient ⋈ GeneralInfo ⋈ LabResult with an aggregate over three clouds,
/// LabResult on cloud-C (Spark), eight VM counts per site.
std::unique_ptr<Workload> WidePlanSpace() {
  auto join = midas::MakeJoin(midas::MakeScan("Patient"),
                              midas::MakeScan("GeneralInfo"), "UID", "UID");
  auto join3 = midas::MakeJoin(std::move(join), midas::MakeScan("LabResult"),
                               "UID", "UID");
  const QueryPlan query(midas::MakeAggregate(std::move(join3), 25));
  ClosedLoopSpec spec;
  spec.queries = 25;
  spec.candidates = {{"wide", 10240}};
  spec.build = [](uint64_t seed)
      -> StatusOr<std::unique_ptr<MidasSystem>> {
    Federation federation = Federation::ThreeCloudFederation();
    MIDAS_RETURN_IF_ERROR(midas::PlaceMedicalTables(&federation));
    MIDAS_ASSIGN_OR_RETURN(midas::SiteId c,
                           federation.FindSiteByName("cloud-C"));
    MIDAS_RETURN_IF_ERROR(
        federation.PlaceTable("LabResult", c, midas::EngineKind::kSpark));
    MidasOptions options;
    options.seed = seed;
    options.moqp.enumerator.node_counts = {1, 2, 3, 4, 5, 6, 7, 8};
    return MedicalSystem(std::move(federation), std::move(options));
  };
  spec.bootstrap = {{"wide", query}};
  spec.requests = CyclingRequests("wide", query, spec.queries);
  return std::make_unique<ClosedLoop>(std::move(spec));
}

/// The two-cloud TPC-H set-up of the paper's Tables 3/4: Hive on an
/// Amazon site, PostgreSQL on a Microsoft site.
StatusOr<Federation> TpchFederation() {
  Federation fed;
  const midas::InstanceCatalog instances =
      midas::InstanceCatalog::PaperTable1();
  midas::SiteConfig hive;
  hive.name = "cloud-A";
  hive.provider = midas::ProviderKind::kAmazon;
  hive.engines = {midas::EngineKind::kHive};
  MIDAS_ASSIGN_OR_RETURN(hive.node_type, instances.Find("a1.xlarge"));
  hive.max_nodes = 8;
  MIDAS_ASSIGN_OR_RETURN(midas::SiteId a, fed.AddSite(hive));
  midas::SiteConfig pg;
  pg.name = "cloud-B";
  pg.provider = midas::ProviderKind::kMicrosoft;
  pg.engines = {midas::EngineKind::kPostgres};
  MIDAS_ASSIGN_OR_RETURN(pg.node_type, instances.Find("B2S"));
  pg.max_nodes = 8;
  MIDAS_ASSIGN_OR_RETURN(midas::SiteId b, fed.AddSite(pg));
  midas::NetworkLink wan;
  wan.bandwidth_mbps = 200.0;
  wan.latency_ms = 25.0;
  wan.egress_price_per_gib = 0.09;
  MIDAS_RETURN_IF_ERROR(fed.network().SetLink(a, b, wan));
  wan.egress_price_per_gib = 0.087;
  MIDAS_RETURN_IF_ERROR(fed.network().SetLink(b, a, wan));
  // Probe-side tables in PostgreSQL, lineitem in Hive.
  MIDAS_RETURN_IF_ERROR(fed.PlaceTable("orders", b, midas::EngineKind::kPostgres));
  MIDAS_RETURN_IF_ERROR(fed.PlaceTable("part", b, midas::EngineKind::kPostgres));
  MIDAS_RETURN_IF_ERROR(fed.PlaceTable("lineitem", a, midas::EngineKind::kHive));
  return fed;
}

const std::vector<int> kTpchQueries = {12, 14, 17};

std::string TpchScope(int query_id) {
  return "tpch-q" + std::to_string(query_id);
}

midas::tpch::WorkloadOptions TpchOptions(uint64_t seed) {
  midas::tpch::WorkloadOptions options;
  options.scale_factor = 0.1;
  options.seed = seed;
  options.query_ids = kTpchQueries;
  return options;
}

/// Jittered TPC-H Q12/Q14/Q17 instances executed on the vectorized
/// engine (measured cost source), one scope per query id.
std::unique_ptr<Workload> TpchMeasured() {
  ClosedLoopSpec spec;
  spec.queries = 500;
  spec.bootstrap_runs = 8;
  spec.measured = true;
  spec.candidates = {{TpchScope(12), 64}, {TpchScope(14), 64},
                     {TpchScope(17), 64}};
  for (int id : kTpchQueries) {
    spec.bootstrap.emplace_back(TpchScope(id),
                                midas::tpch::MakeQuery(id).ValueOrDie());
  }
  spec.build = [](uint64_t seed) -> StatusOr<std::unique_ptr<MidasSystem>> {
    MIDAS_ASSIGN_OR_RETURN(Federation federation, TpchFederation());
    midas::tpch::Workload workload(TpchOptions(seed));
    MidasOptions options;
    options.seed = seed;
    options.simulator.cost_source = midas::CostSource::kMeasured;
    // M_max = 2N with N = L + 2, the Tables 3/4 setting.
    const size_t features = midas::FeatureNames(federation).size();
    options.estimator.dream.m_max = 2 * (features + 2);
    return std::make_unique<MidasSystem>(std::move(federation),
                                         workload.catalog(), options);
  };
  const size_t n = spec.queries;
  spec.requests = [n](uint64_t seed) -> StatusOr<std::vector<QueryRequest>> {
    midas::tpch::Workload workload(TpchOptions(MixSeed(seed, 2)));
    std::vector<QueryRequest> out;
    for (size_t k = 0; k < n; ++k) {
      // Templates in turn, so every seed runs the same mix.
      MIDAS_ASSIGN_OR_RETURN(
          midas::tpch::WorkloadItem item,
          workload.NextForQuery(kTpchQueries[k % kTpchQueries.size()]));
      out.push_back(QueryRequest{TpchScope(item.query_id),
                                 std::move(item.logical), Policy(k)});
    }
    return out;
  };
  return std::make_unique<ClosedLoop>(std::move(spec));
}

// --- multi-tenant service ---------------------------------------------------

constexpr size_t kServeTenants = 64;
/// Executor slots, and closed-loop callers with one request in flight
/// each: three callers per slot keep a bounded queue in front of the
/// slots, so a slot never waits for a wake-up between requests.
constexpr size_t kServeSlots = 2;
constexpr size_t kServeClients = 3 * kServeSlots;
constexpr size_t kServeRequests = 600;  ///< per episode, over all callers
constexpr size_t kServeBootstrap = 48;  ///< runs per tenant

std::string Tenant(size_t t) { return "t" + std::to_string(t); }

/// A QueryService over 64 tenants running Example 2.1, called by
/// kServeClients closed-loop callers that each wait for their reply. The
/// loop is closed and saturates the slots on purpose: an open loop that
/// left the slots idle between arrivals turned the shared host's thread
/// wake-up delays into a p95 that moved by more than half between runs.
class ServeTenants : public Workload {
 public:
  ServeTenants() : query_(midas::MakeExample21Query().ValueOrDie()) {}

  size_t tenants() const override { return kServeTenants; }
  bool deterministic() const override { return false; }

 protected:
  Status SetupOnly(uint64_t episode_seed, Phase* ph) override {
    return Setup(episode_seed, ph).status();
  }

  Status Episode(uint64_t episode_seed, bool traced, Phase* ph) override {
    // Inputs: tenant picks and policies, request i going to client
    // i mod kServeClients.
    midas::Rng rng(MixSeed(episode_seed, 3));
    std::vector<size_t> tenant(kServeRequests);
    std::vector<size_t> policy(kServeRequests);
    for (size_t i = 0; i < kServeRequests; ++i) {
      tenant[i] = rng.Index(kServeTenants);
      policy[i] = rng.Index(kNumWeightings);
    }
    MIDAS_ASSIGN_OR_RETURN(std::unique_ptr<MidasSystem> sys,
                           Setup(episode_seed, ph));

    midas::ServeOptions options;
    options.slots = std::min(kServeSlots,
                             std::max<size_t>(1, AvailableCpus() - 1));
    options.queue_capacity = kServeRequests;
    options.tenant_inflight_cap = 0;
    struct Call {
      double start = 0.0;
      double end = 0.0;
      double turnaround = 0.0;  ///< since the client's previous outcome
      double pin = 0.0;
      midas::QueryService::Result result =
          Status::Internal("request was not sent");
    };
    std::vector<Call> calls(kServeRequests);
    midas::ServeStats stats;
    const double loop_start = Now();
    {
      midas::QueryService service(sys.get(), options);
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kServeClients; ++c) {
        clients.emplace_back([&, c] {
          double previous_end = loop_start;
          for (size_t i = c; i < kServeRequests; i += kServeClients) {
            Call& call = calls[i];
            call.start = Now();
            call.turnaround = call.start - previous_end;
            StatusOr<std::future<midas::QueryService::Result>> future =
                service.Submit(Tenant(tenant[i]),
                               QueryRequest{Tenant(tenant[i]), query_,
                                            Policy(policy[i])});
            call.result = future.ok() ? future->get()
                                      : midas::QueryService::Result(
                                            future.status());
            call.end = Now();
            if (traced) {
              // Pin latency under live load (the other client's request
              // pinning and publishing).
              std::shared_ptr<const EstimatorSnapshot> snap =
                  sys->modelling().Snapshot();
              call.pin = Now() - call.end;
            }
            previous_end = Now();
          }
        });
      }
      for (std::thread& client : clients) client.join();
      service.Drain();
      stats = service.stats();
    }
    ph->timed_seconds += Now() - loop_start;
    ph->counters["serve.rejected"] +=
        static_cast<double>(stats.admission.rejected_capacity +
                            stats.admission.rejected_tenant_cap);
    ph->counters["serve.failed"] += static_cast<double>(stats.failed);

    std::vector<uint64_t> seqs;
    for (const Call& call : calls) {
      ++ph->attempted;
      if (!call.result.ok()) {
        ph->Fail(call.result.status().ToString());
        continue;
      }
      const midas::Served& served = *call.result;
      const double latency = call.end - call.start;
      seqs.push_back(served.execution_seq);
      std::string problem = CheckOutcome(served.outcome, 96, false);
      if (problem.empty() && served.admission_epoch > served.feedback_epoch) {
        problem = "admission epoch after feedback epoch";
      }
      if (!problem.empty()) {
        ph->Fail(problem);
        continue;
      }
      RecordOutcome(served.outcome, latency, ph);
      ph->samples["client.turnaround"].push_back(call.turnaround);
      ph->samples["serve.queue"].push_back(served.queue_seconds);
      ph->samples["serve.service"].push_back(served.service_seconds);
      ph->samples["serve.publish"].push_back(served.publish_seconds);
      if (traced) {
        const uint64_t q = ph->next_query++;
        const double dispatched = call.start + served.queue_seconds;
        const double done = dispatched + served.service_seconds;
        const double publish_start = done - served.publish_seconds;
        ph->samples["snapshot.pin"].push_back(call.pin);
        Tracer& tr = ph->tracer;
        tr.Add(q, "query", "", call.start, call.end);
        tr.Add(q, "serve.queue", "query", call.start, dispatched);
        tr.Add(q, "serve.optimize_execute", "query", dispatched,
               publish_start);
        tr.Add(q, "snapshot.publish", "query", publish_start, done);
        tr.Add(q, "serve.reply", "query", done, call.end);
      }
    }
    // Every accepted request ran exactly once, in a dense global order.
    std::sort(seqs.begin(), seqs.end());
    for (size_t i = 0; i < seqs.size(); ++i) {
      if (seqs[i] != i + 1) {
        ph->Fail("execution_seq is not dense");
        break;
      }
    }
    if (traced) MIDAS_RETURN_IF_ERROR(TenantSidecars(*sys, ph));
    return Status::OK();
  }

 private:
  StatusOr<std::unique_ptr<MidasSystem>> Setup(uint64_t episode_seed,
                                               Phase* ph) {
    const double t0 = Now();
    Federation federation = Federation::PaperFederation();
    MIDAS_RETURN_IF_ERROR(midas::PlaceMedicalTables(&federation));
    MidasOptions options;
    options.seed = episode_seed;
    MIDAS_ASSIGN_OR_RETURN(std::unique_ptr<MidasSystem> sys,
                           MedicalSystem(std::move(federation), options));
    const double tb = Now();
    for (size_t t = 0; t < kServeTenants; ++t) {
      MIDAS_RETURN_IF_ERROR(
          sys->Bootstrap(Tenant(t), query_, kServeBootstrap));
    }
    const double t1 = Now();
    ph->setup_seconds.push_back(t1 - t0);
    ph->bootstrap_seconds.push_back(t1 - tb);
    return sys;
  }

  /// After the drain, per tenant on the final snapshot: the fresh fit,
  /// the warm OptimizeQuery, the stage sidecar and one execution.
  Status TenantSidecars(MidasSystem& sys, Phase* ph) {
    std::shared_ptr<const EstimatorSnapshot> snap = sys.modelling().Snapshot();
    for (size_t t = 0; t < kServeTenants; ++t) {
      const uint64_t q = ph->next_query++;
      const QueryRequest req{Tenant(t), query_, Policy(t)};
      const double t0 = Now();
      MIDAS_ASSIGN_OR_RETURN(
          std::shared_ptr<const DreamEstimate> fit,
          snap->DreamFit(req.scope, sys.options().estimator.dream));
      const double t1 = Now();
      MIDAS_ASSIGN_OR_RETURN(QueryOutcome out, sys.OptimizeQuery(snap, req));
      const double t2 = Now();
      MIDAS_ASSIGN_OR_RETURN(midas::Measurement m,
                             sys.scheduler().ExecuteOnly(out.moqp.chosen_plan()));
      const double t3 = Now();
      out.actual = m;
      ph->tracer.Add(q, "tenant", "", t0, t3);
      ph->tracer.Add(q, "regression.fit", "tenant", t0, t1);
      ph->tracer.Add(q, "moqp.optimize", "tenant", t1, t2);
      ph->tracer.Add(q, "engine.execute", "tenant", t2, t3);
      RecordFit(*fit, snap->SizeOf(req.scope), ph);
      MIDAS_RETURN_IF_ERROR(Sidecar(sys, snap, req, out, q, false, ph));
    }
    return Status::OK();
  }

  const QueryPlan query_;
};

}  // namespace

Status Workload::Run(uint64_t seed, double seconds, Phase* untraced,
                   Phase* traced) {
  const double start = Now();
  double last_loop = 0.0;
  size_t e = 0;
  for (;; ++e) {
    // Stop at the episode boundary nearest to the time budget, once
    // the sample floor is met.
    if (e > 0 &&
        ((untraced->timed_seconds + 0.5 * last_loop >= seconds &&
          untraced->latency.size() >= kMinSamples) ||
         Now() - start >= kMaxRunSeconds)) {
      break;
    }
    const uint64_t episode_seed = MixSeed(seed, e);
    const double before = untraced->timed_seconds;
    if (traced != nullptr && e % 2 == 1) {
      MIDAS_RETURN_IF_ERROR(Episode(episode_seed, true, traced));
    }
    MIDAS_RETURN_IF_ERROR(Episode(episode_seed, false, untraced));
    if (traced != nullptr && e % 2 == 0) {
      MIDAS_RETURN_IF_ERROR(Episode(episode_seed, true, traced));
    }
    last_loop = untraced->timed_seconds - before;
    if (e == 0) untraced->peak_rss_mib = PeakRssMib();
    ++untraced->episodes;
    if (traced != nullptr) ++traced->episodes;
  }
  // Long episodes fill a run on their own, and cheap set-ups are too
  // short to time once: set-up is repeated, on the seeds of the
  // episodes that would follow, until enough of it was timed.
  for (size_t extra = e;
       untraced->setup_seconds.size() < kMinSetups ||
       (Sum(untraced->setup_seconds) < kMinSetupSeconds &&
        untraced->setup_seconds.size() < kMaxSetups);
       ++extra) {
    MIDAS_RETURN_IF_ERROR(SetupOnly(MixSeed(seed, extra), untraced));
  }
  return Status::OK();
}

void Phase::Fail(const std::string& message) {
  ++failed;
  latency.push_back(kFailedLatencySeconds);
  if (errors.size() < 5) errors.push_back(message);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "medical_history") return MedicalHistory();
  if (name == "wide_plan_space") return WidePlanSpace();
  if (name == "serve_tenants") return std::make_unique<ServeTenants>();
  if (name == "tpch_measured") return TpchMeasured();
  return nullptr;
}

}  // namespace perfbench
