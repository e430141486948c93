// End-to-end benchmark of the MIDAS query path.
//
//   midas_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--out <dir>]
//
// --trace 0 runs the workload through the public entry points and prints
// the end-to-end metrics; --trace 1 runs it once untraced and once traced
// (the same seed-derived inputs) and prints the per-layer metrics plus the
// tracing overhead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Output checks that fail make the exit code 1. Beside the results the
// run writes env.json, properties.json and, traced, spans.jsonl and
// layers.json into --out.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

double Ms(double seconds) { return seconds * 1e3; }

double Mre(const std::vector<double>& predicted,
           const std::vector<double>& actual) {
  midas::StatusOr<double> mre = midas::MeanRelativeError(predicted, actual);
  return mre.ok() ? *mre : std::nan("");
}

const std::vector<double>& Samples(const Phase& ph, const std::string& key) {
  static const std::vector<double> kEmpty;
  auto it = ph.samples.find(key);
  return it == ph.samples.end() ? kEmpty : it->second;
}

double Counter(const Phase& ph, const std::string& key) {
  auto it = ph.counters.find(key);
  return it == ph.counters.end() ? 0.0 : it->second;
}

double Max(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, x);
  return m;
}

/// Per-query statistics are taken over blocks of consecutive queries and
/// reported as the median over the blocks, so a burst of host noise or a
/// few extreme relative errors inside one block cannot move a figure.
/// Latency percentiles use blocks of kLatencyBlock queries (each keeps at
/// least ten samples beyond its p95); means and Eq. 15 MREs use blocks of
/// kMeanBlock (a median of means). A run shorter than two blocks is one.
constexpr size_t kLatencyBlock = 200;
constexpr size_t kMeanBlock = 50;

template <typename Stat>
double BlockMedian(size_t n, size_t block, const Stat& stat) {
  const size_t blocks = std::max<size_t>(1, n / block);
  std::vector<double> values;
  for (size_t b = 0; b < blocks; ++b) {
    values.push_back(stat(b * n / blocks, (b + 1) * n / blocks));
  }
  return Quantile(values, 0.5);
}

std::vector<double> Slice(const std::vector<double>& v, size_t lo, size_t hi) {
  return std::vector<double>(v.begin() + lo, v.begin() + hi);
}

std::vector<Metric> EndToEnd(const Phase& ph) {
  const size_t n = ph.latency.size();
  const size_t executed = ph.actual_seconds.size();
  auto latency = [&ph, n](double q) {
    return BlockMedian(n, kLatencyBlock, [&](size_t lo, size_t hi) {
      return Ms(Quantile(Slice(ph.latency, lo, hi), q));
    });
  };
  auto mre = [&ph, executed](const std::vector<double>& predicted,
                             const std::vector<double>& actual) {
    return BlockMedian(executed, kMeanBlock, [&](size_t lo, size_t hi) {
      return Mre(Slice(predicted, lo, hi), Slice(actual, lo, hi));
    });
  };
  auto mean = [executed](const std::vector<double>& v) {
    return BlockMedian(executed, kMeanBlock, [&](size_t lo, size_t hi) {
      return Mean(Slice(v, lo, hi));
    });
  };
  return {
      {"query_p50_ms", latency(0.50), "ms", n},
      {"query_p95_ms", latency(0.95), "ms", n},
      {"throughput_qps",
       ph.timed_seconds > 0 ? static_cast<double>(executed) / ph.timed_seconds
                            : 0.0,
       "1/s", executed},
      {"setup_s", Quantile(ph.setup_seconds, 0.5), "s",
       ph.setup_seconds.size()},
      {"peak_rss_mib", ph.peak_rss_mib, "MiB", 1},
      {"mre_seconds", mre(ph.predicted_seconds, ph.actual_seconds), "ratio",
       executed},
      {"mre_dollars", mre(ph.predicted_dollars, ph.actual_dollars), "ratio",
       executed},
      {"chosen_seconds_mean", mean(ph.actual_seconds), "s", executed},
      {"chosen_dollars_mean", mean(ph.actual_dollars), "USD", executed},
  };
}

/// Per-layer metrics of the traced pass. The callers are closed loops,
/// so serve.generator_lag_p95_ms is the callers' own turnaround between an
/// outcome and their next call; the single-client workloads have no
/// admission queue, and there serve.queue_wait_* is that turnaround too
/// and serve.service_p50_ms the call-to-outcome time.
std::vector<Metric> PerLayer(const Phase& untraced, const Phase& ph,
                             double blocking_share) {
  const Tracer& tr = ph.tracer;
  const std::vector<double> fit = tr.Durations("regression.fit");
  const std::vector<double> optimize = tr.Durations("moqp.optimize");
  const std::vector<double> predict = tr.Durations("modelling.predict");
  const std::vector<double>& candidates = Samples(ph, "query.candidates");
  std::vector<double> pins = tr.Durations("snapshot.pin");
  for (double p : Samples(ph, "snapshot.pin")) pins.push_back(p);
  const std::vector<double> publish = tr.Durations("snapshot.publish");
  // regression.fit_share is relative to the spans the fits sit under.
  const char* fit_parent = "";
  for (const Span& s : tr.spans()) {
    if (std::strcmp(s.name, "regression.fit") == 0) {
      fit_parent = s.parent;
      break;
    }
  }
  const std::vector<double> roots = tr.Durations(fit_parent);
  const bool served = !Samples(ph, "serve.queue").empty();
  const std::vector<double>& queue =
      served ? Samples(ph, "serve.queue") : Samples(ph, "client.turnaround");
  const std::vector<double>& service =
      served ? Samples(ph, "serve.service") : ph.latency;
  const std::vector<double>& serve_publish =
      served ? Samples(ph, "serve.publish") : publish;
  const std::vector<double>& lag = Samples(ph, "client.turnaround");
  const std::vector<double>& exec_total = Samples(ph, "exec.total");
  const double exec_seconds = Sum(exec_total);
  return {
      {"regression.fit_ms_p50", Ms(Quantile(fit, 0.5)), "ms", fit.size()},
      {"regression.fit_share", Sum(roots) > 0 ? Sum(fit) / Sum(roots) : 0.0,
       "ratio", fit.size()},
      {"regression.window_mean", Mean(Samples(ph, "regression.window")),
       "count", Samples(ph, "regression.window").size()},
      {"regression.converged_share", Mean(Samples(ph, "regression.converged")),
       "ratio", Samples(ph, "regression.converged").size()},
      {"regression.history_max", Max(Samples(ph, "history")), "count",
       Samples(ph, "history").size()},
      {"query.enumerate_ms", Ms(Quantile(tr.Durations("query.enumerate"), 0.5)),
       "ms", candidates.size()},
      {"query.candidates", Mean(candidates), "count", candidates.size()},
      {"features.extract_ms",
       Ms(Quantile(tr.Durations("features.extract"), 0.5)), "ms",
       candidates.size()},
      {"modelling.predict_ms", Ms(Quantile(predict, 0.5)), "ms",
       predict.size()},
      {"modelling.rows_per_s",
       Sum(predict) > 0 ? Sum(candidates) / Sum(predict) : 0.0, "1/s",
       predict.size()},
      {"optimizer.fold_ms", Ms(Quantile(tr.Durations("optimizer.fold"), 0.5)),
       "ms", candidates.size()},
      {"optimizer.front_size", Mean(Samples(ph, "optimizer.front_size")),
       "count", candidates.size()},
      {"moqp.optimize_ms", Ms(Quantile(optimize, 0.5)), "ms",
       optimize.size()},
      {"moqp.plans_per_s",
       Sum(optimize) > 0 ? Sum(candidates) / Sum(optimize) : 0.0, "1/s",
       optimize.size()},
      {"snapshot.pin_us", Quantile(pins, 0.5) * 1e6, "us", pins.size()},
      {"snapshot.publish_ms", Ms(Quantile(publish, 0.5)), "ms",
       publish.size()},
      {"serve.queue_wait_p50_ms", Ms(Quantile(queue, 0.5)), "ms",
       queue.size()},
      {"serve.queue_wait_p95_ms", Ms(Quantile(queue, 0.95)), "ms",
       queue.size()},
      {"serve.service_p50_ms", Ms(Quantile(service, 0.5)), "ms",
       service.size()},
      {"serve.publish_p50_ms", Ms(Quantile(serve_publish, 0.5)), "ms",
       serve_publish.size()},
      {"serve.rejected", Counter(ph, "serve.rejected"), "count", 1},
      {"serve.failed", Counter(ph, "serve.failed"), "count", 1},
      {"serve.generator_lag_p95_ms", Ms(Quantile(lag, 0.95)), "ms",
       lag.size()},
      {"engine.execute_ms", Ms(Quantile(tr.Durations("engine.execute"), 0.5)),
       "ms", tr.Durations("engine.execute").size()},
      {"exec.total_ms", Ms(Mean(exec_total)), "ms", exec_total.size()},
      {"exec.scan_ms", Ms(Mean(Samples(ph, "exec.scan"))), "ms",
       exec_total.size()},
      {"exec.filter_ms", Ms(Mean(Samples(ph, "exec.filter"))), "ms",
       exec_total.size()},
      {"exec.join_ms", Ms(Mean(Samples(ph, "exec.join"))), "ms",
       exec_total.size()},
      {"exec.aggregate_ms", Ms(Mean(Samples(ph, "exec.aggregate"))), "ms",
       exec_total.size()},
      {"exec.rows_per_s",
       exec_seconds > 0 ? Sum(Samples(ph, "exec.rows")) / exec_seconds : 0.0,
       "1/s", exec_total.size()},
      {"setup.bootstrap_s", Quantile(ph.bootstrap_seconds, 0.5), "s",
       ph.bootstrap_seconds.size()},
      {"tpch.table_cache_misses", Counter(ph, "tpch.table_cache_misses"),
       "count", 1},
      {"tpch.table_bytes", Counter(ph, "tpch.table_bytes"), "bytes", 1},
      {"trace.latency_p50_ms", Ms(Quantile(ph.latency, 0.5)), "ms",
       ph.latency.size()},
      {"trace.overhead_ms",
       Ms(Quantile(ph.latency, 0.5) - Quantile(untraced.latency, 0.5)), "ms",
       ph.latency.size()},
      {"trace.blocking_share", blocking_share, "ratio", ph.latency.size()},
  };
}

/// Blocking-path span totals as shares of the traced query latency.
std::vector<std::pair<std::string, double>> BlockingShares(const Tracer& tr) {
  std::map<std::string, double> totals;
  double query = 0.0;
  for (const Span& s : tr.spans()) {
    if (std::strcmp(s.name, "query") == 0) query += s.seconds();
    if (std::strcmp(s.parent, "query") == 0) totals[s.name] += s.seconds();
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, total] : totals) {
    out.emplace_back(name, query > 0 ? total / query : 0.0);
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).Build());
  }
  return obj.Build();
}

std::string PropertiesJson(const Args& args, const Workload& workload,
                           const Phase& untraced, const Phase* traced,
                           const std::vector<std::pair<std::string, double>>&
                               shares) {
  JsonObject obj;
  obj.Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("episodes", static_cast<int64_t>(untraced.episodes))
      .Int("queries", static_cast<int64_t>(untraced.latency.size()))
      .Int("tenants", static_cast<int64_t>(workload.tenants()))
      .Num("candidates_per_query", Mean(Samples(untraced, "candidates")))
      .Num("rows_scanned_per_query_estimated",
           Mean(Samples(untraced, "rows_scanned_est")));
  if (traced != nullptr) {
    const std::vector<double>& history = Samples(*traced, "history");
    double lo = history.empty() ? 0.0 : history.front();
    for (double h : history) lo = std::min(lo, h);
    const std::vector<double>& exec_rows = Samples(*traced, "exec.rows");
    obj.Num("converged_share", Mean(Samples(*traced, "regression.converged")))
        .Num("window_mean", Mean(Samples(*traced, "regression.window")))
        .Num("history_min", lo)
        .Num("history_max", Max(history))
        .Num("rows_scanned_per_query_measured", Mean(exec_rows));
    JsonObject share_obj;
    std::string largest;
    double largest_share = -1.0;
    for (const auto& [name, share] : shares) {
      share_obj.Num(name, share);
      if (share > largest_share) {
        largest_share = share;
        largest = name;
      }
    }
    obj.Raw("blocking_shares", share_obj.Build())
        .Str("largest_blocking_span", largest);
  }
  return obj.Build();
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: midas_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!args.out.empty()) {
    midas::Status made = MakeDirs(args.out);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.ToString().c_str());
      return 1;
    }
  }

  const double origin = Now();
  Phase untraced;
  Phase traced;
  midas::Status status = workload->Run(args.seed, args.seconds, &untraced,
                                       args.trace ? &traced : nullptr);
  if (!status.ok()) {
    std::fprintf(stderr, "workload aborted: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<std::string> problems = untraced.errors;
  for (const std::string& e : traced.errors) problems.push_back(e);
  size_t attempted = untraced.attempted + traced.attempted;
  size_t failed = untraced.failed + traced.failed;
  const std::vector<Metric> e2e = EndToEnd(untraced);
  for (const Metric& m : e2e) {
    if (!std::isfinite(m.value)) {
      problems.push_back(m.name + " is not finite");
      ++failed;
    }
  }

  std::vector<Metric> metrics = e2e;
  std::vector<std::pair<std::string, double>> shares;
  if (args.trace) {
    shares = BlockingShares(traced.tracer);
    double blocking = 0.0;
    for (const auto& share : shares) blocking += share.second;
    // The blocking-path spans must account for the traced latency.
    ++attempted;
    if (std::abs(blocking - 1.0) > 0.05) {
      problems.push_back("blocking-path spans cover " +
                         std::to_string(blocking) + " of the latency");
      ++failed;
    }
    // The traced pass does RunQuery's work as separate calls; on a
    // deterministic workload it must reproduce every outcome.
    if (workload->deterministic()) {
      ++attempted;
      if (traced.outcome_fingerprint != untraced.outcome_fingerprint) {
        problems.push_back("traced outcomes differ from the untraced run");
        ++failed;
      }
    }
    metrics = PerLayer(untraced, traced, blocking);
    midas::Status wrote = midas::Status::OK();
    if (!args.out.empty()) {
      wrote = traced.tracer.WriteJsonl(args.out + "/spans.jsonl", origin);
      JsonObject layers;
      for (const auto& [name, self] : traced.tracer.SelfTotals()) {
        layers.Num(name, self);
      }
      if (wrote.ok()) {
        wrote = WriteFile(args.out + "/layers.json", layers.Build() + "\n");
      }
    }
    if (!wrote.ok()) {
      problems.push_back(wrote.ToString());
      ++failed;
    }
  }

  const bool correct = failed == 0;
  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", static_cast<int64_t>(attempted))
      .Int("failed", static_cast<int64_t>(failed))
      .Raw("metrics", MetricsJson(metrics));
  const std::string line = result.Build();

  if (!args.out.empty()) {
    midas::Status wrote = WriteFile(args.out + "/env.json",
                                    EnvironmentJson() + "\n");
    if (wrote.ok()) {
      wrote = WriteFile(args.out + "/properties.json",
                        PropertiesJson(args, *workload, untraced,
                                       args.trace ? &traced : nullptr, shares) +
                            "\n");
    }
    if (wrote.ok()) wrote = WriteFile(args.out + "/result.json", line + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  std::printf("workload %s seed %llu trace %d: %zu episodes\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              untraced.episodes);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
