// The benchmark's four workloads, run through the public MIDAS entry
// points (MidasSystem::RunQuery, QueryService::Submit), plus the traced
// form of each that times the calls into every layer.
#ifndef MIDAS_PERFBENCH_WORKLOADS_H_
#define MIDAS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "support.h"

namespace perfbench {

/// Latency a failed query is charged with: it misses every latency
/// limit, so failures can never improve a percentile.
inline constexpr double kFailedLatencySeconds = 180.0;

/// \brief Everything one pass over a run's episodes measured.
struct Phase {
  /// Per query, in completion order. Failed queries carry
  /// kFailedLatencySeconds.
  std::vector<double> latency;
  /// Predicted vs measured cost of every executed plan (paper Eq. 15).
  std::vector<double> predicted_seconds, actual_seconds;
  std::vector<double> predicted_dollars, actual_dollars;
  /// Per query: the chosen plan's predicted and measured seconds, in
  /// request order — the traced pass must reproduce the untraced one.
  std::vector<double> outcome_fingerprint;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  /// Wall time of the query loops (set-up excluded): the measured time
  /// --seconds budgets.
  double timed_seconds = 0.0;
  size_t episodes = 0;
  /// Peak resident memory when the first episode ended: one set-up plus
  /// its queries, whatever number of episodes the time budget admits.
  double peak_rss_mib = 0.0;
  std::vector<double> setup_seconds;
  std::vector<double> bootstrap_seconds;
  /// Per-layer samples by key (seconds for timings, raw values for
  /// windows, sizes and counts), filled by traced passes and, for the
  /// client-side serve.* analogues, by untraced closed loops too.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counters;
  Tracer tracer;
  uint64_t next_query = 0;
  size_t exec_sidecars = 0;

  void Fail(const std::string& message);
};

/// \brief One named workload. Run executes episodes 0, 1, ... — each a
/// fresh set-up plus a fixed request sequence derived from the seed —
/// until `seconds` of query-loop time and enough latency samples were
/// collected. With `traced` set, every episode also runs in traced form on
/// the same inputs (alternating which form goes first), so the two
/// phases do identical work.
class Workload {
 public:
  virtual ~Workload() = default;
  midas::Status Run(uint64_t seed, double seconds, Phase* untraced,
                    Phase* traced);
  /// History scopes (tenants) one episode serves.
  virtual size_t tenants() const = 0;
  /// Whether a pass is a pure function of the seed (analytical costs, one
  /// serial writer), so a traced pass must reproduce the untraced one.
  virtual bool deterministic() const = 0;

 protected:
  /// One fresh set-up plus the episode's requests, untraced or traced.
  virtual midas::Status Episode(uint64_t episode_seed, bool traced,
                                Phase* ph) = 0;
  /// The episode's set-up alone (timed into ph->setup_seconds).
  virtual midas::Status SetupOnly(uint64_t episode_seed, Phase* ph) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // MIDAS_PERFBENCH_WORKLOADS_H_
