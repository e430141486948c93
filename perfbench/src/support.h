// Small helpers shared by midas_perfbench: exact order statistics,
// the in-memory span tracer of the traced run, a minimal JSON writer and
// the environment stamp.
#ifndef MIDAS_PERFBENCH_SUPPORT_H_
#define MIDAS_PERFBENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Seconds on the library's monotonic clock (the same clock QueryService
/// stamps its queue and service times with).
double Now();

/// Exact quantile of raw samples by linear interpolation between order
/// statistics (q in [0, 1]); 0 for an empty sample. No histogram
/// bucketing, so repeated runs never read identical by construction.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// SplitMix64 step: derives independent sub-seeds (episodes, streams)
/// from the run's --seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// \brief One timed call of the traced run. Names are static strings
/// ("regression.fit", "moqp.optimize", ...) so recording stays cheap.
struct Span {
  uint64_t query = 0;
  const char* name = "";
  const char* parent = "";  ///< "" for a root span
  double start = 0.0;       ///< Now() at entry
  double end = 0.0;         ///< Now() at exit
  double seconds() const { return end - start; }
};

/// \brief In-memory span store; written out once at the end of a run.
class Tracer {
 public:
  void Add(uint64_t query, const char* name, const char* parent,
           double start, double end) {
    spans_.push_back(Span{query, name, parent, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (seconds) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Self time per span name, summed over all queries: a span's duration
  /// minus the durations of its children (same query, parent == name).
  std::map<std::string, double> SelfTotals() const;

  /// Writes one JSON object per span, times relative to `origin`.
  midas::Status WriteJsonl(const std::string& path, double origin) const;

 private:
  std::vector<Span> spans_;
};

/// \brief Minimal ordered JSON object writer (numbers keep 17
/// significant digits).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Build() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);

/// Environment stamp: nproc (CPUs in this process's affinity mask),
/// std::thread::hardware_concurrency, the dispatched SIMD tier, build
/// type, compiler and git commit (MIDAS_GIT_COMMIT, else "unknown").
std::string EnvironmentJson();

/// CPUs this process may run on.
size_t AvailableCpus();

/// Peak resident set size of this process, MiB.
double PeakRssMib();

midas::Status WriteFile(const std::string& path, const std::string& text);
midas::Status MakeDirs(const std::string& path);

}  // namespace perfbench

#endif  // MIDAS_PERFBENCH_SUPPORT_H_
