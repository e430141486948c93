#include "support.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_env_common.h"
#include "common/statistics.h"
#include "linalg/simd.h"

namespace perfbench {

double Now() { return midas::MonotonicSeconds(); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

std::map<std::string, double> Tracer::SelfTotals() const {
  std::map<std::string, double> totals;
  for (const Span& s : spans_) totals[s.name] += s.seconds();
  // Every child's duration is subtracted from its parent's name, so the
  // totals are self times however spans nest or interleave.
  for (const Span& s : spans_) {
    if (*s.parent != '\0') totals[s.parent] -= s.seconds();
  }
  return totals;
}

midas::Status Tracer::WriteJsonl(const std::string& path,
                                 double origin) const {
  std::ostringstream out;
  for (const Span& s : spans_) {
    out << JsonObject()
               .Int("query", static_cast<int64_t>(s.query))
               .Str("span", s.name)
               .Str("parent", s.parent)
               .Num("start_us", (s.start - origin) * 1e6)
               .Num("dur_us", s.seconds() * 1e6)
               .Build()
        << "\n";
  }
  return WriteFile(path, out.str());
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  return Raw(key, JsonNumber(value));
}
JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}
JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}
JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonString(value));
}
JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::Build() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string EnvironmentJson() {
  return JsonObject()
      .Int("nproc", static_cast<int64_t>(AvailableCpus()))
      .Int("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("simd_tier", midas::SimdTierName(midas::simd::ActiveTier()))
      .Str("build_type", MIDAS_PERFBENCH_BUILD_TYPE)
      .Str("compiler", MIDAS_PERFBENCH_COMPILER)
      .Str("git_commit", midas::GitCommitOrUnknown())
      .Build();
}

midas::Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return midas::Status::Internal("cannot write " + path);
  out << text;
  out.close();
  if (!out) return midas::Status::Internal("short write to " + path);
  return midas::Status::OK();
}

midas::Status MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return midas::Status::Internal("cannot create " + path);
  return midas::Status::OK();
}

}  // namespace perfbench
