// Machine-readable snapshot-read-path benchmark: measures prediction
// throughput when readers pin immutable EstimatorSnapshots while a live
// writer keeps publishing feedback epochs, at 1/4/16 reader threads,
// against a serial baseline (no writer) running Dream::PredictCosts on the
// live TrainingSet.
// Emits BENCH_snapshot.json; run via scripts/bench_snapshot.sh.
//
// Readers re-pin every kPinEvery predictions — the per-optimization
// pinning pattern RunQuery uses — so the numbers include the Acquire cost
// and the refit a fresh epoch forces, not just warm memo hits. On a
// single-core container the reader counts measure oversubscription safety
// rather than parallel speedup; hardware_concurrency is recorded so
// consumers can tell the regimes apart.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>
#include "bench_env_common.h"

#include "common/random.h"
#include "ires/modelling.h"
#include "regression/dream.h"

namespace midas {
namespace {

constexpr size_t kSeedObservations = 256;
constexpr size_t kPinEvery = 64;
constexpr double kRunSeconds = 0.4;

void SeedHistory(Modelling* modelling, size_t n, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(0, 100);
    const double b = rng.Uniform(0, 100);
    const double c = 1 + rng.Index(8);
    const double d = 1 + rng.Index(8);
    Observation obs;
    obs.timestamp = static_cast<int64_t>(i);
    obs.features = {a, b, c, d};
    obs.costs = {1 + 0.1 * a + 0.2 * b + c + rng.Gaussian(0, 1),
                 2 + 0.01 * a + rng.Gaussian(0, 0.1)};
    modelling->Record("q", std::move(obs)).CheckOK();
  }
}

Vector Probe(Rng* rng) {
  return {rng->Uniform(0, 100), rng->Uniform(0, 100),
          static_cast<double>(1 + rng->Index(8)),
          static_cast<double>(1 + rng->Index(8))};
}

/// Serial baseline: the pre-snapshot usage pattern — one thread, no
/// writer, every prediction runs Dream::PredictCosts on the scope's live
/// TrainingSet directly.
double SerialLiveBaseline() {
  Modelling modelling({"x1", "x2", "x3", "x4"}, {"seconds", "dollars"});
  SeedHistory(&modelling, kSeedObservations, 1);
  const EstimatorConfig config = EstimatorConfig::DreamDefault();
  const TrainingSet& set =
      *modelling.publisher().history().Get("q").ValueOrDie();
  Rng rng(2);
  using clock = std::chrono::steady_clock;
  size_t predictions = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  while (elapsed < kRunSeconds) {
    Dream(config.dream).PredictCosts(set, Probe(&rng)).status().CheckOK();
    ++predictions;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  }
  return static_cast<double>(predictions) / elapsed;
}

struct ReaderRunResult {
  double predictions_per_sec = 0.0;
  uint64_t epochs_advanced = 0;
};

/// Concurrent run: `n_readers` threads pin a snapshot per kPinEvery
/// predictions while one writer keeps recording feedback (publishing an
/// epoch per observation, which is what invalidates the scope's memo).
ReaderRunResult ConcurrentReaders(int n_readers) {
  Modelling modelling({"x1", "x2", "x3", "x4"}, {"seconds", "dollars"});
  SeedHistory(&modelling, kSeedObservations, 1);
  const EstimatorConfig config = EstimatorConfig::DreamDefault();
  const uint64_t start_epoch = modelling.publisher().epoch();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> predictions{0};

  std::thread writer([&modelling, &stop] {
    Rng rng(3);
    int64_t t = static_cast<int64_t>(kSeedObservations);
    while (!stop.load(std::memory_order_acquire)) {
      Observation obs;
      obs.timestamp = t++;
      obs.features = {rng.Uniform(0, 100), rng.Uniform(0, 100), 4.0, 4.0};
      obs.costs = {10.0 + rng.Gaussian(0, 1), 2.0};
      modelling.Record("q", std::move(obs)).CheckOK();
      // A paced feedback stream (executions are slow relative to
      // predictions); unthrottled, the writer would just serialize on
      // the publisher mutex and starve single-core readers.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(n_readers);
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<uint64_t>(r));
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = modelling.Snapshot();
        for (size_t i = 0; i < kPinEvery; ++i) {
          modelling.Predict(*snapshot, "q", Probe(&rng), config)
              .status()
              .CheckOK();
          ++local;
        }
      }
      predictions.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kRunSeconds * 1000)));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  ReaderRunResult result;
  result.predictions_per_sec =
      static_cast<double>(predictions.load()) / kRunSeconds;
  result.epochs_advanced = modelling.publisher().epoch() - start_epoch;
  return result;
}

int Run(const char* out_path) {
  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path);
      return 1;
    }
  }

  const double baseline = SerialLiveBaseline();
  std::fprintf(stderr, "serial live baseline: %12.0f predictions/sec\n",
               baseline);

  const std::vector<int> reader_counts = {1, 4, 16};
  std::string json = "{\n";
  json += "  \"benchmark\": \"snapshot_reader_scaling\",\n";
  json += "  \"git_commit\": \"" + GitCommitOrUnknown() + "\",\n";
  char header[512];
  std::snprintf(header, sizeof(header),
                "  \"hardware_concurrency\": %u,\n"
                "  \"features\": 4,\n"
                "  \"metrics\": 2,\n"
                "  \"seed_observations\": %zu,\n"
                "  \"pin_every\": %zu,\n"
                "  \"estimator\": \"DREAM\",\n"
                "  \"unit\": \"predictions_per_sec\",\n"
                "  \"serial_live_baseline\": %.0f,\n",
                std::thread::hardware_concurrency(), kSeedObservations,
                kPinEvery, baseline);
  json += header;
  json += "  \"results\": [\n";
  for (size_t i = 0; i < reader_counts.size(); ++i) {
    const int readers = reader_counts[i];
    const ReaderRunResult r = ConcurrentReaders(readers);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"readers\": %d, \"predictions_per_sec\": %.0f, "
                  "\"vs_serial_baseline\": %.2f, "
                  "\"writer_epochs_advanced\": %llu}%s\n",
                  readers, r.predictions_per_sec,
                  r.predictions_per_sec / baseline,
                  static_cast<unsigned long long>(r.epochs_advanced),
                  i + 1 < reader_counts.size() ? "," : "");
    json += row;
    std::fprintf(stderr,
                 "%2d readers + live writer: %12.0f predictions/sec "
                 "(%.2fx serial), %llu epochs advanced\n",
                 readers, r.predictions_per_sec,
                 r.predictions_per_sec / baseline,
                 static_cast<unsigned long long>(r.epochs_advanced));
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), out);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace midas

int main(int argc, char** argv) {
  return midas::Run(argc > 1 ? argv[1] : nullptr);
}
