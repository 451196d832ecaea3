// Shared plumbing of the end-to-end benchmark: arguments, clocks,
// percentiles, the per-layer span/sample store of the traced pass, and the
// report every workload returns.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "server/api_server.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one recorded answer before the oracle runs (the benchmark's
  /// own tests use it to prove each oracle trips).
  bool plant_wrong = false;
  /// Scratch directory inside the checkout (dictionaries, durability).
  std::string work_dir;
  /// Where the traced pass writes its spans.
  std::string trace_out;
  /// Source revision recorded in the provenance line.
  std::string revision = "unknown";
};

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// One request latency, stamped with when it completed (seconds into the
/// timed phase).
struct Sample {
  double at_s = 0;
  double ms = 0;
};

/// Medians over equal windows of a timed phase: of each window's p50, of
/// its `tail_pct` percentile, and of its completions per second. Windows
/// damp the short stalls a shared host injects into one part of a run.
struct Windowed {
  double p50_ms = 0;
  double tail_ms = 0;
  double per_s = 0;
};
Windowed WindowedMedians(const std::vector<Sample>& samples, double phase_s,
                         int windows, double tail_pct);

/// The process's peak resident set (VmHWM) in MB.
double PeakRssMb();

/// Reads a numeric member of a JSON response body (0 when absent).
double JsonNumber(const std::string& body, const std::string& key);
/// Reads a string member of a JSON response body ("" when absent).
std::string JsonString(const std::string& body, const std::string& key);
/// Canonical compact form of a JSON body with `drop_key` removed from the
/// top-level object (the per-response `cache` marker, for example).
std::string CanonicalBody(const std::string& body,
                          const std::string& drop_key = "");
/// Value of a counter in the Prometheus text of GET /api/v1/metrics.
double PromCounter(const std::string& text, const std::string& name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one workload run measured and whether its answers were right.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t oracle_mismatches = 0;
  /// BENCHMARK.json end-to-end metrics (untraced runs).
  std::vector<Metric> end_to_end;
  /// The same run under the metric names of the benchmark's doc
  /// (edit_run_p50_ms, ds_qps, fresh_p50_ms, ...), printed for readers.
  std::vector<Metric> named;
  /// BENCHMARK.json per-layer metrics (traced runs).
  std::vector<Metric> layers;
  /// Layer timings printed beside `layers` (see README: times a workload
  /// does not exercise are printed only, as they would read 0).
  std::vector<Metric> layer_table;
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    ++failed;
    notes.push_back(why);
  }
  void Mismatch(const std::string& why) {
    ++oracle_mismatches;
    ++failed;
    if (notes.size() < 20) notes.push_back("oracle: " + why);
  }
  bool correct() const { return failed == 0 && oracle_mismatches == 0; }
};

/// The traced pass's span store and sample table. Every layer call the
/// benchmark replays is timed here, from the benchmark's own code, and
/// recorded as a span in `tracer` (written out at exit).
class LayerRecorder {
 public:
  /// Times `fn`, records a span `name` under `parent`, and returns the
  /// elapsed milliseconds.
  double Time(const std::string& name, shareinsights::SpanId parent,
              const std::function<void()>& fn);
  shareinsights::SpanId Open(const std::string& name,
                             shareinsights::SpanId parent = 0) {
    return tracer_.StartSpan(name, parent);
  }
  void Close(shareinsights::SpanId id) { tracer_.EndSpan(id); }

  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  double MedianOf(const std::string& name) const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  shareinsights::Tracer tracer_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Sends `request` through ApiServer::Handle; returns the response and
/// its latency.
struct Timed {
  shareinsights::HttpResponse response;
  double ms = 0;
};
Timed TimedHandle(shareinsights::ApiServer* server,
                  const shareinsights::HttpRequest& request);

/// Provenance of a result: host, ISA, build, compiler, revision, seed.
std::string ProvenanceJson(shareinsights::ApiServer* server,
                           const Args& args);
/// True when the benchmark and the program were compiled with
/// optimization.
bool OptimizedBuild();

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
