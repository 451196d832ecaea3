// The three workloads. Each runs in its own process, drives an in-process
// ApiServer through ApiServer::Handle, checks its answers against an
// oracle outside the timed window, and returns a Report. With
// Args::trace, a traced replay of the same operations follows an
// untraced phase of the same shape and fills Report::layers.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"
#include "inputs.h"

namespace e2ebench {

Report RunIplAuthor(const Args& args);
Report RunWidgetStorm(const Args& args);
Report RunAppendStream(const Args& args);

/// Layer figures that exist only on some workloads; the others leave them
/// at 0. In BENCHMARK.json these appear as rates, ratios and counts; the
/// matching times are printed in the layer table.
struct ServingLayers {
  double flows_executed = 0;
  double flows_cached = 0;
  double cube_query_miss_us = 0;
  double cache_hit_ratio = 0;
  double scan_dedup_ratio = 0;
  double ops_query_ms = 0;
  double ops_query_rows = 0;
  double append_rows = 0;  // rows per append
  double append_parse_us = 0;
  double append_batch_us = 0;
  double dashboard_append_ms = 0;
  double wal_append_ms = 0;
  double wal_bytes_per_user_byte = 0;
  double snapshots_written = 0;
  double wal_fsyncs = 0;
  double flows_delta = 0;
  double flows_full_fallback = 0;
  double coverage = 0;
  double gen_late_p99_ms = 0;
};
void AddServingLayers(const ServingLayers& layers, Report* report);

/// Share of shared-scan batch members that rode on another member's scan
/// between two GET /api/v1/metrics snapshots.
double ScanDedupRatio(const std::string& metrics_before,
                      const std::string& metrics_after);

/// Publishes the generated inputs and writes the dictionaries into the
/// work directory. Returns the dictionary directory ("" on failure).
std::string StageInputs(const Args& args, const Inputs& inputs,
                        const std::string& tweets_url);

/// Appends the untraced timings shared by every workload.
void AddEndToEnd(Report* report, double setup_s, double p50_ms,
                 double tail_ms, double throughput_per_s, double peak_rss_mb);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
