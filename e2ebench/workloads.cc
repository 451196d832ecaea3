#include "workloads.h"

#include <filesystem>

namespace e2ebench {

std::string StageInputs(const Args& args, const Inputs& inputs,
                        const std::string& tweets_url) {
  std::string dir = args.work_dir + "/dict";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !WriteDictionaries(inputs, dir)) return "";
  PublishInputs(inputs, tweets_url);
  return dir;
}

void AddEndToEnd(Report* report, double setup_s, double p50_ms,
                 double tail_ms, double throughput_per_s,
                 double peak_rss_mb) {
  report->end_to_end = {{"setup_s", "s", setup_s},
                        {"p50_ms", "ms", p50_ms},
                        {"tail_ms", "ms", tail_ms},
                        {"throughput_per_s", "1/s", throughput_per_s},
                        {"peak_rss_mb", "MB", peak_rss_mb}};
}

double ScanDedupRatio(const std::string& metrics_before,
                      const std::string& metrics_after) {
  auto delta = [&](const std::string& name) {
    return PromCounter(metrics_after, name) - PromCounter(metrics_before, name);
  };
  double batches = delta("shared_scan_batches_total");
  return batches > 0 ? delta("shared_scan_dedup_total") / batches : 0;
}

void AddServingLayers(const ServingLayers& l, Report* report) {
  auto rate = [](double amount, double ms) {
    return ms > 0 ? amount / (ms / 1000.0) : 0;
  };
  std::vector<Metric> json = {
      {"exec.flows_executed", "count", l.flows_executed},
      {"exec.flows_cached", "count", l.flows_cached},
      {"cube.miss_queries_per_s", "1/s",
       rate(1, l.cube_query_miss_us / 1000.0)},
      {"share.cache_hit_ratio", "fraction", l.cache_hit_ratio},
      {"share.scan_dedup_ratio", "fraction", l.scan_dedup_ratio},
      {"ops.query_rows_per_s", "rows/s", rate(l.ops_query_rows, l.ops_query_ms)},
      {"io.append_parse_rows_per_s", "rows/s",
       rate(l.append_rows, l.append_parse_us / 1000.0)},
      {"table.append_batch_rows_per_s", "rows/s",
       rate(l.append_rows, l.append_batch_us / 1000.0)},
      {"dashboard.append_rows_per_s", "rows/s",
       rate(l.append_rows, l.dashboard_append_ms)},
      {"store.wal_bytes_per_user_byte", "ratio", l.wal_bytes_per_user_byte},
      {"store.snapshots_written", "count", l.snapshots_written},
      {"store.wal_fsyncs", "count", l.wal_fsyncs},
      {"exec.flows_delta", "count", l.flows_delta},
      {"exec.flows_full_fallback", "count", l.flows_full_fallback},
      {"trace.coverage", "ratio", l.coverage},
  };
  report->layers.insert(report->layers.end(), json.begin(), json.end());
  report->layer_table = {
      {"cube.query_us", "us", l.cube_query_miss_us},
      {"ops.query_ms", "ms", l.ops_query_ms},
      {"io.append_parse_us", "us", l.append_parse_us},
      {"table.append_batch_us", "us", l.append_batch_us},
      {"dashboard.append_ms", "ms", l.dashboard_append_ms},
      {"store.wal_append_ms", "ms", l.wal_append_ms},
      {"bench.gen_late_p99_ms", "ms", l.gen_late_p99_ms},
  };
}

}  // namespace e2ebench
