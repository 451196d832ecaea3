// End-to-end benchmark of the dashboard server. Usage:
//
//   e2e_bench --workload <ipl_author|widget_storm|append_stream>
//             --seed <n> --seconds <s> --trace <0|1> [--plant-wrong]
//             [--work-dir <dir>] [--revision <rev>]
//
// Prints the provenance line, every metric by name and unit, and as its
// last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones of the traced pass. Exits 1 when any answer was wrong or
// any request failed.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "workloads.h"

using namespace e2ebench;

namespace {

int Usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload <ipl_author|widget_storm|"
               "append_stream> --seed <n> --seconds <s> --trace <0|1> "
               "[--plant-wrong] [--work-dir <dir>] [--revision <rev>]\n";
  return 2;
}

std::string Number(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string ResultJson(const Report& report, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--plant-wrong") {
      args.plant_wrong = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--revision") {
        args.revision = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  Report (*run)(const Args&) = nullptr;
  if (args.workload == "ipl_author") run = RunIplAuthor;
  if (args.workload == "widget_storm") run = RunWidgetStorm;
  if (args.workload == "append_stream") run = RunAppendStream;
  if (run == nullptr) return Usage("unknown workload '" + args.workload + "'");

  const std::string tag =
      args.workload + "-seed" + std::to_string(args.seed) +
      (args.trace ? "-trace" : "");
  if (args.work_dir.empty()) {
    args.work_dir = ".bench_work/" + tag + "-" + std::to_string(getpid());
  }
  args.trace_out = ".bench_out/" + tag + ".json";
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  std::filesystem::path out_dir =
      std::filesystem::path(args.trace_out).parent_path();
  if (args.trace && !out_dir.empty()) {
    std::filesystem::create_directories(out_dir, ec);
  }

  Report report = run(args);
  std::filesystem::remove_all(args.work_dir, ec);

  {
    shareinsights::ApiServer probe;
    std::cout << "provenance: " << ProvenanceJson(&probe, args) << "\n";
  }
  if (!OptimizedBuild()) {
    std::cout << "WARNING: built without optimization; timings are not "
                 "comparable\n";
  }
  PrintTable("metrics (" + args.workload + "):", report.named);
  std::printf("  %-34s %16.6g %s\n", "failed_frac",
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              "fraction");
  if (args.trace) {
    PrintTable("per-layer (traced pass):", report.layers);
    PrintTable("layer times (not in BENCHMARK.json):", report.layer_table);
    std::cout << "spans written to " << args.trace_out << "\n";
  }
  for (const std::string& note : report.notes) {
    std::cout << "FAIL: " << note << "\n";
  }
  std::cout << ResultJson(report, args.trace ? report.layers
                                             : report.end_to_end)
            << std::endl;
  return report.correct() && report.attempted > 0 ? 0 : 1;
}
