#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "io/json.h"

namespace e2ebench {

using shareinsights::JsonValue;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Windowed WindowedMedians(const std::vector<Sample>& samples, double phase_s,
                         int windows, double tail_pct) {
  std::vector<std::vector<double>> buckets(windows);
  double width = phase_s / windows;
  for (const Sample& s : samples) {
    int w = std::clamp(static_cast<int>(s.at_s / width), 0, windows - 1);
    buckets[w].push_back(s.ms);
  }
  std::vector<double> p50, tail, per_s;
  for (const std::vector<double>& bucket : buckets) {
    p50.push_back(Percentile(bucket, 50));
    tail.push_back(Percentile(bucket, tail_pct));
    per_s.push_back(static_cast<double>(bucket.size()) / width);
  }
  return {Median(p50), Median(tail), Median(per_s)};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

double JsonNumber(const std::string& body, const std::string& key) {
  auto doc = shareinsights::ParseJson(body);
  if (!doc.ok()) return 0;
  const JsonValue* v = doc->Find(key);
  return v != nullptr ? v->number_value() : 0;
}

std::string JsonString(const std::string& body, const std::string& key) {
  auto doc = shareinsights::ParseJson(body);
  if (!doc.ok()) return "";
  const JsonValue* v = doc->Find(key);
  return v != nullptr ? v->string_value() : "";
}

std::string CanonicalBody(const std::string& body,
                          const std::string& drop_key) {
  auto doc = shareinsights::ParseJson(body);
  if (!doc.ok()) return "<unparseable>" + body;
  if (drop_key.empty() || !doc->is_object()) return doc->Serialize();
  JsonValue out = JsonValue::MakeObject();
  for (const auto& [key, value] : doc->members()) {
    if (key != drop_key) out.Set(key, value);
  }
  return out.Serialize();
}

double PromCounter(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0;
}

double LayerRecorder::Time(const std::string& name,
                           shareinsights::SpanId parent,
                           const std::function<void()>& fn) {
  shareinsights::SpanId id = tracer_.StartSpan(name, parent);
  auto start = Clock::now();
  fn();
  double ms = MsSince(start);
  tracer_.EndSpan(id);
  return ms;
}

double LayerRecorder::MedianOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Median(it->second);
}

bool LayerRecorder::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  out << tracer_.ToChromeJson();
  return static_cast<bool>(out);
}

Timed TimedHandle(shareinsights::ApiServer* server,
                  const shareinsights::HttpRequest& request) {
  auto start = Clock::now();
  Timed out;
  out.response = server->Handle(request);
  out.ms = MsSince(start);
  return out;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  std::string type = E2E_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
  return false;
#endif
}

std::string ProvenanceJson(shareinsights::ApiServer* server,
                           const Args& args) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("workload", JsonValue::MakeString(args.workload));
  out.Set("seed", JsonValue::MakeNumber(static_cast<double>(args.seed)));
  out.Set("seconds", JsonValue::MakeNumber(args.seconds));
  out.Set("trace", JsonValue::MakeBool(args.trace));
  out.Set("nproc", JsonValue::MakeNumber(std::thread::hardware_concurrency()));
  out.Set("simd_isa", JsonValue::MakeString(JsonString(
                          server->Get("/api/v1/health").body, "simd_isa")));
  out.Set("build_type", JsonValue::MakeString(E2E_BUILD_TYPE));
  out.Set("optimized", JsonValue::MakeBool(OptimizedBuild()));
  out.Set("compiler", JsonValue::MakeString(E2E_COMPILER));
  out.Set("revision", JsonValue::MakeString(args.revision));
  return out.Serialize();
}

}  // namespace e2ebench
