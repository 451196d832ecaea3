// widget_storm: dashboard viewers. Four closed-loop viewers query one
// dashboard whose sales fact table is built once at 400k rows. The
// seeded request mix is ~80% cube-path /ds queries (string-equality filter
// on a customer drawn Zipf over 4000 ids, then a groupby), ~10% ops-path
// numeric range filters plus groupby with random bounds (never cached),
// and ~10% paged browses.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "io/json.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "replay.h"
#include "workloads.h"

namespace e2ebench {

namespace si = shareinsights;

namespace {

constexpr int kViewers = 4;
constexpr int kSetups = 3;
constexpr int kWindows = 10;
constexpr size_t kCubeVsOpsSample = 64;
const InputSizes kSizes{6000, 400000, 4000};
const char* const kDash = "storm";
const char* const kEndpoint = "sales_enriched";
const char* const kGroupCols[] = {"category", "region", "brand"};
const std::pair<const char*, const char*> kAggs[] = {
    {"sum", "qty"}, {"count", "order_id"}, {"max", "qty"}};

enum class Kind { kCube, kOps, kBrowse };

struct Request {
  Kind kind = Kind::kCube;
  std::string url;
  // Cube and ops requests: what the query asks for.
  std::string customer;
  size_t group = 0;
  size_t agg = 0;
  int64_t lo = 0, hi = 0;
  size_t offset = 0;
};

std::string DsUrl() { return std::string("/api/v1/") + kDash + "/ds/" + kEndpoint; }

/// The seeded request stream of one viewer.
class RequestMix {
 public:
  RequestMix(const Inputs& inputs, uint64_t seed, size_t endpoint_rows)
      : inputs_(inputs),
        rng_(seed),
        customer_cdf_(ZipfCdf(inputs.customers.size(), 1.0)),
        endpoint_rows_(endpoint_rows) {}

  Request Next() {
    Request r;
    double u = rng_.Unit();
    if (u < 0.8) {
      r.kind = Kind::kCube;
      r.customer = inputs_.customers[rng_.Zipf(customer_cdf_)];
      r.group = rng_.Below(3);
      r.agg = rng_.Below(3);
      r.url = DsUrl() + "/filter/customer/eq/" + r.customer + "/groupby/" +
              kGroupCols[r.group] + "/" + kAggs[r.agg].first + "/" +
              kAggs[r.agg].second;
    } else if (u < 0.9) {
      r.kind = Kind::kOps;
      r.group = rng_.Below(3);
      r.lo = 1 + static_cast<int64_t>(rng_.Below(kSizes.sales_rows));
      r.hi = r.lo + 20000 + static_cast<int64_t>(rng_.Below(180000));
      r.url = DsUrl() + "/filter/order_id/ge/" + std::to_string(r.lo) +
              "/filter/order_id/lt/" + std::to_string(r.hi) + "/groupby/" +
              kGroupCols[r.group] + "/sum/qty";
    } else {
      r.kind = Kind::kBrowse;
      r.offset = rng_.Below(endpoint_rows_ / 50) * 50;
      r.url = DsUrl() + "?limit=50&offset=" + std::to_string(r.offset);
    }
    return r;
  }

 private:
  const Inputs& inputs_;
  SplitMix rng_;
  std::vector<double> customer_cdf_;
  size_t endpoint_rows_;
};

/// Every distinct answer a URL received (a cube answer is served with
/// `cache: miss` first and `cache: hit` after).
struct Answers {
  Request request;
  std::vector<std::pair<size_t, std::string>> bodies;
};

struct Viewer {
  int64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<double> cube_ms, ops_ms, browse_ms;
  std::vector<Sample> samples;
  int64_t cube_hits = 0;
  std::unordered_map<std::string, Answers> answers;
};

/// The benchmark's own model of sales_enriched, built from the generated
/// CSVs: revenue = qty * price >= 50, inner-joined with products.
struct SalesModel {
  struct Row {
    int64_t order_id;
    std::string customer;
    int64_t qty;
    std::string group[3];  // category, region, brand
  };
  std::vector<Row> rows;  // ascending order_id
  std::map<std::string, std::vector<size_t>> by_customer;
  /// Per group column and value: the row positions holding it and the
  /// running qty sum over them, so a range query costs a few binary
  /// searches per group.
  struct Postings {
    std::vector<size_t> positions;
    std::vector<double> qty_prefix{0};
  };
  std::map<std::string, Postings> postings[3];

  explicit SalesModel(const Inputs& inputs, double min_revenue) {
    std::map<std::string, std::pair<std::string, std::string>> products;
    std::istringstream pin(inputs.products_csv);
    std::string line;
    std::getline(pin, line);
    while (std::getline(pin, line)) {
      std::vector<std::string> f = Split(line);
      products[f[0]] = {f[1], f[2]};
    }
    std::istringstream sin(inputs.sales_csv);
    std::getline(sin, line);
    while (std::getline(sin, line)) {
      // order_id,customer,product_id,region,qty,price,day
      std::vector<std::string> f = Split(line);
      int64_t qty = std::stoll(f[4]);
      double revenue = static_cast<double>(qty) * std::strtod(f[5].c_str(), nullptr);
      auto product = products.find(f[2]);
      if (revenue < min_revenue || product == products.end()) continue;
      by_customer[f[1]].push_back(rows.size());
      rows.push_back({std::stoll(f[0]), f[1], qty,
                      {product->second.first, f[3], product->second.second}});
      for (size_t g = 0; g < 3; ++g) {
        Postings& p = postings[g][rows.back().group[g]];
        p.positions.push_back(rows.size() - 1);
        p.qty_prefix.push_back(p.qty_prefix.back() + static_cast<double>(qty));
      }
    }
  }

  static std::vector<std::string> Split(const std::string& line) {
    std::vector<std::string> out;
    std::string field;
    std::istringstream in(line);
    while (std::getline(in, field, ',')) out.push_back(field);
    return out;
  }

  /// Expected answer rows of a cube or ops request, canonical and sorted.
  std::vector<std::string> Expected(const Request& r) const {
    struct Acc {
      double sum = 0, count = 0, max = 0;
    };
    std::map<std::string, Acc> groups;
    auto absorb = [&](const Row& row) {
      Acc& acc = groups[row.group[r.group]];
      acc.max = acc.count == 0 ? static_cast<double>(row.qty)
                               : std::max(acc.max, static_cast<double>(row.qty));
      acc.sum += static_cast<double>(row.qty);
      acc.count += 1;
    };
    if (r.kind == Kind::kCube) {
      auto it = by_customer.find(r.customer);
      if (it != by_customer.end()) {
        for (size_t i : it->second) absorb(rows[i]);
      }
    } else {
      auto position = [&](int64_t id) {
        return static_cast<size_t>(
            std::lower_bound(rows.begin(), rows.end(), id,
                             [](const Row& row, int64_t v) {
                               return row.order_id < v;
                             }) -
            rows.begin());
      };
      size_t begin = position(r.lo), end = position(r.hi);
      for (const auto& [key, p] : postings[r.group]) {
        size_t a = std::lower_bound(p.positions.begin(), p.positions.end(),
                                    begin) - p.positions.begin();
        size_t b = std::lower_bound(p.positions.begin(), p.positions.end(),
                                    end) - p.positions.begin();
        if (a < b) groups[key].sum = p.qty_prefix[b] - p.qty_prefix[a];
      }
    }
    std::string agg = r.kind == Kind::kCube ? kAggs[r.agg].first : "sum";
    std::vector<std::string> out;
    for (const auto& [key, acc] : groups) {
      double v = agg == "sum" ? acc.sum : agg == "count" ? acc.count : acc.max;
      out.push_back(key + "=" + CanonicalNumber(v));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static std::string CanonicalNumber(double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    return s.str();
  }
};

/// The answer rows of a /ds groupby body, canonical and sorted.
std::vector<std::string> AnswerRows(const std::string& body, size_t group) {
  std::vector<std::string> out;
  auto doc = si::ParseJson(body);
  if (!doc.ok() || doc->Find("rows") == nullptr) return {"<unparseable>"};
  for (const si::JsonValue& row : doc->Find("rows")->array_items()) {
    std::string key, value;
    for (const auto& [name, cell] : row.members()) {
      if (name == kGroupCols[group]) {
        key = cell.string_value();
      } else {
        value = SalesModel::CanonicalNumber(cell.number_value());
      }
    }
    out.push_back(key + "=" + value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Serves `flow` on a fresh server: create + run (+ cube builds).
bool Build(si::ApiServer* server, const std::string& flow,
           si::Dashboard::Options options, Report* report,
           std::string* run_body = nullptr) {
  si::Status created = server->CreateDashboard(kDash, flow, options);
  if (!created.ok()) {
    report->Fail("create: " + created.ToString());
    return false;
  }
  si::HttpResponse ran =
      server->Post(std::string("/api/v1/dashboards/") + kDash + "/run", "");
  if (!ran.ok()) report->Fail("run: " + ran.body);
  if (run_body != nullptr) *run_body = ran.body;
  return ran.ok();
}

si::DataCube::Query CubeQueryOf(const Request& r) {
  si::DataCube::Query q;
  q.filters.push_back({"customer", {si::Value(r.customer)}, false});
  q.group_by = {kGroupCols[r.group]};
  std::string fn = kAggs[r.agg].first, col = kAggs[r.agg].second;
  q.aggregates = {si::AggregateSpec{fn, col, fn + "_" + col}};
  return q;
}

}  // namespace

Report RunWidgetStorm(const Args& args) {
  Report report;
  Inputs inputs = GenerateInputs(kSizes, args.seed);
  std::string dict_dir = StageInputs(args, inputs, kTweetsUrl);
  if (dict_dir.empty()) {
    report.Fail("cannot stage inputs under " + args.work_dir);
    return report;
  }
  const FlowVariant variant;
  const std::string flow = FlowText(variant, dict_dir, kTweetsUrl);

  // --- set-up: server, create, run at 400k rows, cube builds -----------
  std::unique_ptr<si::ApiServer> server;
  std::vector<double> setups;
  std::string run_body;
  for (int s = 0; s < kSetups; ++s) {
    server.reset();
    auto start = Clock::now();
    server = std::make_unique<si::ApiServer>();
    report.attempted += 2;
    if (!Build(server.get(), flow, si::Dashboard::Options(), &report,
               &run_body)) {
      return report;
    }
    setups.push_back(MsSince(start) / 1000.0);
  }
  si::Dashboard* dashboard = *server->GetDashboard(kDash);
  si::TablePtr endpoint = *dashboard->EndpointData(kEndpoint);

  // --- timed closed loop -------------------------------------------------
  std::string metrics_before = server->Get("/api/v1/metrics").body;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Viewer> viewers(kViewers);
  auto loop_start = Clock::now();
  auto deadline = loop_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(phase_s));
  std::vector<std::jthread> threads;
  for (int v = 0; v < kViewers; ++v) {
    threads.emplace_back([&, v] {
      Viewer& me = viewers[v];
      RequestMix mix(inputs, args.seed * 7919 + static_cast<uint64_t>(v),
                     endpoint->num_rows());
      while (Clock::now() < deadline) {
        Request request = mix.Next();
        ++me.attempted;
        Timed t = TimedHandle(server.get(), si::HttpRequest::Get(request.url));
        if (!t.response.ok()) {
          me.failures.push_back(request.url + " -> " +
                                std::to_string(t.response.status));
          continue;
        }
        me.samples.push_back({MsSince(loop_start) / 1000.0, t.ms});
        switch (request.kind) {
          case Kind::kCube:
            me.cube_ms.push_back(t.ms);
            if (t.response.body.rfind("\"cache\": \"hit\"") != std::string::npos) {
              ++me.cube_hits;
            }
            break;
          case Kind::kOps:
            me.ops_ms.push_back(t.ms);
            break;
          case Kind::kBrowse:
            me.browse_ms.push_back(t.ms);
            break;
        }
        size_t hash = std::hash<std::string>{}(t.response.body);
        Answers& answers = me.answers[request.url];
        if (answers.bodies.empty()) answers.request = request;
        bool seen = false;
        for (const auto& [h, body] : answers.bodies) seen = seen || h == hash;
        if (!seen) answers.bodies.emplace_back(hash, std::move(t.response.body));
      }
    });
  }
  for (std::jthread& t : threads) t.join();
  double peak_rss = PeakRssMb();
  std::string metrics_after = server->Get("/api/v1/metrics").body;

  std::vector<double> cube_ms, ops_ms, browse_ms;
  std::vector<Sample> samples;
  int64_t cube_hits = 0;
  std::unordered_map<std::string, Answers> answers;
  for (Viewer& v : viewers) {
    report.attempted += v.attempted;
    for (const std::string& f : v.failures) report.Fail(f);
    samples.insert(samples.end(), v.samples.begin(), v.samples.end());
    cube_ms.insert(cube_ms.end(), v.cube_ms.begin(), v.cube_ms.end());
    ops_ms.insert(ops_ms.end(), v.ops_ms.begin(), v.ops_ms.end());
    browse_ms.insert(browse_ms.end(), v.browse_ms.begin(), v.browse_ms.end());
    cube_hits += v.cube_hits;
    for (auto& [url, a] : v.answers) {
      Answers& merged = answers[url];
      if (merged.bodies.empty()) merged.request = a.request;
      for (auto& entry : a.bodies) merged.bodies.push_back(std::move(entry));
    }
  }
  if (args.plant_wrong) {
    for (auto& [url, a] : answers) {
      if (a.request.kind != Kind::kCube) continue;
      std::string& body = a.bodies[0].second;
      size_t digit = body.find_first_of("123456789", body.find("\"rows\""));
      if (digit != std::string::npos) body[digit] = body[digit] == '9' ? '8' : '9';
      break;
    }
  }

  // --- oracle --------------------------------------------------------
  {
    SalesModel model(inputs, variant.min_revenue);
    si::ApiServer::Options options;
    options.enable_result_cache = false;
    si::ApiServer reference(nullptr, options);
    si::Dashboard::Options ops_only;
    ops_only.use_cube = false;
    Build(&reference, flow, ops_only, &report);
    std::vector<const Answers*> cube_answers;
    for (const auto& [url, a] : answers) {
      if (a.request.kind == Kind::kBrowse) {
        std::string expected = reference.Get(url).body;
        for (const auto& [h, body] : a.bodies) {
          if (body != expected) report.Mismatch("browse " + url);
        }
        continue;
      }
      std::vector<std::string> expected = model.Expected(a.request);
      for (const auto& [h, body] : a.bodies) {
        if (AnswerRows(body, a.request.group) != expected) {
          report.Mismatch("answer differs from the reference: " + url);
        }
      }
      if (a.request.kind == Kind::kCube) cube_answers.push_back(&a);
    }
    // Cube path against the ops path, exactly (order and bytes), on a
    // seeded sample of the distinct cube queries.
    std::sort(cube_answers.begin(), cube_answers.end(),
              [](const Answers* x, const Answers* y) {
                return x->request.url < y->request.url;
              });
    SplitMix pick(args.seed);
    for (size_t i = 0; i < kCubeVsOpsSample && !cube_answers.empty(); ++i) {
      const Answers* a = cube_answers[pick.Below(cube_answers.size())];
      std::string ops = CanonicalBody(reference.Get(a->request.url).body);
      for (const auto& [h, body] : a->bodies) {
        if (CanonicalBody(body, "cache") != ops) {
          report.Mismatch("cube path differs from ops path: " + a->request.url);
        }
      }
    }
  }

  double setup_s = Median(setups);
  Windowed ds = WindowedMedians(samples, phase_s, kWindows, 99);
  double hit_ratio = cube_ms.empty() ? 0
                                     : static_cast<double>(cube_hits) /
                                           static_cast<double>(cube_ms.size());
  AddEndToEnd(&report, setup_s, ds.p50_ms, ds.tail_ms, ds.per_s, peak_rss);
  report.named = {
      {"setup_s", "s", setup_s},
      {"ds_p50_ms", "ms", ds.p50_ms},
      {"ds_p99_ms", "ms", ds.tail_ms},
      {"ds_qps", "1/s", ds.per_s},
      {"ds_samples", "count", static_cast<double>(samples.size())},
      {"cube_path_p50_ms", "ms", Percentile(cube_ms, 50)},
      {"ops_path_p50_ms", "ms", Percentile(ops_ms, 50)},
      {"browse_p50_ms", "ms", Percentile(browse_ms, 50)},
      {"cache_hit_ratio", "fraction", hit_ratio},
      {"peak_rss_mb", "MB", peak_rss},
  };
  if (!args.trace) return report;

  // --- traced pass -----------------------------------------------------
  LayerRecorder recorder;
  ServingLayers serving;
  {
    PipelineReplay replay;
    ReplayPipeline(flow, &recorder, 0, true, &report, &replay);
  }
  RequestMix mix(inputs, args.seed * 7919, endpoint->num_rows());
  std::vector<double> cube_miss_us, ops_query_ms, coverage;
  si::ExecContext ctx = dashboard->exec_context();
  auto trace_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(phase_s));
  while (Clock::now() < trace_deadline) {
    Request request = mix.Next();
    si::SpanId span = recorder.Open("ds.request");
    double layers_ms = 0;
    if (request.kind == Kind::kCube) {
      si::DataCube::Query query = CubeQueryOf(request);
      bool hit = false;
      double ms = recorder.Time("cube.query", span, [&] {
        auto r = dashboard->CubeQuery(kEndpoint, query);
        hit = r.ok() && r->cache_hit;
      });
      if (!hit) cube_miss_us.push_back(ms * 1000.0);
      layers_ms = ms;
      Timed t = TimedHandle(server.get(), si::HttpRequest::Get(request.url));
      double cached_ms = recorder.Time("cube.query", span, [&] {
        (void)dashboard->CubeQuery(kEndpoint, query);
      });
      recorder.Add("server.route_us", (t.ms - cached_ms) * 1000.0);
      layers_ms += t.ms - cached_ms;
    } else if (request.kind == Kind::kOps) {
      si::Result<si::TablePtr> result = si::Status::Internal("unset");
      double ms = recorder.Time("ops.query", span, [&] {
        si::FilterCompareOp ge("order_id", si::FilterCompareOp::Cmp::kGe,
                               si::Value(request.lo));
        si::FilterCompareOp lt("order_id", si::FilterCompareOp::Cmp::kLt,
                               si::Value(request.hi));
        auto groupby = si::GroupByOp::Create(
            {kGroupCols[request.group]}, {si::AggregateSpec{"sum", "qty", "sum_qty"}});
        result = ge.Execute({endpoint}, ctx);
        if (result.ok()) result = lt.Execute({*result}, ctx);
        if (result.ok() && groupby.ok()) result = (*groupby)->Execute({*result}, ctx);
      });
      if (!result.ok()) report.Fail("traced ops query " + request.url);
      ops_query_ms.push_back(ms);
      double render_ms = recorder.Time("server.render", span, [&] {
        if (result.ok()) (void)si::TableToJson(**result).SerializePretty();
      });
      Timed t = TimedHandle(server.get(), si::HttpRequest::Get(request.url));
      recorder.Add("server.route_us", (t.ms - ms - render_ms) * 1000.0);
      layers_ms = t.ms;
    } else {
      (void)si::TableToJson(*endpoint, 50, request.offset);  // warm, as served
      double render_ms =
          ReplayRender(*endpoint, 50, request.offset, &recorder, span);
      Timed t = TimedHandle(server.get(), si::HttpRequest::Get(request.url));
      recorder.Add("server.route_us", (t.ms - render_ms) * 1000.0);
      layers_ms = t.ms;
    }
    recorder.Close(span);
    coverage.push_back(layers_ms);
  }
  AddPipelineLayers(recorder, &report);
  serving.flows_executed = JsonNumber(run_body, "flows_executed");
  serving.flows_cached = JsonNumber(run_body, "flows_cached");
  serving.cube_query_miss_us = Median(cube_miss_us);
  serving.cache_hit_ratio = hit_ratio;
  serving.scan_dedup_ratio = ScanDedupRatio(metrics_before, metrics_after);
  serving.ops_query_ms = Median(ops_query_ms);
  serving.ops_query_rows = static_cast<double>(endpoint->num_rows());
  serving.coverage = ds.p50_ms > 0 ? Median(coverage) / ds.p50_ms : 0;
  AddServingLayers(serving, &report);
  if (!recorder.WriteChromeJson(args.trace_out)) {
    report.Fail("cannot write " + args.trace_out);
  }
  return report;
}

}  // namespace e2ebench
