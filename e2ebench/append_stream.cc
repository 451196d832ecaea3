// append_stream: writes beside reads on the same cube/share layers. One
// appender sends 10-row :appends of seeded tweets to `ipl_tweets` on a
// fixed open-loop schedule; one subscriber long-polls
// `tweet_teams/changes?since=`; two closed-loop readers query the
// appended endpoints. Durability is on (WAL + snapshots in the work
// directory, fsync policy `interval`, 50 ms).

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "io/json.h"
#include "replay.h"
#include "table/append.h"
#include "workloads.h"

namespace e2ebench {

namespace si = shareinsights;

namespace {

constexpr int kSetups = 3;
constexpr int kReaders = 2;
constexpr int kWindows = 10;
constexpr size_t kRowsPerAppend = 10;
constexpr double kAppendsPerSecond = 10;
constexpr double kFsyncIntervalMs = 50;
const InputSizes kSizes{6000, 2000, 400};
const char* const kDash = "stream";
const char* const kObject = "ipl_tweets";
const char* const kSubscribed = "tweet_teams";

std::string ObjectsUrl() {
  return std::string("/api/v1/dashboards/") + kDash + "/objects";
}

std::string Encode(const std::string& s) {
  std::string out;
  for (char c : s) out += c == ' ' ? std::string("%20") : std::string(1, c);
  return out;
}

std::unique_ptr<si::ApiServer> NewServer(const std::string& durable_dir) {
  si::ApiServer::Options options;
  options.durability.dir = durable_dir;
  options.durability.fsync_policy = si::DurabilityOptions::FsyncPolicy::kInterval;
  options.durability.fsync_interval_ms = kFsyncIntervalMs;
  return std::make_unique<si::ApiServer>(nullptr, options);
}

struct Append {
  Clock::time_point scheduled;
  double late_ms = 0;
  double latency_ms = 0;
  double version = 0;
  double flows_delta = 0;
  double flows_full_fallback = 0;
};

struct Reader {
  int64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<Sample> samples;
  int64_t cube_answers = 0;
  int64_t cube_hits = 0;
};

/// The /ds request mix of a reader over the appended endpoints.
std::string ReaderUrl(SplitMix* rng, const Inputs& inputs) {
  const std::string team = Encode(inputs.team_names[rng->Below(inputs.team_names.size())]);
  double u = rng->Unit();
  std::string base = std::string("/api/v1/") + kDash + "/ds/";
  if (u < 0.5) {
    return base + "tweet_teams/filter/team/eq/" + team + "/groupby/date/count/body";
  }
  if (u < 0.75) {
    return base + "team_tweets/filter/team_fullName/eq/" + team +
           "/groupby/date/sum/noOfTweets";
  }
  return base + "players_tweets?limit=50";
}

/// Rows of every object of the dashboard, by name: (version, rows JSON).
std::map<std::string, std::pair<double, std::string>> Capture(
    si::ApiServer* server, Report* report) {
  std::map<std::string, std::pair<double, std::string>> out;
  auto list = si::ParseJson(server->Get(ObjectsUrl()).body);
  if (!list.ok() || list->Find("objects") == nullptr) {
    report->Mismatch("cannot list objects");
    return out;
  }
  for (const si::JsonValue& item : list->Find("objects")->array_items()) {
    std::string name = item.Find("name")->string_value();
    auto body = si::ParseJson(server->Get(ObjectsUrl() + "/" + name + "?limit=0").body);
    const si::JsonValue* rows = body.ok() ? body->Find("rows") : nullptr;
    out[name] = {item.Find("version")->number_value(),
                 rows != nullptr ? rows->Serialize() : "<missing>"};
  }
  return out;
}

std::vector<std::vector<si::Value>> RowsOf(const si::JsonValue& doc) {
  std::vector<std::vector<si::Value>> rows;
  for (const si::JsonValue& record : doc.array_items()) {
    rows.push_back({record.Find("postedTime")->ToTableValue(),
                    record.Find("body")->ToTableValue(),
                    record.Find("displayName")->ToTableValue()});
  }
  return rows;
}

bool SetUp(si::ApiServer* server, const std::string& flow,
           const std::string& first_append, Report* report,
           std::string* run_body) {
  report->attempted += 3;
  si::HttpResponse r =
      server->Post(std::string("/api/v1/dashboards/") + kDash + "/create", flow);
  if (r.ok()) {
    r = server->Post(std::string("/api/v1/dashboards/") + kDash + "/run", "");
    *run_body = r.body;
  }
  // The first append seeds the group-by delta state; it belongs to set-up.
  if (r.ok()) r = server->Post(ObjectsUrl() + "/" + kObject + ":append", first_append);
  if (!r.ok()) report->Fail("setup: " + r.body);
  return r.ok();
}

}  // namespace

Report RunAppendStream(const Args& args) {
  Report report;
  Inputs inputs = GenerateInputs(kSizes, args.seed);
  std::string dict_dir = StageInputs(args, inputs, kTweetsUrl);
  if (dict_dir.empty()) {
    report.Fail("cannot stage inputs under " + args.work_dir);
    return report;
  }
  const std::string flow = FlowText(FlowVariant(), dict_dir, kTweetsUrl);
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const size_t num_appends =
      static_cast<size_t>(phase_s * kAppendsPerSecond) + 1;
  SplitMix tweet_rng(args.seed * 104729 + 3);
  std::vector<std::vector<Tweet>> batches;
  std::vector<std::string> bodies;
  for (size_t i = 0; i < num_appends + 1; ++i) {
    batches.push_back(GenerateTweets(kRowsPerAppend, &tweet_rng));
    bodies.push_back(TweetsToAppendBody(batches.back()));
  }

  // --- set-up: durable server, create, run, cubes, first append --------
  std::unique_ptr<si::ApiServer> server;
  std::vector<double> setups;
  std::string durable_dir, run_body;
  for (int s = 0; s < kSetups; ++s) {
    server.reset();
    durable_dir = args.work_dir + "/durable" + std::to_string(s);
    auto start = Clock::now();
    server = NewServer(durable_dir);
    if (!SetUp(server.get(), flow, bodies[0], &report, &run_body)) return report;
    setups.push_back(MsSince(start) / 1000.0);
  }

  // --- timed phase ---------------------------------------------------------
  std::string health_before = server->Get("/api/v1/health").body;
  std::string metrics_before = server->Get("/api/v1/metrics").body;
  auto storage = [](const std::string& health, const std::string& key) {
    auto doc = si::ParseJson(health);
    const si::JsonValue* block = doc.ok() ? doc->Find("storage") : nullptr;
    const si::JsonValue* v = block != nullptr ? block->Find(key) : nullptr;
    return v != nullptr ? v->number_value() : 0.0;
  };
  double cursor = JsonNumber(
      server->Get(ObjectsUrl() + "/" + kSubscribed + "/changes?since=0").body,
      "version");
  std::vector<Append> appends(num_appends);
  std::vector<std::pair<double, Clock::time_point>> events;  // version, seen
  std::vector<Reader> readers(kReaders);
  std::atomic<bool> appender_done{false};
  std::atomic<int64_t> append_failures{0};
  std::string append_failure;
  double user_bytes = 0;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(phase_s));
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kAppendsPerSecond));
  size_t sent = 0;
  std::jthread appender([&] {
    for (size_t i = 0; i < num_appends; ++i) {
      Append& a = appends[i];
      a.scheduled = start + period * static_cast<int64_t>(i);
      if (a.scheduled >= deadline) break;
      std::this_thread::sleep_until(a.scheduled);
      a.late_ms = MsSince(a.scheduled);
      si::HttpResponse r =
          server->Post(ObjectsUrl() + "/" + kObject + ":append", bodies[i + 1]);
      a.latency_ms = MsSince(a.scheduled);
      user_bytes += static_cast<double>(bodies[i + 1].size());
      sent = i + 1;
      if (r.status != 202) {
        if (append_failures++ == 0) append_failure = r.body;
        continue;
      }
      a.version = JsonNumber(r.body, "version");
      a.flows_delta = JsonNumber(r.body, "flows_delta");
      a.flows_full_fallback = JsonNumber(r.body, "flows_full_fallback");
    }
    appender_done = true;
  });
  std::jthread subscriber([&] {
    // Polls until the newest acknowledged append's event has arrived, or
    // five seconds after the appender finished.
    std::optional<Clock::time_point> give_up;
    while (!give_up.has_value() || Clock::now() < *give_up) {
      si::HttpResponse r = server->Get(
          ObjectsUrl() + "/" + kSubscribed + "/changes?since=" +
          std::to_string(static_cast<uint64_t>(cursor)) + "&timeout_ms=200");
      auto seen = Clock::now();
      auto doc = si::ParseJson(r.body);
      if (doc.ok() && doc->Find("events") != nullptr) {
        for (const si::JsonValue& e : doc->Find("events")->array_items()) {
          double v = e.Find("version")->number_value();
          events.emplace_back(v, seen);
          cursor = std::max(cursor, v);
        }
      }
      if (appender_done) {
        if (!give_up.has_value()) give_up = Clock::now() + std::chrono::seconds(5);
        double last = sent > 0 ? appends[sent - 1].version : 0;
        if (cursor >= last) break;
      }
    }
  });
  std::vector<std::jthread> reader_threads;
  for (int t = 0; t < kReaders; ++t) {
    reader_threads.emplace_back([&, t] {
      SplitMix rng(args.seed * 31 + static_cast<uint64_t>(t));
      while (Clock::now() < deadline) {
        std::string url = ReaderUrl(&rng, inputs);
        ++readers[t].attempted;
        Timed r = TimedHandle(server.get(), si::HttpRequest::Get(url));
        if (!r.response.ok()) {
          readers[t].failures.push_back(url + " -> " + std::to_string(r.response.status));
          continue;
        }
        readers[t].samples.push_back({MsSince(start) / 1000.0, r.ms});
        if (r.response.body.rfind("\"cache\": \"") != std::string::npos) {
          ++readers[t].cube_answers;
          if (r.response.body.rfind("\"cache\": \"hit\"") != std::string::npos) {
            ++readers[t].cube_hits;
          }
        }
      }
    });
  }
  appender.join();
  for (std::jthread& t : reader_threads) t.join();
  subscriber.join();
  double peak_rss = PeakRssMb();
  std::string health_after = server->Get("/api/v1/health").body;
  std::string metrics_after = server->Get("/api/v1/metrics").body;

  std::vector<Sample> reads;
  std::vector<double> append_ms, late_ms, fresh_ms, flows_delta,
      flows_full_fallback;
  std::vector<std::vector<Tweet>> acknowledged = {batches[0]};
  report.attempted += static_cast<int64_t>(sent);
  if (append_failures > 0) {
    report.failed += append_failures;
    report.notes.push_back("append failed: " + append_failure);
  }
  std::sort(events.begin(), events.end());
  for (size_t i = 0; i < sent; ++i) {
    const Append& a = appends[i];
    if (a.version == 0) continue;
    acknowledged.push_back(batches[i + 1]);
    append_ms.push_back(a.latency_ms);
    late_ms.push_back(a.late_ms);
    flows_delta.push_back(a.flows_delta);
    flows_full_fallback.push_back(a.flows_full_fallback);
    auto e = std::lower_bound(
        events.begin(), events.end(), a.version,
        [](const std::pair<double, Clock::time_point>& x, double v) {
          return x.first < v;
        });
    if (e == events.end()) {
      report.Fail("subscriber never saw version " + std::to_string(a.version));
    } else {
      fresh_ms.push_back(
          std::chrono::duration<double, std::milli>(e->second - a.scheduled)
              .count());
    }
  }
  int64_t cube_answers = 0, cube_hits = 0;
  for (Reader& r : readers) {
    cube_answers += r.cube_answers;
    cube_hits += r.cube_hits;
    report.attempted += r.attempted;
    for (const std::string& f : r.failures) report.Fail(f);
    reads.insert(reads.end(), r.samples.begin(), r.samples.end());
  }

  // --- oracle --------------------------------------------------------
  auto live = Capture(server.get(), &report);
  if (args.plant_wrong && !live.empty()) {
    std::string& rows = live[kSubscribed].second;
    size_t pos = rows.find("Mumbai");
    if (pos != std::string::npos) rows[pos] = 'X';
  }
  {
    // Cold run over the base plus every acknowledged delta, in order.
    std::vector<Tweet> all = inputs.tweets;
    for (const auto& batch : acknowledged) all.insert(all.end(), batch.begin(), batch.end());
    const std::string cold_url = std::string(kTweetsUrl) + "/cold";
    si::SimulatedRemoteStore::Get().Publish(cold_url, TweetsToGnipJson(all));
    si::ApiServer::Options options;
    options.enable_result_cache = false;
    si::ApiServer cold(nullptr, options);
    cold.Post(std::string("/api/v1/dashboards/") + kDash + "/create",
              FlowText(FlowVariant(), dict_dir, cold_url));
    si::HttpResponse ran =
        cold.Post(std::string("/api/v1/dashboards/") + kDash + "/run", "");
    if (!ran.ok()) report.Mismatch("cold run failed: " + ran.body);
    auto expected = Capture(&cold, &report);
    for (const auto& [name, state] : live) {
      auto it = expected.find(name);
      if (it == expected.end() || it->second.second != state.second) {
        report.Mismatch(name + " differs from a cold run over base + deltas");
      }
    }
  }
  server.reset();
  {
    // A fresh server recovered from the same durability directory.
    std::unique_ptr<si::ApiServer> recovered = NewServer(durable_dir);
    auto restored = Capture(recovered.get(), &report);
    if (restored.size() != live.size()) report.Mismatch("recovered object set differs");
    for (const auto& [name, state] : live) {
      auto it = restored.find(name);
      if (it == restored.end() || it->second != state) {
        report.Mismatch(name + " differs after recovery (rows or version)");
      }
    }
  }

  double setup_s = Median(setups);
  Windowed ds = WindowedMedians(reads, phase_s, kWindows, 99);
  AddEndToEnd(&report, setup_s, Percentile(append_ms, 50),
              Percentile(append_ms, 90), ds.per_s, peak_rss);
  report.named = {
      {"setup_s", "s", setup_s},
      {"append_p50_ms", "ms", Percentile(append_ms, 50)},
      {"append_p90_ms", "ms", Percentile(append_ms, 90)},
      {"append_samples", "count", static_cast<double>(append_ms.size())},
      {"fresh_p50_ms", "ms", Percentile(fresh_ms, 50)},
      {"fresh_p90_ms", "ms", Percentile(fresh_ms, 90)},
      {"ds_p50_ms", "ms", ds.p50_ms},
      {"ds_p99_ms", "ms", ds.tail_ms},
      {"ds_qps", "1/s", ds.per_s},
      {"ds_samples", "count", static_cast<double>(reads.size())},
      {"bench.gen_late_p99_ms", "ms", Percentile(late_ms, 99)},
      {"peak_rss_mb", "MB", peak_rss},
  };
  if (!args.trace) return report;

  // --- traced pass: the same append schedule, layer by layer -----------
  LayerRecorder recorder;
  ServingLayers serving;
  {
    PipelineReplay replay;
    ReplayPipeline(flow, &recorder, 0, true, &report, &replay);
  }
  std::unique_ptr<si::ApiServer> durable = NewServer(args.work_dir + "/traced");
  si::ApiServer volatile_server;
  std::string ignored;
  SetUp(durable.get(), flow, bodies[0], &report, &ignored);
  report.attempted += 3;
  volatile_server.Post(std::string("/api/v1/dashboards/") + kDash + "/create", flow);
  volatile_server.Post(std::string("/api/v1/dashboards/") + kDash + "/run", "");
  volatile_server.Post(ObjectsUrl() + "/" + kObject + ":append", bodies[0]);
  si::Dashboard* dash_on = *durable->GetDashboard(kDash);
  si::Dashboard* dash_off = *volatile_server.GetDashboard(kDash);
  std::vector<double> parse_us, batch_us, on_ms, off_ms, coverage, cube_miss_us;
  SplitMix rng(args.seed * 31);
  auto trace_start = Clock::now();
  for (size_t i = 0; i < num_appends; ++i) {
    auto scheduled = trace_start + period * static_cast<int64_t>(i);
    if (scheduled >= trace_start + (deadline - start)) break;
    std::this_thread::sleep_until(scheduled);
    si::SpanId span = recorder.Open("append");
    si::Result<si::JsonValue> doc = si::Status::Internal("unset");
    double p = recorder.Time("io.append_parse", span,
                             [&] { doc = si::ParseJson(bodies[i + 1]); });
    if (!doc.ok()) {
      report.Fail("traced append parse");
      break;
    }
    std::vector<std::vector<si::Value>> rows = RowsOf(*doc);
    si::TablePtr base = *dash_on->store().Get(kObject);
    double b = recorder.Time("table.append_batch", span, [&] {
      if (!si::MakeAppendBatch(*base, rows).ok()) report.Fail("append batch");
    });
    double on = recorder.Time("dashboard.append", span, [&] {
      if (!dash_on->AppendToObject(kObject, rows).ok()) report.Fail("append on");
    });
    double off = recorder.Time("dashboard.append_volatile", span, [&] {
      if (!dash_off->AppendToObject(kObject, rows).ok()) report.Fail("append off");
    });
    report.attempted += 2;
    parse_us.push_back(p * 1000);
    batch_us.push_back(b * 1000);
    on_ms.push_back(on);
    off_ms.push_back(off);
    coverage.push_back(p + on);
    recorder.Close(span);
    // One reader request of each kind between appends.
    si::SpanId read = recorder.Open("ds.request");
    std::string team = inputs.team_names[rng.Below(inputs.team_names.size())];
    si::DataCube::Query query;
    query.filters.push_back({"team", {si::Value(team)}, false});
    query.group_by = {"date"};
    query.aggregates = {si::AggregateSpec{"count", "body", "count_body"}};
    bool hit = false;
    double q = recorder.Time("cube.query", read, [&] {
      auto r = dash_on->CubeQuery(kSubscribed, query);
      hit = r.ok() && r->cache_hit;
    });
    if (!hit) cube_miss_us.push_back(q * 1000);
    Timed t = TimedHandle(durable.get(),
                          si::HttpRequest::Get(std::string("/api/v1/") + kDash +
                                               "/ds/tweet_teams/filter/team/eq/" +
                                               Encode(team) + "/groupby/date/count/body"));
    double cached = recorder.Time("cube.query", read, [&] {
      (void)dash_on->CubeQuery(kSubscribed, query);
    });
    recorder.Add("server.route_us", (t.ms - cached) * 1000);
    si::TablePtr players = *dash_on->EndpointData("players_tweets");
    (void)si::TableToJson(*players, 50, 0);  // warm, as the readers see it
    double render = ReplayRender(*players, 50, 0, &recorder, read);
    Timed page = TimedHandle(durable.get(),
                             si::HttpRequest::Get(std::string("/api/v1/") + kDash +
                                                  "/ds/players_tweets?limit=50"));
    recorder.Add("server.route_us", (page.ms - render) * 1000);
    recorder.Close(read);
  }
  AddPipelineLayers(recorder, &report);
  serving.flows_executed = JsonNumber(run_body, "flows_executed");
  serving.flows_cached = JsonNumber(run_body, "flows_cached");
  serving.cube_query_miss_us = Median(cube_miss_us);
  serving.cache_hit_ratio =
      cube_answers > 0 ? static_cast<double>(cube_hits) /
                             static_cast<double>(cube_answers)
                       : 0;
  serving.scan_dedup_ratio = ScanDedupRatio(metrics_before, metrics_after);
  serving.append_rows = kRowsPerAppend;
  serving.append_parse_us = Median(parse_us);
  serving.append_batch_us = Median(batch_us);
  serving.dashboard_append_ms = Median(on_ms);
  serving.wal_append_ms = Median(on_ms) - Median(off_ms);
  serving.wal_bytes_per_user_byte =
      user_bytes > 0 ? (storage(health_after, "wal_bytes_written") -
                        storage(health_before, "wal_bytes_written")) /
                           user_bytes
                     : 0;
  serving.snapshots_written = storage(health_after, "snapshots_written") -
                              storage(health_before, "snapshots_written");
  serving.wal_fsyncs = storage(health_after, "wal_fsyncs") -
                       storage(health_before, "wal_fsyncs");
  serving.flows_delta = Median(flows_delta);
  serving.flows_full_fallback = Median(flows_full_fallback);
  double p50 = Percentile(append_ms, 50);
  serving.coverage = p50 > 0 ? Median(coverage) / p50 : 0;
  serving.gen_late_p99_ms = Percentile(late_ms, 99);
  AddServingLayers(serving, &report);
  if (!recorder.WriteChromeJson(args.trace_out)) {
    report.Fail("cannot write " + args.trace_out);
  }
  return report;
}

}  // namespace e2ebench
