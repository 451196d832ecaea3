// ipl_author: the paper's edit -> see loop (section 5 hackathon). Two
// authors, each on a fork of the same flow file, in a closed loop of
// POST create (a seeded edit) -> POST run -> GET the first page of every
// endpoint. Every run reloads its sources, so the result cache never hits.

#include <memory>
#include <thread>

#include "replay.h"
#include "workloads.h"

namespace e2ebench {

namespace si = shareinsights;

namespace {

constexpr int kAuthors = 2;
constexpr int kSetups = 3;
const InputSizes kSizes{6000, 30000, 4000};

struct Iteration {
  size_t variant = 0;
  std::vector<size_t> page_hashes;
  double ms = 0;
};

std::string Dash(int author) { return "author" + std::to_string(author); }

std::string PageUrl(const std::string& dash, const std::string& endpoint) {
  return "/api/v1/" + dash + "/ds/" + endpoint;
}

/// An author's seeded edits: every variant once per round, in a fresh
/// shuffled order each round, so every seed runs the same mix.
class EditSchedule {
 public:
  EditSchedule(uint64_t seed, size_t variants) : rng_(seed), order_(variants) {
    for (size_t i = 0; i < variants; ++i) order_[i] = i;
  }
  size_t Next() {
    if (next_ == 0) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Below(i)]);
      }
    }
    size_t v = order_[next_];
    next_ = (next_ + 1) % order_.size();
    return v;
  }

 private:
  SplitMix rng_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// Per-thread tally merged into the Report after the join.
struct Tally {
  int64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<Iteration> iterations;
  std::vector<double> flows_executed, flows_cached;
};

/// One author iteration; returns false when a request failed.
bool RunIteration(si::ApiServer* server, const std::string& dash,
                  const std::string& flow, Tally* tally, Iteration* it) {
  auto start = Clock::now();
  ++tally->attempted;
  si::HttpResponse created =
      server->Post("/api/v1/dashboards/" + dash + "/create", flow);
  if (!created.ok()) {
    tally->failures.push_back("create " + std::to_string(created.status));
    return false;
  }
  ++tally->attempted;
  si::HttpResponse ran = server->Post("/api/v1/dashboards/" + dash + "/run", "");
  if (!ran.ok()) {
    tally->failures.push_back("run " + std::to_string(ran.status));
    return false;
  }
  for (const std::string& endpoint : FlowEndpoints()) {
    ++tally->attempted;
    si::HttpResponse page = server->Get(PageUrl(dash, endpoint));
    if (!page.ok()) {
      tally->failures.push_back("page " + endpoint + " " +
                                std::to_string(page.status));
      return false;
    }
    it->page_hashes.push_back(std::hash<std::string>{}(page.body));
  }
  it->ms = MsSince(start);
  tally->flows_executed.push_back(JsonNumber(ran.body, "flows_executed"));
  tally->flows_cached.push_back(JsonNumber(ran.body, "flows_cached"));
  return true;
}

}  // namespace

Report RunIplAuthor(const Args& args) {
  Report report;
  Inputs inputs = GenerateInputs(kSizes, args.seed);
  std::string dict_dir = StageInputs(args, inputs, kTweetsUrl);
  if (dict_dir.empty()) {
    report.Fail("cannot stage inputs under " + args.work_dir);
    return report;
  }
  const std::vector<FlowVariant> variants = AuthorVariants();
  std::vector<std::string> flows;
  for (const FlowVariant& v : variants) {
    flows.push_back(FlowText(v, dict_dir, kTweetsUrl));
  }

  // --- set-up: server, both forks created and run, cubes built ---------
  std::unique_ptr<si::ApiServer> server;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    server.reset();
    auto start = Clock::now();
    server = std::make_unique<si::ApiServer>();
    for (int a = 0; a < kAuthors; ++a) {
      ++report.attempted;
      si::HttpResponse r =
          server->Post("/api/v1/dashboards/" + Dash(a) + "/create", flows[0]);
      ++report.attempted;
      if (r.ok()) r = server->Post("/api/v1/dashboards/" + Dash(a) + "/run", "");
      if (!r.ok()) report.Fail("setup: " + r.body);
    }
    setups.push_back(MsSince(start) / 1000.0);
  }
  if (!report.correct()) return report;

  // --- timed closed loop -------------------------------------------------
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Tally> tallies(kAuthors);
  auto loop_start = Clock::now();
  auto deadline = loop_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(phase_s));
  std::vector<std::jthread> authors;
  for (int a = 0; a < kAuthors; ++a) {
    authors.emplace_back([&, a] {
      EditSchedule edits(args.seed * 1000003 + static_cast<uint64_t>(a),
                         variants.size());
      while (Clock::now() < deadline) {
        Iteration it;
        it.variant = edits.Next();
        if (!RunIteration(server.get(), Dash(a), flows[it.variant],
                          &tallies[a], &it)) {
          continue;
        }
        tallies[a].iterations.push_back(std::move(it));
      }
    });
  }
  for (std::jthread& t : authors) t.join();
  double loop_s = MsSince(loop_start) / 1000.0;
  double peak_rss = PeakRssMb();

  std::vector<double> latencies, flows_executed, flows_cached;
  std::vector<Iteration*> all;
  for (Tally& tally : tallies) {
    report.attempted += tally.attempted;
    for (const std::string& f : tally.failures) report.Fail(f);
    for (Iteration& it : tally.iterations) {
      latencies.push_back(it.ms);
      all.push_back(&it);
    }
    flows_executed.insert(flows_executed.end(), tally.flows_executed.begin(),
                          tally.flows_executed.end());
    flows_cached.insert(flows_cached.end(), tally.flows_cached.begin(),
                        tally.flows_cached.end());
  }
  if (args.plant_wrong && !all.empty()) all[0]->page_hashes[0] ^= 1;

  // --- oracle: every page against a cache-off reference ----------------
  {
    si::ApiServer::Options options;
    options.enable_result_cache = false;
    si::ApiServer reference(nullptr, options);
    std::map<size_t, std::vector<size_t>> expected;
    for (Iteration* it : all) {
      auto [entry, fresh] = expected.try_emplace(it->variant);
      if (fresh) {
        std::string dash = "ref" + std::to_string(it->variant);
        reference.Post("/api/v1/dashboards/" + dash + "/create",
                       flows[it->variant]);
        si::HttpResponse ran =
            reference.Post("/api/v1/dashboards/" + dash + "/run", "");
        if (!ran.ok()) report.Fail("reference run: " + ran.body);
        for (const std::string& endpoint : FlowEndpoints()) {
          entry->second.push_back(std::hash<std::string>{}(
              reference.Get(PageUrl(dash, endpoint)).body));
        }
      }
      for (size_t e = 0; e < it->page_hashes.size(); ++e) {
        if (it->page_hashes[e] != entry->second[e]) {
          report.Mismatch("variant " + std::to_string(it->variant) +
                          " endpoint " + FlowEndpoints()[e] +
                          " differs from the cache-off reference");
        }
      }
    }
  }

  double p50 = Percentile(latencies, 50);
  double p90 = Percentile(latencies, 90);
  double per_s = static_cast<double>(latencies.size()) / loop_s;
  double setup_s = Median(setups);
  AddEndToEnd(&report, setup_s, p50, p90, per_s, peak_rss);
  report.named = {
      {"setup_s", "s", setup_s},
      {"edit_run_p50_ms", "ms", p50},
      {"edit_run_p90_ms", "ms", p90},
      {"edit_runs_per_s", "1/s", per_s},
      {"edit_run_samples", "count", static_cast<double>(latencies.size())},
      {"peak_rss_mb", "MB", peak_rss},
  };
  if (!args.trace) return report;

  // --- traced pass: the same edit sequence, layer by layer -------------
  LayerRecorder recorder;
  EditSchedule edits(args.seed * 1000003, variants.size());
  std::vector<double> coverage;
  std::vector<bool> checked(variants.size(), false);
  auto trace_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(phase_s));
  while (Clock::now() < trace_deadline) {
    size_t v = edits.Next();
    si::SpanId iteration = recorder.Open("author.iteration");
    PipelineReplay replay;
    if (!ReplayPipeline(flows[v], &recorder, iteration, !checked[v], &report,
                        &replay)) {
      break;
    }
    checked[v] = true;
    // Re-run the live fork on the same edit, untimed, so its pages are as
    // fresh as the replayed tables: the first render of a table decodes
    // its columns, and a real iteration pays that.
    report.attempted += 2;
    server->Post("/api/v1/dashboards/" + Dash(0) + "/create", flows[v]);
    if (!server->Post("/api/v1/dashboards/" + Dash(0) + "/run", "").ok()) {
      report.Fail("traced run of " + Dash(0));
    }
    double pages_ms = 0;
    for (const std::string& endpoint : FlowEndpoints()) {
      double render_ms =
          ReplayRender(*replay.objects[endpoint], 100, 0, &recorder, iteration);
      ++report.attempted;
      Timed page = TimedHandle(server.get(),
                               si::HttpRequest::Get(PageUrl(Dash(0), endpoint)));
      if (!page.response.ok()) report.Fail("traced page " + endpoint);
      recorder.Add("server.route_us", (page.ms - render_ms) * 1000.0);
      pages_ms += page.ms;
    }
    recorder.Close(iteration);
    coverage.push_back(replay.parse_compile_ms + replay.exec_run_ms +
                       replay.cube_build_ms + pages_ms);
  }
  AddPipelineLayers(recorder, &report);
  ServingLayers serving;
  serving.flows_executed = Median(flows_executed);
  serving.flows_cached = Median(flows_cached);
  serving.coverage = p50 > 0 ? Median(coverage) / p50 : 0;
  AddServingLayers(serving, &report);
  if (!recorder.WriteChromeJson(args.trace_out)) {
    report.Fail("cannot write " + args.trace_out);
  }
  return report;
}

}  // namespace e2ebench
