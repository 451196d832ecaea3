#include "replay.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "compile/compiler.h"
#include "cube/data_cube.h"
#include "dashboard/dashboard.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "gov/memory_budget.h"
#include "io/connector.h"
#include "ops/map_ops.h"

namespace e2ebench {

namespace si = shareinsights;

namespace {

/// The context Dashboard::exec_context() hands operators: a pool of one
/// worker per core and the process memory budget.
si::ExecContext OpContext() {
  static si::ThreadPool pool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  si::ExecContext ctx;
  if (pool.num_threads() > 1) ctx.pool = &pool;
  ctx.budget = &si::MemoryBudget::Process();
  return ctx;
}

std::string Family(const std::string& op_name) {
  if (op_name == "filter_by") return "filter";
  if (op_name == "orderby") return "sort";
  std::string out = op_name;
  std::replace(out.begin(), out.end(), ':', '_');
  return out;
}

double RowsPerSecond(double rows, double ms) {
  return ms > 0 ? rows / (ms / 1000.0) : 0;
}

const std::vector<std::string>& OpFamilies() {
  static const std::vector<std::string> kFamilies = {
      "map_date", "map_extract", "map_extract_location", "map_extract_words",
      "map_expression", "filter", "groupby", "join", "topn", "sort"};
  return kFamilies;
}

bool SameTable(const si::Table& a, const si::Table& b, std::string* why) {
  if (a.num_rows() != b.num_rows() ||
      a.schema().num_fields() != b.schema().num_fields()) {
    *why = "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.schema().num_fields()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.schema().num_fields());
    return false;
  }
  for (size_t c = 0; c < a.schema().num_fields(); ++c) {
    if (a.schema().field(c).name != b.schema().field(c).name) {
      *why = "column " + a.schema().field(c).name + " vs " +
             b.schema().field(c).name;
      return false;
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const si::Value& x = a.at(r, c);
      const si::Value& y = b.at(r, c);
      if (x.type() != y.type() || x.Compare(y) != 0) {
        *why = "row " + std::to_string(r) + " column " +
               a.schema().field(c).name + ": " + x.ToString() + " vs " +
               y.ToString();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool ReplayPipeline(const std::string& flow_text, LayerRecorder* recorder,
                    si::SpanId parent, bool check, Report* report,
                    PipelineReplay* out) {
  si::SpanId root = recorder->Open("pipeline", parent);
  *out = PipelineReplay();

  si::Result<si::FlowFile> file = si::Status::Internal("unset");
  double parse_ms = recorder->Time("flow.parse", root, [&] {
    file = si::ParseFlowFile(flow_text, "replay");
  });
  if (!file.ok()) {
    report->Fail("replay parse: " + file.status().ToString());
    return false;
  }
  si::CompileOptions options;
  options.endpoint_projection = true;
  options.endpoint_columns = si::ComputeEndpointColumns(*file);
  si::Result<si::ExecutionPlan> plan = si::Status::Internal("unset");
  double compile_ms = recorder->Time("compile", root, [&] {
    plan = si::CompileFlowFile(*file, options);
  });
  if (!plan.ok()) {
    report->Fail("replay compile: " + plan.status().ToString());
    return false;
  }
  recorder->Add("flow.parse_ms", parse_ms);
  recorder->Add("compile.ms", compile_ms);
  out->parse_compile_ms = parse_ms + compile_ms;

  // --- io: fetch and parse every source ------------------------------
  double fetch_ms = 0, json_ms = 0, csv_ms = 0, json_rows = 0, csv_rows = 0;
  for (const auto& [name, decl] : plan->sources) {
    const si::DataSourceParams& params = decl.params;
    auto connector =
        si::ConnectorRegistry::Default().Get(params.Get("protocol"));
    auto format = si::FormatRegistry::Default().Get(params.Get("format"));
    if (!connector.ok() || !format.ok()) {
      report->Fail("replay: source " + name + " has no connector/format");
      return false;
    }
    si::Result<std::string> payload = si::Status::Internal("unset");
    fetch_ms += recorder->Time("io.fetch:" + name, root, [&] {
      payload = (*connector)->Fetch(params);
    });
    if (!payload.ok()) {
      report->Fail("replay fetch " + name + ": " + payload.status().ToString());
      return false;
    }
    std::optional<si::Schema> declared;
    if (!decl.columns.empty()) declared = decl.DeclaredSchema();
    si::Result<si::TablePtr> table = si::Status::Internal("unset");
    bool json = params.Get("format") == "json";
    double ms = recorder->Time(
        std::string(json ? "io.json_parse:" : "io.csv_parse:") + name, root,
        [&] {
          table = (*format)->Parse(*payload, params, declared, decl.columns);
        });
    if (!table.ok()) {
      report->Fail("replay parse " + name + ": " + table.status().ToString());
      return false;
    }
    (json ? json_ms : csv_ms) += ms;
    (json ? json_rows : csv_rows) += static_cast<double>((*table)->num_rows());
    out->objects[name] = *table;
  }
  recorder->Add("io.fetch_ms", fetch_ms);
  recorder->Add("io.json_parse_ms", json_ms);
  recorder->Add("io.json_rows_per_s", RowsPerSecond(json_rows, json_ms));
  recorder->Add("io.csv_parse_ms", csv_ms);
  recorder->Add("io.csv_rows_per_s", RowsPerSecond(csv_rows, csv_ms));
  const double source_ms = fetch_ms + json_ms + csv_ms;

  // --- ops: every operator of every flow, in plan order ----------------
  si::ExecContext ctx = OpContext();
  std::map<std::string, double> family_ms, family_rows;
  double ops_ms = 0;
  auto run_op = [&](const si::TableOperator& op,
                    const std::vector<si::TablePtr>& inputs,
                    si::SpanId flow_span) -> si::Result<si::TablePtr> {
    si::Result<si::TablePtr> result = si::Status::Internal("unset");
    std::string family = Family(op.name());
    double ms = recorder->Time("ops." + family, flow_span,
                               [&] { result = op.Execute(inputs, ctx); });
    family_ms[family] += ms;
    for (const si::TablePtr& input : inputs) {
      family_rows[family] += static_cast<double>(input->num_rows());
    }
    ops_ms += ms;
    return result;
  };
  for (const si::CompiledFlow& flow : plan->flows) {
    si::SpanId flow_span = recorder->Open("flow:" + flow.outputs[0], root);
    std::vector<si::TablePtr> inputs;
    for (const std::string& input : flow.inputs) inputs.push_back(out->objects[input]);
    si::TablePtr current;
    for (size_t t = 0; t < flow.ops.size(); ++t) {
      std::vector<si::TablePtr> stage =
          t == 0 ? inputs : std::vector<si::TablePtr>{current};
      si::Result<si::TablePtr> next = si::Status::Internal("unset");
      if (auto* parallel =
              dynamic_cast<const si::ParallelOp*>(flow.ops[t].get())) {
        // `parallel:` composes its members left to right.
        si::TablePtr table = stage[0];
        for (const si::TableOperatorPtr& member : parallel->members()) {
          next = run_op(*member, {table}, flow_span);
          if (!next.ok()) break;
          table = *next;
        }
      } else {
        next = run_op(*flow.ops[t], stage, flow_span);
      }
      if (!next.ok()) {
        report->Fail("replay op " + flow.task_names[t] + ": " +
                     next.status().ToString());
        return false;
      }
      current = *next;
    }
    for (const std::string& output : flow.outputs) out->objects[output] = current;
    recorder->Close(flow_span);
  }
  for (const auto& [family, ms] : family_ms) {
    recorder->Add("ops." + family + "_ms", ms);
    recorder->Add("ops." + family + "_rows_per_s",
                  RowsPerSecond(family_rows[family], ms));
  }

  // --- exec: the executor over the same plan ---------------------------
  si::DataStore store;
  si::Result<si::ExecutionStats> stats = si::Status::Internal("unset");
  out->exec_run_ms = recorder->Time("exec.run", root, [&] {
    si::Executor executor;
    stats = executor.Execute(*plan, &store);
  });
  if (!stats.ok()) {
    report->Fail("replay exec: " + stats.status().ToString());
    return false;
  }
  recorder->Add("exec.run_ms", out->exec_run_ms);
  if (out->exec_run_ms > source_ms) {
    recorder->Add("exec.flow_parallelism",
                  ops_ms / (out->exec_run_ms - source_ms));
  }
  if (check) {
    for (const std::string& name : store.Names()) {
      auto executed = store.Get(name);
      auto it = out->objects.find(name);
      std::string why;
      if (it == out->objects.end()) {
        report->Mismatch("replay lacks object " + name);
      } else if (!SameTable(*it->second, **executed, &why)) {
        report->Mismatch("replayed " + name + " differs from Executor: " + why);
      }
    }
  }

  // --- cube: one build per endpoint ------------------------------------
  for (const std::string& endpoint : plan->endpoints) {
    si::TablePtr table = out->objects[endpoint];
    out->cube_build_ms += recorder->Time("cube.build:" + endpoint, root, [&] {
      auto cube = si::DataCube::Build(table);
      if (!cube.ok()) report->Fail("replay cube: " + cube.status().ToString());
    });
  }
  recorder->Add("cube.build_ms", out->cube_build_ms);
  recorder->Close(root);
  return true;
}

double ReplayRender(const si::Table& table, size_t limit, size_t offset,
                    LayerRecorder* recorder, si::SpanId parent) {
  double ms = recorder->Time("server.render", parent, [&] {
    std::string body = si::TableToJson(table, limit, offset).SerializePretty();
    (void)body;
  });
  recorder->Add("server.browse_render_us", ms * 1000.0);
  return ms;
}

void AddPipelineLayers(const LayerRecorder& recorder, Report* report) {
  auto add = [&](const std::string& name, const std::string& unit) {
    report->layers.push_back({name, unit, recorder.MedianOf(name)});
  };
  add("flow.parse_ms", "ms");
  add("compile.ms", "ms");
  add("io.fetch_ms", "ms");
  add("io.json_parse_ms", "ms");
  add("io.json_rows_per_s", "rows/s");
  add("io.csv_parse_ms", "ms");
  add("io.csv_rows_per_s", "rows/s");
  for (const std::string& family : OpFamilies()) {
    add("ops." + family + "_ms", "ms");
    add("ops." + family + "_rows_per_s", "rows/s");
  }
  add("exec.run_ms", "ms");
  add("exec.flow_parallelism", "ratio");
  add("cube.build_ms", "ms");
  add("server.browse_render_us", "us");
  add("server.route_us", "us");
}

}  // namespace e2ebench
