// The traced pass: replays a dashboard's create+run layer by layer through
// each module's public functions, timing every call from the benchmark's
// own code. Nothing here reads the program's internal spans.

#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <map>
#include <string>

#include "harness.h"
#include "table/table.h"

namespace e2ebench {

/// One replayed create+run: the layer times trace.coverage adds up, and
/// every object the replay materialized.
struct PipelineReplay {
  double parse_compile_ms = 0;
  double exec_run_ms = 0;
  double cube_build_ms = 0;
  std::map<std::string, shareinsights::TablePtr> objects;
};

/// Replays `flow_text` as Dashboard::Create + Run would execute it:
///   flow.parse      ParseFlowFile
///   compile         CompileFlowFile (the final, endpoint-projected pass)
///   io.fetch        Connector::Fetch per source
///   io.*_parse      Format::Parse per source (json / csv)
///   ops.<family>    TableOperator::Execute per op of every CompiledFlow
///                   (`parallel` tasks expanded into their members)
///   exec.run        Executor::Execute on the same plan
///   cube.build      DataCube::Build per endpoint
/// Samples land in `recorder` under those names. When `check` is set,
/// every replayed object is compared with what Executor::Execute
/// materialized; differences are reported as oracle mismatches.
bool ReplayPipeline(const std::string& flow_text, LayerRecorder* recorder,
                    shareinsights::SpanId parent, bool check,
                    Report* report, PipelineReplay* out);

/// Times TableToJson + SerializePretty of one page of `table` (the body the
/// browse route renders), recording server.browse_render_us. The first
/// render of a fresh table includes decoding its columns; callers that
/// compare against a warm server page warm the table first.
double ReplayRender(const shareinsights::Table& table, size_t limit,
                    size_t offset, LayerRecorder* recorder,
                    shareinsights::SpanId parent);

/// Appends the per-layer metrics every workload reports (pipeline layers,
/// render, route) from `recorder` to `report`.
void AddPipelineLayers(const LayerRecorder& recorder, Report* report);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_
