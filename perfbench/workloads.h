// The benchmark's four workloads. Each is a closed batch of simulations
// driven from one process: setup builds its inputs from the seed, then a
// timed phase runs them. See README.md for why each exists.
//
//   paper-grid    Appendix A through RunStudy on the runner pool
//   policy-cells  6 policies x {synth, cscope2, postgres-join}, 4 disks
//   hit-runs      {demand, fixed-horizon, aggressive} x 10 traces, 4 disks,
//                 cache = distinct blocks + 64 (every reference hits after
//                 its cold miss)
//   mixed-use     write-behind, copy, partial hints, Markov predictor,
//                 media faults and streaming .pfct replay

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/study.h"
#include "timed.h"

namespace perfbench {

inline constexpr const char* kWorkloads[] = {"paper-grid", "policy-cells", "hit-runs",
                                             "mixed-use"};

bool IsWorkload(const std::string& name);

struct WorkloadOptions {
  uint64_t seed = 0;
  int64_t prefix = 0;    // > 0: truncate every trace to this many references
  std::string work_dir;  // where mixed-use writes its .pfct file
};

// One simulation: Simulator(*context, config, policy).Run().
struct Cell {
  std::shared_ptr<const pfc::TraceContext> context;
  pfc::SimConfig config;
  pfc::PolicyKind kind = pfc::PolicyKind::kDemand;
  pfc::PolicyOptions options;
};

// Everything a workload's setup builds. Cells point into `traces`, so an
// Inputs must not be copied.
struct Inputs {
  Inputs() = default;
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  std::deque<pfc::Trace> traces;  // deque: stable addresses as it grows
  std::vector<Cell> cells;        // serial workloads
  // mixed-use: (streaming cell, in-memory twin) index pairs whose results
  // must be identical.
  std::vector<std::pair<size_t, size_t>> twins;
  // paper-grid: one study per trace, studies[i] over traces[i].
  std::vector<pfc::StudySpec> studies;
};

// Clears the tuning and context memos, then builds the workload's inputs.
// With a log, records trace.gen, trace.load, core.context_build and
// predict.context_build spans.
std::unique_ptr<Inputs> Setup(const std::string& workload, const WorkloadOptions& options,
                              SpanLog* log);

// paper-grid's cells in RunStudy's output order (trace, policy, disks), with
// reverse-aggressive's options from `tuned[trace][disks index]`.
std::vector<Cell> PaperGridCells(const Inputs& inputs,
                                 const std::vector<std::vector<pfc::PolicyOptions>>& tuned);

// The tuning requests RunStudy builds for one study.
std::vector<pfc::TuneRequest> PaperGridTuneRequests(const pfc::StudySpec& spec);

struct CellRun {
  pfc::RunResult result;
  std::string error;  // empty on success
  int64_t ns = 0;     // host time of construction plus Run
};

// Runs one cell. With counters, the policy is wrapped in a TimedPolicy; with
// a log, the run is recorded as a core.run span.
CellRun RunCell(const Cell& cell, CellCounters* counters, SpanLog* log);

// Empty when `r` satisfies the engine's accounting identities; otherwise
// the first violated one.
std::string CheckResult(const pfc::RunResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
