#include "workloads.h"

#include <algorithm>
#include <exception>
#include <functional>

#include "core/sim_error.h"
#include "core/simulator.h"
#include "core/trace_context.h"
#include "harness/runner.h"
#include "trace/generators.h"
#include "trace/pfct.h"

namespace perfbench {

using pfc::PolicyKind;
using pfc::SimConfig;
using pfc::Trace;

namespace {

const std::vector<PolicyKind> kAllPolicies = {
    PolicyKind::kDemand,     PolicyKind::kDemandLru,         PolicyKind::kFixedHorizon,
    PolicyKind::kAggressive, PolicyKind::kReverseAggressive, PolicyKind::kForestall};
// The policies whose per-reference work is cheap enough that the engine's
// own paths dominate (forestall and reverse-aggressive plan heavily).
const std::vector<PolicyKind> kLightPolicies = {PolicyKind::kDemand, PolicyKind::kFixedHorizon,
                                                PolicyKind::kAggressive};

class Builder {
 public:
  Builder(Inputs& in, const WorkloadOptions& options, SpanLog* log)
      : in_(in), options_(options), log_(log) {}

  // Generates a trace (trace.gen span), truncated to the prefix if one is set.
  const Trace& Gen(const std::function<Trace()>& make) {
    ScopedSpan span(log_, "trace.gen");
    Trace t = make();
    in_.traces.push_back(options_.prefix > 0 && t.size() > options_.prefix
                             ? t.Prefix(options_.prefix)
                             : std::move(t));
    return in_.traces.back();
  }

  const Trace& Named(const std::string& name) {
    return Gen([&] { return pfc::MakeTrace(name, options_.seed); });
  }

  // Writes `t` as a .pfct file and reopens it as a streaming trace
  // (trace.load span). Returns null and sets `error` on I/O failure.
  const Trace* SaveAndStream(const Trace& t, std::string* error) {
    ScopedSpan span(log_, "trace.load");
    const std::string path =
        options_.work_dir + "/" + t.name() + "-" + std::to_string(options_.seed) + ".pfct";
    pfc::Expected<bool> saved = pfc::SavePfct(t, path);
    if (!saved.ok()) {
      *error = saved.error();
      return nullptr;
    }
    pfc::Expected<Trace> opened = Trace::OpenPfctStreaming(path);
    if (!opened.ok()) {
      *error = opened.error();
      return nullptr;
    }
    in_.traces.push_back(opened.take());
    return &in_.traces.back();
  }

  // Adds one cell per policy over `t`, building (or reusing) its context.
  void Cells(const Trace& t, const SimConfig& config, const std::vector<PolicyKind>& kinds) {
    std::shared_ptr<const pfc::TraceContext> context;
    {
      ScopedSpan span(log_, config.predictor.enabled() ? "predict.context_build"
                                                       : "core.context_build");
      context = pfc::SharedTraceContext(t, config.hint_coverage, config.hint_seed,
                                        config.hint_fault, config.predictor);
    }
    for (PolicyKind kind : kinds) {
      Cell cell;
      cell.context = context;
      cell.config = config;
      cell.kind = kind;
      in_.cells.push_back(std::move(cell));
    }
  }

 private:
  Inputs& in_;
  const WorkloadOptions& options_;
  SpanLog* log_;
};

void SetupPaperGrid(Inputs& in, Builder& b, SpanLog* log) {
  for (const pfc::TraceSpec& ts : pfc::AllTraceSpecs()) {
    const Trace& t = b.Named(ts.name);
    pfc::StudySpec spec;
    spec.trace_name = ts.name;
    spec.disks = pfc::PaperDiskCounts();
    spec.policies = {PolicyKind::kDemand, PolicyKind::kFixedHorizon, PolicyKind::kAggressive,
                     PolicyKind::kReverseAggressive, PolicyKind::kForestall};
    const SimConfig config = pfc::StudyConfig(spec, 1);
    // Prebuilt here so RunStudy's own lookups hit the memo: setup, not the
    // timed phase, pays for the oracle.
    ScopedSpan span(log, "core.context_build");
    (void)pfc::SharedTraceContext(t, config.hint_coverage, config.hint_seed);
    in.studies.push_back(std::move(spec));
  }
}

void SetupPolicyCells(Builder& b) {
  for (const char* name : {"synth", "cscope2", "postgres-join"}) {
    const Trace& t = b.Named(name);
    b.Cells(t, pfc::BaselineConfig(name, 4), kAllPolicies);
  }
}

void SetupHitRuns(Builder& b) {
  for (const pfc::TraceSpec& ts : pfc::AllTraceSpecs()) {
    const Trace& t = b.Named(ts.name);
    SimConfig config = pfc::BaselineConfig(ts.name, 4);
    config.cache_blocks = static_cast<int>(t.DistinctBlocks()) + 64;
    b.Cells(t, config, kLightPolicies);
  }
}

void SetupMixedUse(Inputs& in, Builder& b, const WorkloadOptions& options) {
  const uint64_t seed = options.seed;
  const Trace& cscope2 = b.Named("cscope2");
  const Trace& synth = b.Named("synth");

  // Write-behind read-modify-write and a file copy, both at 2 disks.
  const Trace& rmw = b.Gen([&] { return pfc::WithUpdates(cscope2, 0.3, seed); });
  b.Cells(rmw, pfc::BaselineConfig("cscope2", 2), kLightPolicies);
  const Trace& copy = b.Gen([&] { return pfc::MakeCopyTrace(4000, 1.0, seed); });
  SimConfig copy_config;
  copy_config.num_disks = 2;
  b.Cells(copy, copy_config, kLightPolicies);

  // Knowledge: half the references hinted, then an online Markov predictor.
  SimConfig partial = pfc::BaselineConfig("synth", 4);
  partial.hint_coverage = 0.5;
  partial.hint_seed = seed;
  b.Cells(synth, partial, kLightPolicies);
  SimConfig markov = pfc::BaselineConfig("synth", 4);
  markov.predictor.kind = pfc::PredictorKind::kMarkov;
  markov.predictor.lookahead = 16;
  b.Cells(synth, markov, kLightPolicies);

  // Media errors with retries, plus a latency tail.
  SimConfig faulty = pfc::BaselineConfig("cscope2", 4);
  faulty.faults.media_error_rate = 0.01;
  faulty.faults.tail_rate = 0.02;
  faulty.faults.seed = seed;
  b.Cells(cscope2, faulty, kLightPolicies);

  // Streaming replay from a .pfct file, and its in-memory twin.
  const SimConfig healthy = pfc::BaselineConfig("cscope2", 4);
  std::string error;
  const Trace* streamed = b.SaveAndStream(cscope2, &error);
  if (streamed == nullptr) {
    throw pfc::SimError("mixed-use: " + error);
  }
  const size_t streamed_begin = in.cells.size();
  b.Cells(*streamed, healthy, kLightPolicies);
  const size_t twin_begin = in.cells.size();
  b.Cells(cscope2, healthy, kLightPolicies);
  for (size_t i = 0; i < kLightPolicies.size(); ++i) {
    in.twins.emplace_back(streamed_begin + i, twin_begin + i);
  }
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char* w) { return name == w; });
}

std::unique_ptr<Inputs> Setup(const std::string& workload, const WorkloadOptions& options,
                              SpanLog* log) {
  pfc::ClearTunedRevAggCache();
  pfc::ClearTraceContextCache();
  auto in = std::make_unique<Inputs>();
  ScopedSpan span(log, "setup");
  Builder b(*in, options, log);
  if (workload == "paper-grid") {
    SetupPaperGrid(*in, b, log);
  } else if (workload == "policy-cells") {
    SetupPolicyCells(b);
  } else if (workload == "hit-runs") {
    SetupHitRuns(b);
  } else {
    SetupMixedUse(*in, b, options);
  }
  return in;
}

std::vector<pfc::TuneRequest> PaperGridTuneRequests(const pfc::StudySpec& spec) {
  std::vector<pfc::TuneRequest> requests;
  for (int disks : spec.disks) {
    pfc::TuneRequest request;
    request.config = pfc::StudyConfig(spec, disks);
    request.fetch_times = pfc::RevAggTuningFetchTimes();
    request.batches = pfc::RevAggTuningBatches(disks);
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<Cell> PaperGridCells(const Inputs& inputs,
                                 const std::vector<std::vector<pfc::PolicyOptions>>& tuned) {
  std::vector<Cell> cells;
  for (size_t s = 0; s < inputs.studies.size(); ++s) {
    const pfc::StudySpec& spec = inputs.studies[s];
    const Trace& t = inputs.traces[s];
    for (PolicyKind kind : spec.policies) {
      for (size_t di = 0; di < spec.disks.size(); ++di) {
        Cell cell;
        cell.config = pfc::StudyConfig(spec, spec.disks[di]);
        cell.context = pfc::SharedTraceContext(t, cell.config.hint_coverage,
                                               cell.config.hint_seed);
        cell.kind = kind;
        cell.options = spec.options;
        if (kind == PolicyKind::kReverseAggressive) {
          cell.options.revagg = tuned[s][di].revagg;
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

CellRun RunCell(const Cell& cell, CellCounters* counters, SpanLog* log) {
  CellRun out;
  ScopedSpan span(log, "core.run");
  const int64_t t0 = NowNs();
  try {
    std::unique_ptr<pfc::Policy> policy = pfc::MakePolicy(cell.kind, cell.options);
    if (counters != nullptr) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), counters);
    }
    pfc::Simulator sim(*cell.context, cell.config, policy.get());
    out.result = sim.Run();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.ns = NowNs() - t0;
  return out;
}

std::string CheckResult(const pfc::RunResult& r) {
  const int64_t bars = (r.compute_time + r.driver_time + r.stall_time).ns();
  // Driver overhead accrued by the last events is never consumed by a
  // reference, so the bars may exceed elapsed by at most the driver total.
  if (bars < r.elapsed_time.ns() || bars - r.elapsed_time.ns() > r.driver_time.ns()) {
    return "compute + driver + stall does not decompose elapsed";
  }
  if (r.prefetch_issued != r.prefetch_filled + r.prefetch_failed ||
      r.prefetch_filled != r.prefetch_useful + r.prefetch_useless + r.prefetch_late) {
    return "prefetch ledger does not balance";
  }
  if (r.fetches < r.prefetch_issued || r.fetches > r.demand_fetches + r.prefetch_issued) {
    return "fetches outside [prefetches, demand + prefetches]";
  }
  if (r.elapsed_time.ns() <= 0 ||
      r.degraded_stall_ns.ns() + r.outage_stall_ns.ns() > r.stall_time.ns()) {
    return "elapsed or stall attribution out of range";
  }
  return "";
}

}  // namespace perfbench
