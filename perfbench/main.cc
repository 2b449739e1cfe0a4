// perfbench: runs one benchmark workload and prints its metrics as one JSON
// object on the last line of stdout. run.py builds and drives it; see
// README.md for the workloads, the metrics and how to read the traced run.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--prefix N] [--spans-out PATH] [--work-dir DIR]
//   perfbench --self-check
//
// --trace 0 repeats passes (setup, then the timed phase) for --seconds and
// reports the end-to-end metrics. --trace 1 runs the workload's cells
// untraced (after a warm-up) and then under the TimedPolicy decorator,
// checks the two agree byte for byte, and reports the per-layer metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.h"
#include "timed.h"
#include "trace/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pfc::PolicyKind;
using pfc::RunResult;

const PolicyKind kPolicyKinds[] = {PolicyKind::kDemand,     PolicyKind::kDemandLru,
                                   PolicyKind::kFixedHorizon, PolicyKind::kAggressive,
                                   PolicyKind::kReverseAggressive, PolicyKind::kForestall};

// Passes and set-ups a --trace 0 run makes at least, whatever --seconds is:
// two passes so every run checks determinism, and enough set-ups (cheap
// next to a pass) that setup_s is a steady median even when passes are long.
constexpr int kMinPasses = 2;
constexpr size_t kMinSetups = 20;

struct Args {
  std::string workload;
  uint64_t seed = pfc::kDefaultTraceSeed;
  double seconds = 10;
  bool trace = false;
  int64_t prefix = 0;
  std::string spans_out;
  std::string work_dir = ".";
  bool self_check = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // the first few failure messages
  std::vector<std::string> digests;
  std::vector<Metric> metrics;

  void Fail(int64_t cells, const std::string& why) {
    failed += cells;
    if (errors.size() < 8) {
      errors.push_back(why);
    }
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// The middle sample, or the lower of the two middle ones.
double LowerMedian(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[(v.size() - 1) / 2];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// FNV-1a 64 over `s`, as 16 hex digits.
std::string Digest(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string Row(const RunResult& r) { return pfc::ResultsCsvString({r}); }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string ProvenanceJson(const Args& args) {
  return "{\"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"pfc_jobs\": " + JsonString(EnvOr("PFC_JOBS", "")) +
         ", \"jobs\": " + std::to_string(pfc::DefaultJobCount()) +
         ", \"pfc_full\": " + JsonString(EnvOr("PFC_FULL", "")) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"prefix\": " + std::to_string(args.prefix) + "}";
}

// Counts into `rep` every cell of a pass that threw or breaks an accounting
// identity, and (mixed-use) every streaming replay that differs from its
// in-memory twin.
void CheckCells(const Inputs& in, const std::vector<CellRun>& runs, Report& rep) {
  for (const CellRun& run : runs) {
    if (!run.error.empty()) {
      rep.Fail(1, "cell threw: " + run.error);
    } else if (std::string why = CheckResult(run.result); !why.empty()) {
      rep.Fail(1, run.result.trace_name + "/" + run.result.policy_name + ": " + why);
    }
  }
  for (const auto& [streamed, twin] : in.twins) {
    if (Row(runs[streamed].result) != Row(runs[twin].result)) {
      rep.Fail(1, "streaming replay differs from its in-memory twin");
    }
  }
}

// --- --trace 0: end-to-end metrics ----------------------------------------

// One timed phase, split into units: cells, or on paper-grid RunStudy calls.
struct Phase {
  std::vector<RunResult> results;  // in cell order
  int64_t cells = 0;               // cells attempted
  std::vector<double> unit_s;      // host seconds per unit
  std::vector<double> unit_refs;   // references each unit simulated
};

// paper-grid: every RunStudy call, tuning included. Its simulations run
// concurrently on the pool, so per-cell host time is not observable here;
// the traced run has it.
Phase RunGridPhase(const Inputs& in, Report& rep) {
  Phase ph;
  for (size_t s = 0; s < in.studies.size(); ++s) {
    const pfc::StudySpec& spec = in.studies[s];
    const int64_t cells = static_cast<int64_t>(spec.policies.size() * spec.disks.size());
    int64_t tune_runs = 0;
    for (const pfc::TuneRequest& q : PaperGridTuneRequests(spec)) {
      tune_runs += static_cast<int64_t>(q.fetch_times.size() * q.batches.size());
    }
    ph.cells += cells;
    ph.unit_refs.push_back(static_cast<double>(in.traces[s].size() * (cells + tune_runs)));
    const int64_t ts = NowNs();
    try {
      for (pfc::PolicySeries& series : pfc::RunStudy(in.traces[s], spec)) {
        ph.results.insert(ph.results.end(), series.results.begin(), series.results.end());
      }
    } catch (const std::exception& e) {
      rep.Fail(0, std::string("RunStudy threw: ") + e.what());
    }
    ph.unit_s.push_back(Seconds(NowNs() - ts));
  }
  if (static_cast<int64_t>(ph.results.size()) != ph.cells) {
    rep.Fail(ph.cells, "paper-grid pass incomplete");
    return ph;
  }
  for (const RunResult& r : ph.results) {
    if (std::string why = CheckResult(r); !why.empty()) {
      rep.Fail(1, r.trace_name + "/" + r.policy_name + ": " + why);
    }
  }
  return ph;
}

Phase RunCellsPhase(const Inputs& in, Report& rep) {
  Phase ph;
  std::vector<CellRun> runs;
  for (const Cell& cell : in.cells) {
    runs.push_back(RunCell(cell, nullptr, nullptr));
  }
  CheckCells(in, runs, rep);
  ph.cells = static_cast<int64_t>(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    ph.unit_s.push_back(Seconds(runs[i].ns));
    ph.unit_refs.push_back(static_cast<double>(in.cells[i].context->trace().size()));
    ph.results.push_back(std::move(runs[i].result));
  }
  return ph;
}

Report RunTimed(const Args& args, const WorkloadOptions& options) {
  Report rep;
  const bool grid = args.workload == "paper-grid";
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const int64_t t0 = NowNs();
    std::unique_ptr<Inputs> in = Setup(args.workload, options, nullptr);
    setup_s.push_back(Seconds(NowNs() - t0));
    return in;
  };

  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<std::vector<double>> unit_s;  // [unit][pass]
  std::vector<double> unit_refs;
  std::vector<std::string> first_rows;
  // The serial workloads run pass i on the i-th allowed CPU, round robin. A
  // lone busy thread otherwise stays on one CPU for the whole run, so the run
  // would measure that one CPU's contention; rotating spreads each unit's
  // samples over every CPU. paper-grid's pool threads inherit the creating
  // thread's mask, so it is never pinned.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpus.push_back(c);
    }
  }
  for (int pass = 0; pass < kMinPasses || NowNs() - start < budget; ++pass) {
    if (!grid && !cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[pass % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    std::unique_ptr<Inputs> in = timed_setup();
    Phase ph = grid ? RunGridPhase(*in, rep) : RunCellsPhase(*in, rep);
    rep.attempted += ph.cells;
    rep.digests.push_back(Digest(pfc::ResultsCsvString(ph.results)));
    if (static_cast<int64_t>(ph.results.size()) != ph.cells) {
      continue;  // already counted as failed
    }
    // Every pass must reproduce the first complete one bit for bit.
    if (first_rows.empty()) {
      for (const RunResult& r : ph.results) {
        first_rows.push_back(Row(r));
      }
      unit_refs = ph.unit_refs;
      unit_s.resize(unit_refs.size());
    } else {
      for (size_t i = 0; i < ph.results.size(); ++i) {
        if (Row(ph.results[i]) != first_rows[i]) {
          rep.Fail(1, "pass " + std::to_string(pass) + " differs from the first at cell " +
                          std::to_string(i));
        }
      }
    }
    for (size_t u = 0; u < unit_s.size(); ++u) {
      unit_s[u].push_back(ph.unit_s[u]);
    }
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  // The first set-up of a process pays one-off first-touch costs (page
  // faults, allocator growth) that swamp the 20-50 ms of real work; it is a
  // warm-up, not a sample.
  setup_s.erase(setup_s.begin());
  while (setup_s.size() < kMinSetups) {
    timed_setup();
  }

  // Each unit is timed by its lower-median pass, and wall_s is their sum. On
  // a shared host a CPU runs the same code up to 1.6x faster while its
  // hyperthread sibling happens to idle, for a few seconds up to a minute at
  // a time. The fastest pass lands in such a window in some runs and not in
  // others; the median stays on the common, contended speed. With only two
  // passes the lower median is the faster one, which drops a pass hit by a
  // one-off stall.
  double wall_s = 0;
  std::vector<double> rates;
  for (size_t u = 0; u < unit_s.size(); ++u) {
    wall_s += LowerMedian(unit_s[u]);
    rates.push_back(unit_refs[u] / LowerMedian(unit_s[u]));
  }
  rep.Add("setup_s", Median(setup_s), "s");
  rep.Add("wall_s", wall_s, "s");
  rep.Add("cell_refs_per_s", Geomean(rates), "1/s");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  return rep;
}

// --- --trace 1: per-layer metrics -----------------------------------------

void WriteSpans(const std::string& path, const Args& args, const SpanLog& log,
                const std::vector<Cell>& cells, const std::vector<CellCounters>& counters,
                const std::vector<CellRun>& traced) {
  std::ofstream out(path);
  const int64_t origin = log.spans().empty() ? 0 : log.spans().front().start_ns;
  out << "{\"provenance\": " << ProvenanceJson(args) << ",\n \"workload\": "
      << JsonString(args.workload) << ",\n \"spans\": [\n";
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    out << (i == 0 ? "  " : ",\n  ") << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin << "}";
  }
  out << "],\n \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellCounters& c = counters[i];
    out << (i == 0 ? "  " : ",\n  ") << "{\"trace\": " << JsonString(cells[i].context->trace().name())
        << ", \"policy\": " << JsonString(pfc::ToString(cells[i].kind))
        << ", \"disks\": " << cells[i].config.num_disks
        << ", \"refs\": " << cells[i].context->trace().size() << ", \"run_ns\": " << traced[i].ns
        << ", \"hook_ns\": " << c.hook_ns << ", \"init_ns\": " << c.init_ns
        << ", \"hook_calls\": " << c.hook_calls << ", \"issue_fetch_ns\": " << c.issue_fetch_ns
        << ", \"issue_fetch_calls\": " << c.issue_fetch_calls
        << ", \"issue_fetch_accepted\": " << c.issue_fetch_accepted
        << ", \"queries\": " << c.queries << "}";
  }
  out << "]}\n";
}

Report RunTraced(const Args& args, const WorkloadOptions& options) {
  Report rep;
  SpanLog log;
  std::unique_ptr<Inputs> in = Setup(args.workload, options, &log);

  // paper-grid: tuning runs serially under a span (Setup cleared its memo),
  // then RunStudy, finding the tuning memoized, runs its grid on the pool;
  // that parallel output is the reference the serial cells must reproduce.
  std::vector<Cell> cells;
  std::vector<RunResult> study_results;
  double tune_runs = 0;
  if (args.workload == "paper-grid") {
    std::vector<std::vector<pfc::PolicyOptions>> tuned;
    {
      ScopedSpan span(&log, "harness.tune");
      for (size_t s = 0; s < in->studies.size(); ++s) {
        const std::vector<pfc::TuneRequest> requests = PaperGridTuneRequests(in->studies[s]);
        for (const pfc::TuneRequest& q : requests) {
          tune_runs += static_cast<double>(q.fetch_times.size() * q.batches.size());
        }
        tuned.push_back(pfc::TuneReverseAggressiveMany(in->traces[s], requests, 1));
      }
    }
    for (size_t s = 0; s < in->studies.size(); ++s) {
      for (pfc::PolicySeries& series : pfc::RunStudy(in->traces[s], in->studies[s])) {
        study_results.insert(study_results.end(), series.results.begin(),
                             series.results.end());
      }
    }
    cells = PaperGridCells(*in, tuned);
  } else {
    cells = in->cells;
  }

  // The untraced times are taken warm: on paper-grid, tuning and RunStudy
  // have touched everything; the serial workloads (cheap) run once first.
  std::vector<CellRun> untraced;
  for (int round = args.workload == "paper-grid" ? 1 : 0; round < 2; ++round) {
    untraced.clear();
    for (const Cell& cell : cells) {
      untraced.push_back(RunCell(cell, nullptr, nullptr));
    }
  }
  std::vector<CellCounters> counters(cells.size());
  std::vector<CellRun> traced;
  {
    ScopedSpan span(&log, "harness.cells");
    for (size_t i = 0; i < cells.size(); ++i) {
      traced.push_back(RunCell(cells[i], &counters[i], &log));
    }
  }

  rep.attempted = static_cast<int64_t>(cells.size());
  CheckCells(*in, traced, rep);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (Row(traced[i].result) != Row(untraced[i].result)) {
      rep.Fail(1, "traced cell " + std::to_string(i) + " differs from untraced");
    } else if (!study_results.empty() &&
               (i >= study_results.size() || Row(traced[i].result) != Row(study_results[i]))) {
      rep.Fail(1, "serial cell " + std::to_string(i) + " differs from RunStudy");
    }
    const CellCounters& c = counters[i];
    if (c.init_ns > c.hook_ns || c.issue_fetch_ns > c.hook_ns || c.hook_ns > traced[i].ns ||
        c.init_ns < 0 || c.issue_fetch_ns < 0) {
      rep.Fail(1, "cell " + std::to_string(i) + ": hook spans do not nest in the run");
    }
  }
  if (!study_results.empty() && study_results.size() != cells.size()) {
    rep.Fail(0, "RunStudy returned a different number of cells");
  }
  if (std::string why = log.CheckBalanced(); !why.empty()) {
    rep.Fail(rep.attempted - rep.failed, "span tree unbalanced: " + why);
  }
  std::vector<RunResult> results;
  for (const CellRun& run : traced) {
    results.push_back(run.result);
  }
  rep.digests.push_back(Digest(pfc::ResultsCsvString(results)));

  // Per-policy layers.
  double run_untraced = 0;
  double run_traced = 0;
  double core_self = 0;
  double issue_fetch = 0;
  double calls = 0;
  double accepted = 0;
  double straggler = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    run_untraced += Seconds(untraced[i].ns);
    run_traced += Seconds(traced[i].ns);
    core_self += Seconds(traced[i].ns - counters[i].hook_ns);
    issue_fetch += Seconds(counters[i].issue_fetch_ns);
    calls += static_cast<double>(counters[i].issue_fetch_calls);
    accepted += static_cast<double>(counters[i].issue_fetch_accepted);
    straggler = std::max(straggler, Seconds(untraced[i].ns));
  }
  for (PolicyKind kind : kPolicyKinds) {
    double self = 0;
    double init = 0;
    double queries = 0;
    double refs = 0;
    std::vector<double> rates;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].kind != kind) {
        continue;
      }
      self += Seconds(counters[i].hook_ns - counters[i].issue_fetch_ns);
      init += Seconds(counters[i].init_ns);
      queries += static_cast<double>(counters[i].queries);
      refs += static_cast<double>(cells[i].context->trace().size());
      if (untraced[i].ns > 0) {
        rates.push_back(static_cast<double>(cells[i].context->trace().size()) / Seconds(untraced[i].ns));
      }
    }
    const std::string p = "policies." + pfc::ToString(kind);
    rep.Add(p + ".self_s", self, "s");
    rep.Add(p + ".init_s", init, "s");
    rep.Add(p + ".queries_per_ref", refs > 0 ? queries / refs : 0, "count");
    rep.Add(p + ".refs_per_s", Geomean(rates), "1/s");
  }
  rep.Add("harness.tune_s", log.Total("harness.tune"), "s");
  rep.Add("harness.tune_runs", tune_runs, "count");
  rep.Add("harness.straggler_s", straggler, "s");
  rep.Add("core.run_s", run_untraced, "s");
  rep.Add("core.self_s", core_self, "s");
  rep.Add("core.issue_fetch_s", issue_fetch, "s");
  rep.Add("core.issue_fetch_accept_ratio", calls > 0 ? accepted / calls : 0, "ratio");
  rep.Add("trace.gen_s", log.Total("trace.gen"), "s");
  rep.Add("trace.load_s", log.Total("trace.load"), "s");
  rep.Add("core.context_build_s", log.Total("core.context_build"), "s");
  rep.Add("predict.context_build_s", log.Total("predict.context_build"), "s");

  // Simulated disk and stall counters: identical under any speed-only change.
  double requests = 0;
  double util = 0;
  double response = 0;
  double stall_ns = 0;
  double elapsed_ns = 0;
  double useful = 0;
  double issued = 0;
  for (const RunResult& r : results) {
    requests += static_cast<double>(r.fetches + r.flushes);
    util += r.avg_disk_util;
    response += r.avg_response_ms;
    stall_ns += static_cast<double>(r.stall_time.ns());
    elapsed_ns += static_cast<double>(r.elapsed_time.ns());
    useful += static_cast<double>(r.prefetch_useful);
    issued += static_cast<double>(r.prefetch_issued);
  }
  const double n = results.empty() ? 1 : static_cast<double>(results.size());
  rep.Add("disk.requests", requests, "count");
  rep.Add("disk.util", util / n, "ratio");
  rep.Add("disk.response_ms", response / n, "ms");
  rep.Add("core.stall_share", elapsed_ns > 0 ? stall_ns / elapsed_ns : 0, "ratio");
  rep.Add("policies.prefetch_useful_ratio", issued > 0 ? useful / issued : 0, "ratio");
  rep.Add("bench.tracing_overhead", run_untraced > 0 ? run_traced / run_untraced : 0, "ratio");

  if (!args.spans_out.empty()) {
    WriteSpans(args.spans_out, args, log, cells, counters, traced);
  }
  return rep;
}

// --- --self-check: the decorators are behaviour-neutral -------------------

int SelfCheck() {
  int failures = 0;
  int checked = 0;
  for (const char* name : {"cscope2", "synth", "postgres-join"}) {
    const pfc::Trace trace = pfc::MakeTrace(name).Prefix(3000);
    const auto context = pfc::SharedTraceContext(trace, 1.0, 1);
    for (bool faulty : {false, true}) {
      for (bool ff : {true, false}) {
        for (PolicyKind kind : kPolicyKinds) {
          Cell cell;
          cell.context = context;
          cell.config = pfc::BaselineConfig(name, 2);
          cell.config.fast_forward = ff;
          if (faulty) {
            cell.config.faults.media_error_rate = 0.02;
            cell.config.faults.tail_rate = 0.05;
          }
          cell.kind = kind;
          CellCounters counters;
          SpanLog log;
          const CellRun bare = RunCell(cell, nullptr, nullptr);
          const CellRun timed = RunCell(cell, &counters, &log);
          ++checked;
          const std::string label = std::string(name) + "/" + pfc::ToString(kind) +
                                    (faulty ? "/faults" : "") + (ff ? "/ff-on" : "/ff-off");
          if (!bare.error.empty() || !timed.error.empty()) {
            std::printf("FAIL %s: %s%s\n", label.c_str(), bare.error.c_str(),
                        timed.error.c_str());
            ++failures;
          } else if (Row(bare.result) != Row(timed.result)) {
            std::printf("FAIL %s: TimedPolicy changed the result\n", label.c_str());
            ++failures;
          } else if (std::string why = log.CheckBalanced(); !why.empty()) {
            std::printf("FAIL %s: %s\n", label.c_str(), why.c_str());
            ++failures;
          } else if (counters.hook_calls == 0 || counters.hook_ns > timed.ns) {
            std::printf("FAIL %s: hook time not inside the run\n", label.c_str());
            ++failures;
          }
        }
      }
    }
  }
  std::printf("self-check: %d of %d decorated runs identical to undecorated\n",
              checked - failures, checked);
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args->self_check = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--prefix") {
      args->prefix = std::strtoll(value, nullptr, 10);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!args->self_check && !IsWorkload(args->workload)) {
    std::fprintf(stderr, "perfbench: --workload must be one of paper-grid, policy-cells, "
                         "hit-runs, mixed-use\n");
    return false;
  }
  return true;
}

// Numbers from a debug or sanitizer build, or from the exhaustive tuning
// grid, are not comparable with anything; refuse to produce them.
bool BuildIsBenchmarkable() {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build without NDEBUG\n");
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr, "perfbench: refusing to measure a sanitizer build\n");
  return false;
#endif
  if (pfc::FullSweepsRequested()) {
    std::fprintf(stderr, "perfbench: unset PFC_FULL; it widens the tuning grid 6x\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args) || !BuildIsBenchmarkable()) {
    return 2;
  }
  if (args.self_check) {
    return SelfCheck();
  }
  WorkloadOptions options;
  options.seed = args.seed;
  options.prefix = args.prefix;
  options.work_dir = args.work_dir;
  Report rep;
  try {
    rep = args.trace ? RunTraced(args, options) : RunTimed(args, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::string metrics;
  for (const Metric& m : rep.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
               JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::string digests;
  for (const std::string& d : rep.digests) {
    digests += (digests.empty() ? "" : ", ") + JsonString(d);
  }
  std::string errors;
  for (const std::string& e : rep.errors) {
    errors += (errors.empty() ? "" : ", ") + JsonString(e);
  }
  std::printf(
      "{\"workload\": %s, \"trace\": %d, \"provenance\": %s, \"attempted\": %lld, "
      "\"failed\": %lld, \"digests\": [%s], \"errors\": [%s], \"metrics\": {%s}}\n",
      JsonString(args.workload).c_str(), args.trace ? 1 : 0, ProvenanceJson(args).c_str(),
      static_cast<long long>(rep.attempted), static_cast<long long>(rep.failed), digests.c_str(),
      errors.c_str(), metrics.c_str());
  return 0;
}
