// Tracing for the benchmark's traced run, built only from pfc's public
// virtual interfaces (Policy, Engine, CacheView): nothing inside the
// library is instrumented.
//
//   * TimedPolicy decorates a Policy. It forwards every virtual, times each
//     hook, and hands the inner policy a TimedEngine instead of the real
//     engine.
//   * TimedEngine forwards every Engine method to the real engine, counts
//     each call as a policy query, and times IssueFetch.
//   * CountingCacheView forwards every CacheView query and counts it.
//
// Fine-grained work (hooks, IssueFetch, queries) is aggregated into one
// CellCounters per simulation, because a span per hook call would be
// millions of records; coarse work (trace generation, context builds,
// tuning, each Simulator run) is kept as individual spans in a SpanLog.
// Both stay in memory and are written out when the run ends.

#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_view.h"
#include "core/engine.h"
#include "core/policy.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What the decorators measured over one simulation.
struct CellCounters {
  int64_t hook_ns = 0;          // all policy hooks; IssueFetch time included
  int64_t init_ns = 0;          // Policy::Init alone (part of hook_ns)
  int64_t hook_calls = 0;
  int64_t issue_fetch_ns = 0;   // Engine::IssueFetch (part of hook_ns)
  int64_t issue_fetch_calls = 0;
  int64_t issue_fetch_accepted = 0;
  int64_t queries = 0;          // Engine and CacheView calls made by the policy
};

class CountingCacheView final : public pfc::CacheView {
 public:
  explicit CountingCacheView(CellCounters* counters) : c_(counters) {}
  void set_inner(const pfc::CacheView* inner) { inner_ = inner; }

  int capacity() const override;
  int used() const override;
  int present_count() const override;
  State GetState(pfc::BlockId block) const override;
  bool Dirty(pfc::BlockId block) const override;
  int dirty_count() const override;
  std::optional<pfc::BlockId> FurthestBlock() const override;
  pfc::TracePos FurthestNextUse() const override;

 private:
  CellCounters* c_;
  const pfc::CacheView* inner_ = nullptr;
};

class TimedEngine final : public pfc::Engine {
 public:
  explicit TimedEngine(CellCounters* counters) : c_(counters), cache_(counters) {}
  // The engine the current hook was called with. QuiescentThrough hands
  // the policy only a const TimedEngine, so the non-const pointer is never
  // used to mutate through a const hook.
  void set_inner(pfc::Engine* inner) { inner_ = inner; }

  pfc::TimeNs now() const override;
  pfc::TracePos cursor() const override;
  const pfc::Trace& trace() const override;
  const pfc::RefOracle& index() const override;
  const pfc::CacheView& cache() const override;
  const pfc::SimConfig& config() const override;
  pfc::BlockLocation Location(pfc::BlockId block) const override;
  bool DiskIdle(pfc::DiskId d) const override;
  bool DiskFailed(pfc::DiskId d) const override;
  bool DiskDown(pfc::DiskId d) const override;
  bool Hinted(pfc::TracePos pos) const override;
  bool FullyHinted() const override;
  pfc::BlockId HintedBlock(pfc::TracePos pos) const override;
  pfc::DurNs ScaledCompute(pfc::TracePos pos) const override;
  bool IssueFetch(pfc::BlockId block, pfc::BlockId evict) override;
  void EmitMark(const char* label, int64_t value) override;

 private:
  CellCounters* c_;
  pfc::Engine* inner_ = nullptr;
  mutable CountingCacheView cache_;
};

class TimedPolicy final : public pfc::Policy {
 public:
  TimedPolicy(std::unique_ptr<pfc::Policy> inner, CellCounters* counters)
      : inner_(std::move(inner)), c_(counters), engine_(counters) {}

  std::string name() const override { return inner_->name(); }
  void Init(pfc::Engine& sim) override;
  void OnReference(pfc::Engine& sim, pfc::TracePos pos) override;
  void OnDiskIdle(pfc::Engine& sim, pfc::DiskId disk) override;
  void OnFetchComplete(pfc::Engine& sim, pfc::DiskId disk, pfc::BlockId block,
                       pfc::DurNs service) override;
  void OnDemandFetch(pfc::Engine& sim, pfc::BlockId block) override;
  void OnFetchFailed(pfc::Engine& sim, pfc::DiskId disk, pfc::BlockId block) override;
  void OnDiskDown(pfc::Engine& sim, pfc::DiskId disk) override;
  void OnDiskUp(pfc::Engine& sim, pfc::DiskId disk) override;
  pfc::BlockId ChooseDemandEviction(pfc::Engine& sim, pfc::BlockId block) override;
  bool SupportsFastForward() const override { return inner_->SupportsFastForward(); }
  pfc::TracePos QuiescentThrough(const pfc::Engine& sim, pfc::TracePos pos,
                                 pfc::TracePos run_end) override;
  void OnFastForward(pfc::Engine& sim, pfc::TracePos from, pfc::TracePos to) override;

 private:
  // Points the decorated engine at `sim` and returns it.
  TimedEngine& Wrap(const pfc::Engine& sim);

  std::unique_ptr<pfc::Policy> inner_;
  CellCounters* c_;
  TimedEngine engine_;
  int depth_ = 0;  // hooks nested inside a hook are timed by the outer one
  friend class HookTimer;
};

// One coarse span: [start_ns, end_ns) with the index of its parent span
// (-1 for a root).
struct Span {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  int Begin(std::string name);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Seconds covered by spans named `name`.
  double Total(const std::string& name) const;
  // Empty when every span lies inside its parent and the children of every
  // span cover no more than the span itself; otherwise the first violation.
  std::string CheckBalanced() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_
