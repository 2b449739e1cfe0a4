#include "timed.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using pfc::BlockId;
using pfc::DiskId;
using pfc::Engine;
using pfc::TracePos;

// --- CountingCacheView -------------------------------------------------------

int CountingCacheView::capacity() const {
  ++c_->queries;
  return inner_->capacity();
}
int CountingCacheView::used() const {
  ++c_->queries;
  return inner_->used();
}
int CountingCacheView::present_count() const {
  ++c_->queries;
  return inner_->present_count();
}
CountingCacheView::State CountingCacheView::GetState(BlockId block) const {
  ++c_->queries;
  return inner_->GetState(block);
}
bool CountingCacheView::Dirty(BlockId block) const {
  ++c_->queries;
  return inner_->Dirty(block);
}
int CountingCacheView::dirty_count() const {
  ++c_->queries;
  return inner_->dirty_count();
}
std::optional<BlockId> CountingCacheView::FurthestBlock() const {
  ++c_->queries;
  return inner_->FurthestBlock();
}
TracePos CountingCacheView::FurthestNextUse() const {
  ++c_->queries;
  return inner_->FurthestNextUse();
}

// --- TimedEngine -------------------------------------------------------------

pfc::TimeNs TimedEngine::now() const {
  ++c_->queries;
  return inner_->now();
}
TracePos TimedEngine::cursor() const {
  ++c_->queries;
  return inner_->cursor();
}
const pfc::Trace& TimedEngine::trace() const {
  ++c_->queries;
  return inner_->trace();
}
const pfc::RefOracle& TimedEngine::index() const {
  ++c_->queries;
  return inner_->index();
}
const pfc::CacheView& TimedEngine::cache() const {
  ++c_->queries;
  cache_.set_inner(&inner_->cache());
  return cache_;
}
const pfc::SimConfig& TimedEngine::config() const {
  ++c_->queries;
  return inner_->config();
}
pfc::BlockLocation TimedEngine::Location(BlockId block) const {
  ++c_->queries;
  return inner_->Location(block);
}
bool TimedEngine::DiskIdle(DiskId d) const {
  ++c_->queries;
  return inner_->DiskIdle(d);
}
bool TimedEngine::DiskFailed(DiskId d) const {
  ++c_->queries;
  return inner_->DiskFailed(d);
}
bool TimedEngine::DiskDown(DiskId d) const {
  ++c_->queries;
  return inner_->DiskDown(d);
}
bool TimedEngine::Hinted(TracePos pos) const {
  ++c_->queries;
  return inner_->Hinted(pos);
}
bool TimedEngine::FullyHinted() const {
  ++c_->queries;
  return inner_->FullyHinted();
}
BlockId TimedEngine::HintedBlock(TracePos pos) const {
  ++c_->queries;
  return inner_->HintedBlock(pos);
}
pfc::DurNs TimedEngine::ScaledCompute(TracePos pos) const {
  ++c_->queries;
  return inner_->ScaledCompute(pos);
}
bool TimedEngine::IssueFetch(BlockId block, BlockId evict) {
  ++c_->queries;
  ++c_->issue_fetch_calls;
  const int64_t t0 = NowNs();
  const bool accepted = inner_->IssueFetch(block, evict);
  c_->issue_fetch_ns += NowNs() - t0;
  c_->issue_fetch_accepted += accepted ? 1 : 0;
  return accepted;
}
void TimedEngine::EmitMark(const char* label, int64_t value) {
  ++c_->queries;
  inner_->EmitMark(label, value);
}

// --- TimedPolicy -------------------------------------------------------------

// Times one hook call into CellCounters::hook_ns (outermost hook only) and,
// for Init, into init_ns as well.
class HookTimer {
 public:
  HookTimer(TimedPolicy& p, bool init = false)
      : p_(p), init_(init), t0_(p.depth_++ == 0 ? NowNs() : -1) {}
  ~HookTimer() {
    --p_.depth_;
    if (t0_ >= 0) {
      const int64_t dt = NowNs() - t0_;
      p_.c_->hook_ns += dt;
      ++p_.c_->hook_calls;
      if (init_) {
        p_.c_->init_ns += dt;
      }
    }
  }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  TimedPolicy& p_;
  bool init_;
  int64_t t0_;
};

TimedEngine& TimedPolicy::Wrap(const Engine& sim) {
  // Every hook of one run receives the same engine; see TimedEngine::set_inner
  // for why dropping const here is safe.
  engine_.set_inner(const_cast<Engine*>(&sim));
  return engine_;
}

void TimedPolicy::Init(Engine& sim) {
  HookTimer t(*this, /*init=*/true);
  inner_->Init(Wrap(sim));
}
void TimedPolicy::OnReference(Engine& sim, TracePos pos) {
  HookTimer t(*this);
  inner_->OnReference(Wrap(sim), pos);
}
void TimedPolicy::OnDiskIdle(Engine& sim, DiskId disk) {
  HookTimer t(*this);
  inner_->OnDiskIdle(Wrap(sim), disk);
}
void TimedPolicy::OnFetchComplete(Engine& sim, DiskId disk, BlockId block, pfc::DurNs service) {
  HookTimer t(*this);
  inner_->OnFetchComplete(Wrap(sim), disk, block, service);
}
void TimedPolicy::OnDemandFetch(Engine& sim, BlockId block) {
  HookTimer t(*this);
  inner_->OnDemandFetch(Wrap(sim), block);
}
void TimedPolicy::OnFetchFailed(Engine& sim, DiskId disk, BlockId block) {
  HookTimer t(*this);
  inner_->OnFetchFailed(Wrap(sim), disk, block);
}
void TimedPolicy::OnDiskDown(Engine& sim, DiskId disk) {
  HookTimer t(*this);
  inner_->OnDiskDown(Wrap(sim), disk);
}
void TimedPolicy::OnDiskUp(Engine& sim, DiskId disk) {
  HookTimer t(*this);
  inner_->OnDiskUp(Wrap(sim), disk);
}
BlockId TimedPolicy::ChooseDemandEviction(Engine& sim, BlockId block) {
  HookTimer t(*this);
  return inner_->ChooseDemandEviction(Wrap(sim), block);
}
TracePos TimedPolicy::QuiescentThrough(const Engine& sim, TracePos pos, TracePos run_end) {
  HookTimer t(*this);
  const TimedEngine& engine = Wrap(sim);
  return inner_->QuiescentThrough(engine, pos, run_end);
}
void TimedPolicy::OnFastForward(Engine& sim, TracePos from, TracePos to) {
  HookTimer t(*this);
  inner_->OnFastForward(Wrap(sim), from, to);
}

// --- SpanLog -----------------------------------------------------------------

int SpanLog::Begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans are scoped, so `id` is the innermost open span.
  open_.pop_back();
}

double SpanLog::Total(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.seconds();
    }
  }
  return total;
}

std::string SpanLog::CheckBalanced() const {
  if (!open_.empty()) {
    return "span '" + spans_[static_cast<size_t>(open_.back())].name + "' never ended";
  }
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) {
      return "span '" + s.name + "' ends before it starts";
    }
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        return "span '" + s.name + "' lies outside its parent '" + p.name + "'";
      }
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (child_ns[i] > spans_[i].end_ns - spans_[i].start_ns) {
      return "children of span '" + spans_[i].name + "' cover more than the span";
    }
  }
  return "";
}

}  // namespace perfbench
