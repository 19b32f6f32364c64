#include "core/qos_scheduler.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.h"

namespace reflex::core {

QosScheduler::QosScheduler(SchedulerShared& shared,
                           const RequestCostModel& cost_model, Config config)
    : shared_(shared), cost_model_(cost_model), config_(config) {
  policy_ = MakeQosPolicy(
      QosPolicyContext{&shared_, &config_, &counters_, &on_neg_limit_});
}

void QosScheduler::AddTenant(Tenant* tenant) {
  REFLEX_CHECK(tenant != nullptr);
  REFLEX_CHECK(tenant->scheduler_ == nullptr);
  tenant->scheduler_ = this;
  queued_requests_ += static_cast<int64_t>(tenant->queue_.size());
  if (tenant->IsLatencyCritical()) {
    lc_tenants_.push_back(tenant);
  } else {
    const size_t slot = be_tenants_.size();
    be_tenants_.push_back(tenant);
    tenant->be_slot_ = slot;
    tenant->shared_rate_ = &shared_.be_token_rate;
    if (slot % 64 == 0) be_backlog_.push_back(0);
    if (!tenant->queue_.empty()) SetBacklogged(slot);
  }
  policy_->OnAddTenant(*tenant);
}

void QosScheduler::RemoveTenant(Tenant* tenant) {
  REFLEX_CHECK(tenant != nullptr);
  REFLEX_CHECK(tenant->scheduler_ == this);
  // A retiring tenant takes its balance with it; record the amount so
  // the token-conservation ledger still closes. Its queue (if any)
  // leaves with it too: to a new owner, or to DropTenant's TakeQueue.
  shared_.tokens_retired_total += tenant->tokens_;
  tenant->tokens_ = 0.0;
  queued_requests_ -= static_cast<int64_t>(tenant->queue_.size());
  if (tenant->IsLatencyCritical()) {
    lc_tenants_.erase(
        std::find(lc_tenants_.begin(), lc_tenants_.end(), tenant));
  } else {
    const size_t idx = tenant->be_slot_;
    be_tenants_.erase(be_tenants_.begin() + static_cast<ptrdiff_t>(idx));
    // Erasing below the cursor shifts every later tenant down one
    // slot; keep the cursor pointing at the same next-to-serve tenant
    // so the round-robin rotation is unaffected by removals.
    if (idx < be_cursor_) --be_cursor_;
    if (be_cursor_ >= be_tenants_.size()) be_cursor_ = 0;
    RebuildBeSlots();
    // Unbound, the tenant keeps reporting the last share it was given.
    tenant->token_rate_ = shared_.be_token_rate;
    tenant->shared_rate_ = nullptr;
  }
  tenant->scheduler_ = nullptr;
  policy_->OnRemoveTenant(*tenant);
}

void QosScheduler::RebuildBeSlots() {
  be_backlog_.assign((be_tenants_.size() + 63) / 64, 0);
  for (size_t slot = 0; slot < be_tenants_.size(); ++slot) {
    be_tenants_[slot]->be_slot_ = slot;
    if (!be_tenants_[slot]->queue_.empty()) SetBacklogged(slot);
  }
}

void QosScheduler::ClearBacklogged(const Tenant& t) {
  // The walk credits an idle tenant without visiting it, which is
  // exact only while the tenant holds nothing: FinishBe donated its
  // balance and SubmitFront zeroed its queued cost.
  REFLEX_CHECK(t.tokens_ == 0.0 && t.queued_cost_ == 0.0);
  be_backlog_[t.be_slot_ / 64] &= ~(uint64_t{1} << (t.be_slot_ % 64));
}

size_t QosScheduler::NextBacklogged(size_t from, size_t end) const {
  while (from < end) {
    const uint64_t word = be_backlog_[from / 64] >> (from % 64);
    if (word != 0) {
      return std::min(end, from + static_cast<size_t>(std::countr_zero(word)));
    }
    from = (from / 64 + 1) * 64;
  }
  return end;
}

void QosScheduler::Enqueue(sim::TimeNs now, Tenant* tenant, PendingIo io) {
  REFLEX_CHECK(tenant != nullptr);
  if (io.msg.type == ReqType::kBarrier) {
    io.cost = 0.0;  // barriers consume ordering, not device bandwidth
  } else {
    const bool is_read = io.msg.type == ReqType::kRead;
    const uint32_t bytes = io.msg.sectors * kSectorBytes;
    io.cost = cost_model_.TokensFor(
        is_read ? flash::FlashOp::kRead : flash::FlashOp::kWrite, bytes,
        shared_.read_ratio.IsReadOnly(now));
  }
  io.enqueue_time = now;
  io.MarkStage(obs::Stage::kEnqueued, now);
  tenant->queue_.push_back(std::move(io));
  tenant->queued_cost_ += tenant->queue_.back().cost;
  // An unbound tenant's queue is counted by whichever scheduler adopts
  // it next (AddTenant).
  if (tenant->scheduler_ == nullptr) return;
  REFLEX_CHECK(tenant->scheduler_ == this);
  ++queued_requests_;
  if (!tenant->IsLatencyCritical() && tenant->queue_.size() == 1) {
    SetBacklogged(tenant->be_slot_);
  }
}

bool QosScheduler::FrontBlockedByBarrier(const Tenant& t) {
  return !t.queue_.empty() &&
         t.queue_.front().msg.type == ReqType::kBarrier && t.inflight > 0;
}

void QosScheduler::SubmitFront(sim::TimeNs now, Tenant& t,
                               const SubmitFn& submit) {
  PendingIo io = t.queue_.pop_front();
  --queued_requests_;
  t.queued_cost_ -= io.cost;
  // An empty queue costs exactly nothing: no float residue is left
  // behind to leak into the next deficit.
  if (t.queued_cost_ < 0.0 || t.queue_.empty()) t.queued_cost_ = 0.0;
  if (!config_.enforce) {
    // Pass-through mode generates no tokens in RunRound, but spend
    // accounting below still runs (the spent counters feed exported
    // utilization metrics). Grant the exact cost here so the balance
    // nets to zero and the conservation ledger (generated == spent +
    // retired + ...) closes instead of the balance drifting
    // unboundedly negative and being "retired" at unregistration.
    // Ledger-only: the tokens_generated *metric* stays untouched so
    // enforcement-off exports are unchanged.
    t.tokens_ += io.cost;
    shared_.tokens_generated_total += io.cost;
  }
  t.tokens_ -= io.cost;
  t.tokens_spent += io.cost;
  shared_.tokens_spent_total += io.cost;
  io.MarkStage(obs::Stage::kGranted, now);
  counters_.tokens_spent += io.cost;
  ++counters_.requests_submitted;
  if (io.msg.type != ReqType::kBarrier) {
    const bool is_read = io.msg.type == ReqType::kRead;
    shared_.read_ratio.Observe(now, is_read);
    if (is_read) {
      ++t.submitted_reads;
    } else {
      ++t.submitted_writes;
    }
  }
  policy_->OnSubmit(t, io);
  submit(t, std::move(io));
}

int QosScheduler::RunRound(sim::TimeNs now, const SubmitFn& submit) {
  if (!has_run_) {
    prev_round_time_ = now;
    has_run_ = true;
  }
  const sim::TimeNs gap = now - prev_round_time_;
  const double dt = sim::ToSeconds(gap);
  prev_round_time_ = now;
  int submitted = 0;
  counters_.round_gap_ns.Record(gap);

  if (!config_.enforce) {
    // Pass-through mode: no rate limiting, submit everything
    // (barriers still gate: they are correctness, not QoS).
    for (Tenant* tp : lc_tenants_) {
      while (!tp->queue_.empty() && !FrontBlockedByBarrier(*tp)) {
        SubmitFront(now, *tp, submit);
        ++submitted;
      }
    }
    const size_t n = be_tenants_.size();
    for (size_t slot = NextBacklogged(0, n); slot < n;
         slot = NextBacklogged(slot + 1, n)) {
      Tenant& t = *be_tenants_[slot];
      while (!t.queue_.empty() && !FrontBlockedByBarrier(t)) {
        SubmitFront(now, t, submit);
        ++submitted;
      }
      if (t.queue_.empty()) ClearBacklogged(t);
    }
    MarkRoundComplete();
    return submitted;
  }

  policy_->BeginRound(now, dt, lc_tenants_, be_tenants_);

  // --- Latency-critical tenants (Alg. 1 lines 4-12) ---
  for (Tenant* tp : lc_tenants_) {
    Tenant& t = *tp;
    policy_->AccrueLc(t, now, dt);
    while (!t.queue_.empty() && policy_->AdmitLc(t, t.queue_.front()) &&
           !FrontBlockedByBarrier(t)) {
      SubmitFront(now, t, submit);
      ++submitted;
    }
    policy_->FinishLc(t);
  }

  // --- Best-effort tenants, round-robin (Alg. 1 lines 13-21) ---
  submitted += RunBeRound(now, dt, submit);

  MarkRoundComplete();
  return submitted;
}

int QosScheduler::RunBeRound(sim::TimeNs now, double dt,
                             const SubmitFn& submit) {
  const size_t n = be_tenants_.size();
  if (n == 0) return 0;
  int submitted = 0;
  // Visits the backlogged tenants in rotation order from the cursor:
  // slots [cursor, n), then [0, cursor). Idle tenants between two
  // backlogged ones are credited in one step right before the next
  // backlogged tenant is served, where a visit-every-tenant walk would
  // have made their donations, so every claim sees the same bucket.
  int64_t idle = 0;
  const std::pair<size_t, size_t> spans[] = {{be_cursor_, n},
                                             {0, be_cursor_}};
  for (const auto& [begin, end] : spans) {
    size_t pos = begin;
    for (size_t slot = NextBacklogged(pos, end); slot < end;
         slot = NextBacklogged(pos, end)) {
      idle += static_cast<int64_t>(slot - pos);
      if (idle > 0) policy_->CreditIdleBe(idle, dt);
      idle = 0;
      Tenant& t = *be_tenants_[slot];
      policy_->AccrueBe(t, now, dt);
      while (!t.queue_.empty() && policy_->AdmitBe(t, t.queue_.front()) &&
             !FrontBlockedByBarrier(t)) {
        SubmitFront(now, t, submit);
        ++submitted;
      }
      policy_->FinishBe(t);
      if (t.queue_.empty()) ClearBacklogged(t);
      pos = slot + 1;
    }
    idle += static_cast<int64_t>(end - pos);
  }
  if (idle > 0) policy_->CreditIdleBe(idle, dt);
  be_cursor_ = (be_cursor_ + 1) % n;
  return submitted;
}

void QosScheduler::MarkRoundComplete() {
  // Alg. 1 lines 22-23: once every thread has completed at least one
  // round, the last thread resets the global bucket. Lock-free: each
  // thread marks once per epoch; the thread that completes the set
  // performs the reset and advances the epoch.
  const uint64_t epoch = shared_.reset_epoch.load(std::memory_order_acquire);
  if (local_epoch_ != epoch) {
    local_epoch_ = epoch;
    marked_this_epoch_ = false;
  }
  if (marked_this_epoch_) return;
  marked_this_epoch_ = true;
  const int marked =
      shared_.threads_marked.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (marked >= shared_.num_threads) {
    shared_.tokens_discarded_total += shared_.global_bucket.Reset();
    shared_.threads_marked.store(0, std::memory_order_release);
    shared_.reset_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
}

}  // namespace reflex::core
