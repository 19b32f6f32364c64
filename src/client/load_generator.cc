#include "client/load_generator.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace reflex::client {

namespace {

// Knuth's multiplicative-hash constant. It is prime, so multiplying
// by it permutes the ranks modulo any smaller page count.
constexpr uint64_t kZipfScramble = 2654435761ULL;

}  // namespace

LoadGenerator::LoadGenerator(sim::Simulator& sim, IoSession& session,
                             LoadGenSpec spec)
    : sim_(sim),
      session_(session),
      spec_(std::move(spec)),
      rng_(spec_.seed, "load_generator"),
      done_promise_(std::make_unique<sim::VoidPromise>(sim)) {
  sectors_ = std::max<uint32_t>(
      1, spec_.request_bytes / session_.sector_bytes());
  uint64_t span = spec_.lba_span_sectors;
  if (span == 0) span = session_.capacity_sectors() - spec_.lba_offset;
  const uint32_t spp = session_.sectors_per_page();
  REFLEX_CHECK(span >= sectors_);
  num_pages_ = (span - sectors_) / spp + 1;
  if (spec_.zipf_theta > 0.0) {
    REFLEX_CHECK(num_pages_ < kZipfScramble);
    zipf_salt_ =
        sim::Rng(spec_.seed, "load_generator_zipf").NextBounded(num_pages_);
  }
  REFLEX_CHECK(!(spec_.offered_iops > 0.0 && spec_.rate_at != nullptr));
  REFLEX_CHECK(open_loop() || spec_.queue_depth > 0);
  REFLEX_CHECK(spec_.stop_after_ops == 0 ||
               (!open_loop() && spec_.bin_width == 0));
}

double LoadGenerator::AchievedIops() const {
  if (end_ <= warm_end_) return 0.0;
  return static_cast<double>(ops_in_window_) /
         sim::ToSeconds(end_ - warm_end_);
}

void LoadGenerator::Run(sim::TimeNs warm_end, sim::TimeNs end) {
  warm_end_ = warm_end;
  end_ = end;
  if (spec_.bin_width > 0 && end > warm_end) {
    bins_.resize(static_cast<size_t>(
        (end - warm_end + spec_.bin_width - 1) / spec_.bin_width));
  }
  if (open_loop()) {
    ScheduleNextArrival();
    return;
  }
  ops_left_ = spec_.stop_after_ops;
  const bool probe = spec_.stop_after_ops > 0;
  for (int i = 0; i < spec_.queue_depth; ++i) {
    ++outstanding_;
    Worker(probe ? -1 : i % session_.num_lanes());
  }
}

LoadGenerator::Op LoadGenerator::NextOp() {
  Op op;
  op.arrival = sim_.Now();
  op.is_read = rng_.NextBernoulli(spec_.read_fraction);
  uint64_t page = 0;
  if (spec_.zipf_theta > 0.0) {
    const uint64_t rank = rng_.NextZipf(num_pages_, spec_.zipf_theta);
    page = (rank * kZipfScramble % num_pages_ + zipf_salt_) % num_pages_;
  } else {
    page = rng_.NextBounded(num_pages_);
  }
  op.lba = spec_.lba_offset + page * session_.sectors_per_page();
  return op;
}

sim::Future<IoResult> LoadGenerator::Submit(const Op& op, int lane) {
  if (op.is_read) return session_.Read(op.lba, sectors_, nullptr, lane);
  return session_.Write(op.lba, sectors_, nullptr, lane);
}

void LoadGenerator::Record(const IoResult& result, const Op& op) {
  const bool in_population = result.complete_time >= warm_end_ &&
                             result.complete_time < end_ &&
                             op.arrival >= warm_end_;
  Bin* bin = in_population && !bins_.empty()
                 ? &bins_[static_cast<size_t>(
                       (result.complete_time - warm_end_) / spec_.bin_width)]
                 : nullptr;
  if (!result.ok()) {
    ++(op.is_read ? read_errors_ : write_errors_);
    if (bin != nullptr) ++bin->errors;
    return;
  }
  const sim::TimeNs latency = result.complete_time - op.arrival;
  sim::Histogram& hist = op.is_read ? read_latency_ : write_latency_;
  if (spec_.stop_after_ops > 0) {
    ++probe_recorded_;
    if (probe_recorded_ <= spec_.warmup_ops) return;
    ++ops_in_window_;
    hist.Record(latency);
    return;
  }
  if (result.complete_time >= warm_end_ && result.complete_time < end_) {
    ++ops_in_window_;
  }
  if (!in_population) return;
  hist.Record(latency);
  if (bin != nullptr) {
    ++bin->completions;
    if (op.is_read) bin->reads.Record(latency);
  }
}

void LoadGenerator::MaybeFinish() {
  if (!finished_ && generation_done_ && outstanding_ == 0) {
    finished_ = true;
    done_promise_->Set(sim::Unit{});
  }
}

bool LoadGenerator::KeepIssuing() {
  if (spec_.stop_after_ops == 0) return sim_.Now() < end_;
  if (ops_left_ == 0) return false;
  --ops_left_;
  return true;
}

sim::Task LoadGenerator::Worker(int lane) {
  while (KeepIssuing()) {
    const Op op = NextOp();
    const IoResult result = co_await Submit(op, lane);
    Record(result, op);
  }
  --outstanding_;
  generation_done_ = true;
  MaybeFinish();
}

void LoadGenerator::ScheduleNextArrival() {
  const double mean_gap =
      1e9 / (spec_.rate_at ? spec_.rate_at(sim_.Now()) : spec_.offered_iops);
  const auto gap = static_cast<sim::TimeNs>(
      spec_.poisson_arrivals ? rng_.NextExponential(mean_gap) : mean_gap);
  sim_.ScheduleAfter(gap, [this] {
    if (sim_.Now() >= end_) {
      generation_done_ = true;
      MaybeFinish();
      return;
    }
    backlog_.push_back(NextOp());
    Pump();
    ScheduleNextArrival();
  });
}

void LoadGenerator::Pump() {
  while (!backlog_.empty() &&
         (spec_.queue_depth == 0 || outstanding_ < spec_.queue_depth)) {
    const Op op = backlog_.front();
    backlog_.pop_front();
    ++outstanding_;
    Issue(op, next_lane_);
    next_lane_ = (next_lane_ + 1) % session_.num_lanes();
  }
}

sim::Task LoadGenerator::Issue(Op op, int lane) {
  const IoResult result = co_await Submit(op, lane);
  Record(result, op);
  --outstanding_;
  Pump();
  MaybeFinish();
}

}  // namespace reflex::client
