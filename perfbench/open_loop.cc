#include "open_loop.h"

#include <algorithm>
#include <string>

namespace perfbench {

namespace {

/** Zipf exponent of stripe popularity (as in fig6d_replication). */
constexpr double kZipfTheta = 0.99;

}  // namespace

OpenLoopTenant::OpenLoopTenant(sim::Simulator& sim,
                               client::IoSession& session, OpenLoopSpec spec,
                               uint64_t seed, ClassTotals* totals)
    : sim_(sim),
      session_(session),
      spec_(spec),
      rng_(seed, "perfbench_open_loop"),
      totals_(totals),
      gap_ns_(1e9 / spec.iops) {
  if (spec_.zipf_stripe_sectors > 0) {
    zipf_stripes_ = spec_.span_sectors / spec_.zipf_stripe_sectors;
  }
}

void OpenLoopTenant::Start(sim::TimeNs window_start, sim::TimeNs end) {
  window_start_ = window_start;
  end_ = end;
  // Paced tenants start at a seeded phase so seeds differ.
  const double first = spec_.poisson ? rng_.NextExponential(gap_ns_)
                                     : rng_.NextDouble() * gap_ns_;
  ScheduleNext(sim_.Now() + static_cast<sim::TimeNs>(first));
}

void OpenLoopTenant::ScheduleNext(sim::TimeNs due) {
  if (due >= end_) return;
  sim_.ScheduleAt(due, [this] {
    Issue();
    const double gap =
        spec_.poisson ? rng_.NextExponential(gap_ns_) : gap_ns_;
    ScheduleNext(sim_.Now() + std::max<sim::TimeNs>(
                                  1, static_cast<sim::TimeNs>(gap)));
  });
}

uint64_t OpenLoopTenant::PickLba() {
  if (zipf_stripes_ == 0) {
    return rng_.NextBounded(spec_.span_sectors / 8) * 8;
  }
  // Zipfian stripe popularity, scrambled by a per-tenant salt so each
  // tenant has its own hot set.
  const uint64_t rank = rng_.NextZipf(zipf_stripes_, kZipfTheta);
  const uint64_t stripe =
      (rank * 2654435761ULL + spec_.zipf_salt) % zipf_stripes_;
  return stripe * spec_.zipf_stripe_sectors +
         rng_.NextBounded(spec_.zipf_stripe_sectors / 8) * 8;
}

sim::Task OpenLoopTenant::Issue() {
  const sim::TimeNs due = sim_.Now();
  const bool in_window = due >= window_start_;
  const bool is_read = rng_.NextBernoulli(spec_.read_fraction);
  int64_t stamp = -1;
  if (spec_.stamps != nullptr && rng_.NextBernoulli(spec_.stamp_fraction)) {
    const size_t i = rng_.NextBounded(spec_.stamps->size());
    if (!spec_.stamps->busy(i)) stamp = static_cast<int64_t>(i);
  }
  const uint64_t lba = stamp >= 0 ? spec_.stamps->lba(stamp) : PickLba();
  std::unique_ptr<uint8_t[]> buf;
  uint64_t version = 0;
  if (stamp >= 0) {
    buf = std::make_unique<uint8_t[]>(StampedBlocks::kBytes);
    if (is_read) {
      spec_.stamps->BeginRead(stamp);
    } else {
      version = spec_.stamps->BeginWrite(stamp, buf.get());
    }
  }
  ++outstanding_;
  ++issued_;
  if (!is_read) ++writes_issued_;
  // if/else, never `co_await (c ? Read() : Write())`: GCC 12 would
  // evaluate both operands and issue a write alongside every read.
  client::IoResult r;
  if (is_read) {
    r = co_await session_.Read(lba, 8, buf.get(), spec_.lane);
  } else {
    r = co_await session_.Write(lba, 8, buf.get(), spec_.lane);
  }
  --outstanding_;
  last_completion_ = std::max(last_completion_, r.complete_time);
  bool data_ok = true;
  if (stamp >= 0) {
    if (is_read) {
      data_ok = spec_.stamps->EndRead(stamp, buf.get(), r.ok());
    } else {
      spec_.stamps->EndWrite(stamp, version, r.ok());
    }
  }
  if (r.ok() && r.complete_time >= window_start_ && r.complete_time < end_) {
    ++totals_->completed_in_window;
  }
  if (!in_window) co_return;
  ++totals_->attempted;
  const sim::TimeNs latency = r.complete_time - due;
  if (!r.ok() || !data_ok) {
    ++totals_->failed;
    co_return;
  }
  if (latency > kSlo) ++totals_->slow;
  (is_read ? totals_->reads : totals_->writes).Add(latency);
}

void WriteInitialStamps(sim::Simulator& sim, client::IoSession& session,
                        StampedBlocks& stamps) {
  // One at a time: a burst would outrun the tenant's token rate.
  uint8_t buf[StampedBlocks::kBytes];
  for (size_t i = 0; i < stamps.size(); ++i) {
    stamps.Fill(i, 0, buf);
    auto write = session.Write(stamps.lba(i), 8, buf);
    while (!write.Ready()) sim.RunUntil(sim.Now() + 10'000);
    World::AbortUnless(write.Get().ok(), "initial stamp write failed");
  }
}

DrainResult RunOpenLoop(
    sim::Simulator& sim,
    std::vector<std::unique_ptr<OpenLoopTenant>>& tenants,
    sim::TimeNs window_start, sim::TimeNs end) {
  for (auto& t : tenants) t->Start(window_start, end);
  sim.RunUntil(end);
  auto outstanding = [&tenants] {
    int64_t n = 0;
    for (const auto& t : tenants) n += t->outstanding();
    return n;
  };
  DrainResult result;
  result.outstanding_at_end = outstanding();
  // Drain in 10 us steps, for at most one simulated second.
  while (outstanding() > 0 && sim.Now() < end + 1'000'000'000) {
    sim.RunUntil(sim.Now() + 10'000);
  }
  World::AbortUnless(outstanding() == 0, "open-loop requests never drained");
  for (const auto& t : tenants) {
    result.last_completion =
        std::max(result.last_completion, t->last_completion());
  }
  result.drain_ns = std::max<sim::TimeNs>(0, result.last_completion - end);
  return result;
}

void ClassTotals::Merge(const ClassTotals& other) {
  reads.Merge(other.reads);
  writes.Merge(other.writes);
  attempted += other.attempted;
  failed += other.failed;
  slow += other.slow;
  completed_in_window += other.completed_in_window;
}

void ReportOpenLoop(Report& report, std::vector<ClassTotals>& lc_tenants,
                    ClassTotals& be, const DrainResult& drain,
                    sim::TimeNs window_start, sim::TimeNs end,
                    double offered_iops) {
  ClassTotals lc;
  std::string slo_note = "LC read p95 per tenant vs the 500 us SLO:";
  for (ClassTotals& t : lc_tenants) {
    const int64_t p95 = t.reads.Quantile(0.95);
    slo_note += " " + std::to_string(static_cast<double>(p95) / 1e3) +
                (p95 <= kSlo ? " us (met)" : " us (MISSED)");
    lc.Merge(t);
  }
  report.Note(slo_note);
  const double window_s = static_cast<double>(end - window_start) / 1e9;
  report.Sim("sim_kiops",
             static_cast<double>(lc.completed_in_window +
                                 be.completed_in_window) /
                 window_s / 1e3,
             "kIOPS");
  report.ReadPercentiles(lc.reads, "LC reads");
  report.Sim("app_sim_s",
             static_cast<double>(drain.last_completion - window_start) / 1e9,
             "s");
  report.Sim("workload.write_p95_us",
             static_cast<double>(lc.writes.Quantile(0.95)) / 1e3, "us");
  report.Sim("workload.slo_miss_frac",
             lc.attempted > 0
                 ? static_cast<double>(lc.slow + lc.failed) / lc.attempted
                 : 0.0,
             "fraction");
  report.Sim("workload.be_kiops",
             static_cast<double>(be.completed_in_window) / window_s / 1e3,
             "kIOPS");
  report.attempted += lc.attempted + be.attempted;
  report.failed += lc.failed + be.failed;
  report.Note("LC writes: " + std::to_string(lc.writes.count()) +
              " samples; LC requests over the 500 us SLO: " +
              std::to_string(lc.slow) + " of " +
              std::to_string(lc.attempted));
  report.Note("backlog: " + std::to_string(drain.outstanding_at_end) +
              " requests outstanding at window end, drained in " +
              std::to_string(static_cast<double>(drain.drain_ns) / 1e3) +
              " us");
  // A healthy open loop holds about rate x latency requests in flight
  // and drains within a few SLOs; a growing backlog exceeds both.
  const double healthy_in_flight = offered_iops * 2e-3;
  if (drain.outstanding_at_end > healthy_in_flight ||
      drain.drain_ns > 10 * kSlo) {
    report.Invalidate("backlog grew: " +
                      std::to_string(drain.outstanding_at_end) +
                      " outstanding at window end");
  }
}

}  // namespace perfbench
