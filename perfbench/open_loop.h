#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "client/io_session.h"
#include "harness.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace perfbench {

/** What one open-loop tenant offers. Every request is 4 KB. */
struct OpenLoopSpec {
  double iops = 0.0;
  /** Poisson arrivals (independent users); false = evenly paced. */
  bool poisson = true;
  double read_fraction = 1.0;
  /** Random requests fall in [0, span_sectors), page aligned. */
  uint64_t span_sectors = 0;
  /** If > 0: Zipfian popularity over stripes of this many sectors. */
  uint32_t zipf_stripe_sectors = 0;
  uint64_t zipf_salt = 0;
  /** Share of requests aimed at the stamped blocks (when given). */
  StampedBlocks* stamps = nullptr;
  double stamp_fraction = 0.0;
  /** Connection/lane to pin requests to (-1 = session's choice). */
  int lane = -1;
};

/** Window statistics of one tenant class (LC or BE). */
struct ClassTotals {
  Samples reads;
  Samples writes;
  /** Requests issued inside the window (latency population). */
  int64_t attempted = 0;
  int64_t failed = 0;
  /** Window requests slower than the SLO. */
  int64_t slow = 0;
  /** Successful completions inside the window (throughput). */
  int64_t completed_in_window = 0;

  void Merge(const ClassTotals& other);
};

/**
 * An open-loop tenant: requests are sent when due, whatever the state
 * of earlier ones, so a stall shows up as queueing and latency instead
 * of reduced load. Latency is timed from the due time (in the
 * simulator a request is always sent exactly when due).
 */
class OpenLoopTenant {
 public:
  OpenLoopTenant(sim::Simulator& sim, client::IoSession& session,
                 OpenLoopSpec spec, uint64_t seed, ClassTotals* totals);

  /** Generates load from now until `end`; statistics cover
   * [window_start, end). */
  void Start(sim::TimeNs window_start, sim::TimeNs end);

  int64_t outstanding() const { return outstanding_; }
  int64_t issued() const { return issued_; }
  int64_t writes_issued() const { return writes_issued_; }
  sim::TimeNs last_completion() const { return last_completion_; }

 private:
  void ScheduleNext(sim::TimeNs due);
  sim::Task Issue();
  uint64_t PickLba();

  sim::Simulator& sim_;
  client::IoSession& session_;
  OpenLoopSpec spec_;
  sim::Rng rng_;
  ClassTotals* totals_;
  double gap_ns_;
  uint64_t zipf_stripes_ = 0;
  sim::TimeNs window_start_ = 0;
  sim::TimeNs end_ = 0;
  int64_t outstanding_ = 0;
  int64_t issued_ = 0;
  int64_t writes_issued_ = 0;
  sim::TimeNs last_completion_ = 0;
};

/**
 * Writes version 0 of every stamped block through `session`, stepping
 * the simulator until each write is acknowledged (set-up phase).
 */
void WriteInitialStamps(sim::Simulator& sim, client::IoSession& session,
                        StampedBlocks& stamps);

/**
 * Runs a set of open-loop tenants over [0, end) and drains them. Fills
 * the backlog diagnostics: requests still outstanding at `end` and
 * the simulated time it took to drain them. Returns the simulated time
 * at which the last request completed.
 */
struct DrainResult {
  int64_t outstanding_at_end = 0;
  sim::TimeNs drain_ns = 0;
  sim::TimeNs last_completion = 0;
};
DrainResult RunOpenLoop(sim::Simulator& sim,
                        std::vector<std::unique_ptr<OpenLoopTenant>>& tenants,
                        sim::TimeNs window_start, sim::TimeNs end);

/**
 * Reports the open-loop end-to-end metrics (shared by tenant_qos and
 * cluster_rw), each LC tenant's p95 against its SLO, and the backlog
 * check. `offered_iops` bounds the outstanding requests a healthy run
 * may hold at window end.
 */
void ReportOpenLoop(Report& report, std::vector<ClassTotals>& lc_tenants,
                    ClassTotals& be, const DrainResult& drain,
                    sim::TimeNs window_start, sim::TimeNs end,
                    double offered_iops);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
