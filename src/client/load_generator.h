#ifndef REFLEX_CLIENT_LOAD_GENERATOR_H_
#define REFLEX_CLIENT_LOAD_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "client/io_result.h"
#include "client/io_session.h"
#include "sim/histogram.h"
#include "sim/random.h"
#include "sim/task.h"

namespace reflex::client {

/**
 * Workload description for a LoadGenerator. The arrival rate
 * (`offered_iops` or `rate_at`) and `queue_depth` select the mode:
 *
 *   rate only           open loop (mutilate-style): every arrival is
 *                       issued at once;
 *   rate + queue_depth  semi-open loop: at most `queue_depth` requests
 *                       in flight, later arrivals wait in a FIFO;
 *   queue_depth only    closed loop: `queue_depth` workers, each
 *                       issuing its next request on completion;
 *   + stop_after_ops    probe: the closed loop stops after an op
 *                       budget instead of at the window end.
 */
struct LoadGenSpec {
  double read_fraction = 1.0;
  uint32_t request_bytes = 4096;

  /** Open-loop offered load (requests/second); 0 disables. */
  double offered_iops = 0.0;

  /**
   * Time-varying offered load: if set, each inter-arrival gap is drawn
   * at the rate this returns for the current simulated time. Replaces
   * `offered_iops` (set one or the other).
   */
  std::function<double(sim::TimeNs)> rate_at;

  /**
   * Open-loop arrival process: true = Poisson (exponential gaps),
   * false = uniformly paced (mutilate agents pacing a target rate).
   */
  bool poisson_arrivals = true;

  /** Closed-loop concurrency, or the in-flight cap of an open loop. */
  int queue_depth = 0;

  /**
   * If > 0, closed-loop mode issues exactly this many operations and
   * finishes (latency-probe mode, e.g. Table 2's QD-1 measurements);
   * the first `warmup_ops` are not recorded.
   */
  int64_t stop_after_ops = 0;
  int64_t warmup_ops = 0;

  /** LBA span; 0 means the server device's full capacity. */
  uint64_t lba_offset = 0;
  uint64_t lba_span_sectors = 0;

  /**
   * Page popularity: 0 = uniform; > 0 = Zipf with this skew, whose
   * ranks are scrambled over the span by a permutation derived from
   * `seed` (so each generator has its own hot set).
   */
  double zipf_theta = 0.0;

  /** Width of the timeline bins over the window; 0 = no timeline. */
  sim::TimeNs bin_width = 0;

  uint64_t seed = 9;
};

/**
 * Generates read/write load against any IoSession (a single ReFlex
 * server or a sharded cluster), mimicking the paper's extended
 * mutilate load generator: many lanes generate throughput while
 * latency is recorded per request.
 *
 * Latency runs from a request's arrival, so time spent in the
 * semi-open FIFO counts. Outside probe mode, one population rule
 * covers every statistic: a request counts in the measurement window
 * if it completed inside [warm_end, end) and arrived at or after
 * warm_end (`ops_in_window` alone also counts completions in the
 * window that arrived before it). The bins split that population
 * by completion time. The error totals count every failed request.
 */
class LoadGenerator {
 public:
  /** One timeline bin (see LoadGenSpec::bin_width). */
  struct Bin {
    sim::Histogram reads;     // read latency
    int64_t completions = 0;  // successful reads and writes
    int64_t errors = 0;       // failed reads and writes
  };

  LoadGenerator(sim::Simulator& sim, IoSession& session, LoadGenSpec spec);

  /**
   * Starts generation. Outside probe mode, traffic flows until `end`
   * and statistics cover [warm_end, end). In probe mode
   * (stop_after_ops > 0) the window arguments are ignored.
   */
  void Run(sim::TimeNs warm_end, sim::TimeNs end);

  /** Resolves once generation stopped and all requests completed. */
  sim::VoidFuture Done() const { return done_promise_->GetFuture(); }

  const sim::Histogram& read_latency() const { return read_latency_; }
  const sim::Histogram& write_latency() const { return write_latency_; }
  int64_t ops_in_window() const { return ops_in_window_; }
  int64_t read_errors() const { return read_errors_; }
  int64_t write_errors() const { return write_errors_; }
  const std::vector<Bin>& bins() const { return bins_; }

  /** Achieved throughput over the measurement window. */
  double AchievedIops() const;

 private:
  struct Op {
    sim::TimeNs arrival = 0;
    uint64_t lba = 0;
    bool is_read = true;
  };

  bool open_loop() const {
    return spec_.offered_iops > 0.0 || spec_.rate_at != nullptr;
  }
  Op NextOp();
  sim::Future<IoResult> Submit(const Op& op, int lane);
  bool KeepIssuing();
  sim::Task Worker(int lane);
  void ScheduleNextArrival();
  void Pump();
  sim::Task Issue(Op op, int lane);
  void Record(const IoResult& result, const Op& op);
  void MaybeFinish();

  sim::Simulator& sim_;
  IoSession& session_;
  LoadGenSpec spec_;
  sim::Rng rng_;
  uint64_t num_pages_ = 0;
  uint64_t zipf_salt_ = 0;
  uint32_t sectors_ = 8;

  sim::TimeNs warm_end_ = 0;
  sim::TimeNs end_ = 0;

  std::deque<Op> backlog_;
  int64_t outstanding_ = 0;
  int64_t ops_in_window_ = 0;
  int64_t ops_left_ = 0;
  int64_t probe_recorded_ = 0;
  int64_t read_errors_ = 0;
  int64_t write_errors_ = 0;
  bool generation_done_ = false;
  bool finished_ = false;

  sim::Histogram read_latency_;
  sim::Histogram write_latency_;
  std::vector<Bin> bins_;
  std::unique_ptr<sim::VoidPromise> done_promise_;
  int next_lane_ = 0;
};

}  // namespace reflex::client

#endif  // REFLEX_CLIENT_LOAD_GENERATOR_H_
