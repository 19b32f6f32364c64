#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// Each workload builds its world from opts.seed, measures set-up and
// run host time, checks its outputs and fills `report`. See README.md
// for why each exists and how it is sized.
void RunTenantQos(const RunOptions& opts, Report& report);
void RunClusterRw(const RunOptions& opts, Report& report);
void RunGraphScc(const RunOptions& opts, Report& report);
void RunKvRww(const RunOptions& opts, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
