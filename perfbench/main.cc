// The benchmark's workload driver. One invocation runs one iteration of
// one workload and prints one JSON line; run.py repeats iterations and
// aggregates them.
//
//   perfbench <tenant_qos|cluster_rw|graph_scc|kv_rww> --seed N
//             [--trace] [--smoke] [--plant]
//
// Exit codes: 0 outputs correct, 1 a correctness check failed,
// 2 bad usage, 3 the simulation could not finish.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  using perfbench::Report;
  using perfbench::RunOptions;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <workload> --seed N [--trace] "
                         "[--smoke] [--plant]\n");
    return 2;
  }
  const std::string workload = argv[1];
  RunOptions opts;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--plant") == 0) {
      opts.plant = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  Report report;
  if (workload == "tenant_qos") {
    perfbench::RunTenantQos(opts, report);
  } else if (workload == "cluster_rw") {
    perfbench::RunClusterRw(opts, report);
  } else if (workload == "graph_scc") {
    perfbench::RunGraphScc(opts, report);
  } else if (workload == "kv_rww") {
    perfbench::RunKvRww(opts, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson(workload, opts).c_str());
  return report.correct() ? 0 : 1;
}
