// graph_scc: FlashX-style strongly connected components (Kosaraju) over
// an R-MAT graph whose edge lists live on remote Flash behind a page
// cache far smaller than the working set: the cache miss / evict path,
// random and read-only, on one best-effort tenant through BlockDevice.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/graph/engine.h"
#include "apps/graph/graph_gen.h"
#include "apps/graph/graph_store.h"
#include "client/block_device.h"
#include "workloads.h"

namespace perfbench {

namespace graph = reflex::apps::graph;

namespace {

/**
 * Reference SCC labels of the same edge list, computed in memory with
 * an iterative Tarjan. Returns one component id per vertex.
 */
std::vector<int32_t> ReferenceScc(const std::vector<graph::Edge>& edges,
                                  uint32_t n, int32_t* count) {
  std::vector<uint64_t> start(n + 1, 0);
  for (const auto& e : edges) ++start[e.first + 1];
  for (uint32_t v = 0; v < n; ++v) start[v + 1] += start[v];
  std::vector<uint32_t> adj(edges.size());
  std::vector<uint64_t> fill(start.begin(), start.end() - 1);
  for (const auto& e : edges) adj[fill[e.first]++] = e.second;

  constexpr int32_t kUnvisited = -1;
  std::vector<int32_t> index(n, kUnvisited);
  std::vector<int32_t> low(n, 0);
  std::vector<int32_t> comp(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  std::vector<std::pair<uint32_t, uint64_t>> call;  // (vertex, next edge)
  int32_t next_index = 0;
  *count = 0;
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call.push_back({root, start[root]});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call.empty()) {
      auto& [v, e] = call.back();
      if (e < start[v + 1]) {
        const uint32_t w = adj[e++];
        if (index[w] == kUnvisited) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call.push_back({w, start[w]});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        uint32_t w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = *count;
        } while (w != v);
        ++*count;
      }
      const uint32_t done = v;
      call.pop_back();
      if (!call.empty()) {
        low[call.back().first] = std::min(low[call.back().first], low[done]);
      }
    }
  }
  return comp;
}

/** True if the two labelings induce the same partition of vertices. */
bool SamePartition(const std::vector<int32_t>& a,
                   const std::vector<int32_t>& b) {
  if (a.size() != b.size()) return false;
  std::map<int32_t, int32_t> a_to_b;
  std::map<int32_t, int32_t> b_to_a;
  for (size_t v = 0; v < a.size(); ++v) {
    auto [ia, fresh_a] = a_to_b.emplace(a[v], b[v]);
    auto [ib, fresh_b] = b_to_a.emplace(b[v], a[v]);
    if (ia->second != b[v] || ib->second != a[v]) return false;
  }
  return true;
}

}  // namespace

void RunGraphScc(const RunOptions& opts, Report& report) {
  // Half the fig7b graph (same 16 edges per vertex), so that a run fits
  // many iterations, with half its cache: the edge lists are 6.4x the
  // cache, as in fig7b.
  const uint32_t vertices = opts.smoke ? 10000 : 50000;
  const uint64_t edges_n = opts.smoke ? 160000 : 800000;

  const int64_t setup_start = CpuNanos();
  World world(core::ServerOptions{}, /*client_machines=*/1, opts.seed);
  RegisterTimer registrations;
  int64_t t0 = CpuNanos();
  core::Tenant* tenant = world.server->RegisterTenant(
      core::SloSpec{}, core::TenantClass::kBestEffort);
  registrations.ns.push_back(CpuNanos() - t0);
  client::BlockDevice bdev(world.sim, *world.server, world.client_machines[0],
                           tenant->handle(), client::BlockDevice::Options{});
  ProbedBackend backend(world.sim, bdev, opts.trace);
  const std::vector<graph::Edge> edges =
      graph::GenerateRmat(vertices, edges_n, opts.seed);
  const graph::GraphMeta meta = world.Await(
      graph::BuildGraphOnFlash(world.sim, backend, edges, vertices, 1ULL << 30),
      300'000'000'000);
  graph::GraphEngine::Options engine_options;
  engine_options.cache_pages = 256;  // 1 MB
  graph::GraphEngine engine(world.sim, backend, meta, engine_options);
  world.Await(engine.Init(), 300'000'000'000);
  const int64_t setup_ns = CpuNanos() - setup_start;

  const std::vector<core::ReflexServer*> servers = {world.server.get()};
  ServerReadings before;
  if (opts.trace) before = ReadServers(servers);
  backend.ResetPhase();
  const int64_t events_before = world.sim.EventsProcessed();
  const sim::TimeNs sim_before = world.sim.Now();

  const int64_t run_start = CpuNanos();
  const graph::GraphEngine::AlgoStats scc =
      world.Await(engine.RunScc(), 1200'000'000'000);
  const int64_t run_ns = CpuNanos() - run_start;

  // Correctness, outside the timed regions.
  int32_t ref_count = 0;
  const std::vector<int32_t> ref = ReferenceScc(edges, vertices, &ref_count);
  if (opts.plant) ++ref_count;  // an off-by-one reference must be caught
  const bool count_ok = static_cast<int64_t>(scc.result_value) == ref_count;
  const bool ids_ok = SamePartition(engine.scc_ids(), ref);
  report.Check(count_ok, "SCC count matches the in-memory reference");
  report.Check(ids_ok, "scc_ids() partition matches the in-memory reference");
  report.Note("SCC count " + std::to_string(scc.result_value) +
              ", reference " + std::to_string(ref_count));

  const double exec_s = static_cast<double>(scc.exec_time) / 1e9;
  report.Host("setup_s", static_cast<double>(setup_ns) / 1e9, "s");
  report.Host("run_s", static_cast<double>(run_ns) / 1e9, "s");
  report.Host("peak_rss_mb", PeakRssMb(), "MB");
  report.Sim("sim_kiops", static_cast<double>(backend.completed) / exec_s / 1e3,
             "kIOPS");
  report.ReadPercentiles(backend.reads, "edge-list reads (cache misses)");
  report.Sim("app_sim_s", exec_s, "s");
  report.Sim("workload.write_p95_us",
             static_cast<double>(backend.writes.Quantile(0.95)) / 1e3, "us");
  report.Sim("workload.slo_miss_frac", 0.0, "fraction");
  report.Sim("workload.be_kiops",
             static_cast<double>(backend.completed) / exec_s / 1e3, "kIOPS");
  // The SCC labeling counts as one more operation that can be wrong.
  report.attempted = backend.completed + backend.failed + 1;
  report.failed = backend.failed + (count_ok && ids_ok ? 0 : 1);
  report.Check(backend.failed == 0, "no backend read failed");

  if (!opts.trace) return;
  LayerMetrics layers;
  const int64_t requests = backend.read_calls.calls + backend.write_calls.calls;
  layers.FromServers(Diff(ReadServers(servers), before), requests,
                     world.sim.EventsProcessed() - events_before, run_ns,
                     static_cast<int64_t>(world.sim.PeakPendingEvents()),
                     world.sim.Now() - sim_before);
  registrations.Emit(layers);
  layers.Set("client.timeouts",
             static_cast<double>(bdev.client().fault_stats().timeouts));
  layers.Set("client.retries",
             static_cast<double>(bdev.client().fault_stats().retries));
  const client::PageCache::Stats& cache = engine.cache_stats();
  const int64_t lookups = cache.hits + cache.misses;
  layers.Set("cache.hit_frac",
             lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
  layers.Set("cache.misses", static_cast<double>(scc.flash_reads));
  layers.Set("cache.evictions", static_cast<double>(cache.evictions));
  layers.Set("cache.backend_reads_per_op",
             lookups > 0 ? static_cast<double>(backend.read_calls.calls) /
                               lookups
                         : 0.0);
  layers.Set("cache.backend_read_host_ns", backend.read_calls.MeanNs());
  layers.Set("graph.edges_scanned", static_cast<double>(scc.edges_scanned));
  layers.Set("graph.flash_reads", static_cast<double>(scc.flash_reads));
  layers.Emit(report);
}

}  // namespace perfbench
