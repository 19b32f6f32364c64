#ifndef REFLEX_APPS_GRAPH_ENGINE_H_
#define REFLEX_APPS_GRAPH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/graph/graph_store.h"
#include "client/page_cache.h"
#include "client/storage_backend.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::apps::graph {

using client::PageCache;

/**
 * Out-of-core graph analytics engine in the style of FlashX: vertex
 * state lives in memory, edge lists live on Flash behind a SAFS-like
 * page cache, and algorithms issue many parallel I/Os. Used to
 * reproduce the paper's Figure 7b (WCC / PageRank / BFS / SCC
 * slowdowns of remote vs local Flash).
 */
class GraphEngine {
 public:
  struct Options {
    /** Page-cache capacity (kept small so edges come from Flash). */
    uint32_t cache_pages = 512;

    /** Parallel worker coroutines for vertex-parallel algorithms. */
    int workers = 32;
  };

  /** Outcome of one algorithm run. */
  struct AlgoStats {
    sim::TimeNs exec_time = 0;
    int64_t flash_reads = 0;   // page-cache misses
    int64_t edges_scanned = 0;
    int iterations = 0;
    /** Algorithm-specific scalar (components, vertices reached...). */
    uint64_t result_value = 0;
  };

  GraphEngine(sim::Simulator& sim, client::StorageBackend& backend,
              const GraphMeta& meta, Options options);

  /** Loads the vertex indexes into memory; call before any Run*. */
  sim::VoidFuture Init();

  /** Weakly connected components (label propagation to fixpoint). */
  sim::Future<AlgoStats> RunWcc();

  /** PageRank with the given number of iterations. */
  sim::Future<AlgoStats> RunPageRank(int iterations, double damping = 0.85);

  /** Breadth-first search from `source`; result is vertices reached. */
  sim::Future<AlgoStats> RunBfs(uint32_t source);

  /** Strongly connected components (Kosaraju); result is SCC count. */
  sim::Future<AlgoStats> RunScc();

  // Final vertex state, for validation against reference results.
  const std::vector<uint32_t>& labels() const { return labels_; }
  const std::vector<double>& ranks() const { return ranks_; }
  const std::vector<int32_t>& bfs_levels() const { return bfs_levels_; }
  const std::vector<int32_t>& scc_ids() const { return scc_ids_; }

  const PageCache::Stats& cache_stats() const { return cache_->stats(); }

 private:
  struct CpuMeter {
    sim::TimeNs pending = 0;
  };

  sim::Task InitTask(sim::VoidPromise promise);

  /** Copies v's (forward or reverse) neighbors into *out. */
  sim::VoidFuture GatherNeighbors(bool reverse, uint32_t v,
                                  std::vector<uint32_t>* out);
  sim::Task GatherTask(bool reverse, uint32_t v, std::vector<uint32_t>* out,
                       sim::VoidPromise promise);

  sim::Task WccTask(sim::Promise<AlgoStats> promise);
  sim::Task WccWorker(uint32_t* cursor, bool* changed, sim::Barrier* barrier,
                      int64_t* edges);
  sim::Task PageRankTask(int iterations, double damping,
                         sim::Promise<AlgoStats> promise);
  sim::Task PageRankWorker(uint32_t* cursor, std::vector<double>* next,
                           double damping, sim::Barrier* barrier,
                           int64_t* edges);
  sim::Task BfsTask(uint32_t source, sim::Promise<AlgoStats> promise);
  sim::Task BfsWorker(const std::vector<uint32_t>* frontier,
                      size_t* cursor, std::vector<uint32_t>* next,
                      sim::Barrier* barrier, int64_t* edges);
  sim::Task SccTask(sim::Promise<AlgoStats> promise);
  /** Fire-and-forget adjacency prefetch (DFS lookahead). */
  sim::Task PrefetchAdjacency(bool reverse, uint32_t v);

  sim::Simulator& sim_;
  client::StorageBackend& backend_;
  GraphMeta meta_;
  Options options_;
  std::unique_ptr<PageCache> cache_;

  std::vector<uint64_t> fwd_index_;
  std::vector<uint64_t> rev_index_;
  bool initialized_ = false;

  std::vector<uint32_t> labels_;
  std::vector<double> ranks_;
  std::vector<int32_t> bfs_levels_;
  std::vector<int32_t> scc_ids_;
};

}  // namespace reflex::apps::graph

#endif  // REFLEX_APPS_GRAPH_ENGINE_H_
