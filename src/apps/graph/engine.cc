#include "apps/graph/engine.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "sim/logging.h"

namespace reflex::apps::graph {

namespace {

/** Maximum outstanding Flash reads (SAFS I/O depth). */
constexpr int kIoSlots = 128;

/**
 * Modeled compute cost per edge scanned / vertex processed.
 * FlashX-style engines are compute/memory heavy per edge (vertex
 * program dispatch, message handling), which is why the paper sees
 * only 15-40% slowdown even on iSCSI.
 */
constexpr sim::TimeNs kCpuPerEdge = 500;
constexpr sim::TimeNs kCpuPerVertex = 500;

/** Accumulated compute is charged once it reaches a slice of this
 * size. */
constexpr sim::TimeNs kCpuSlice = sim::Micros(20);

}  // namespace

GraphEngine::GraphEngine(sim::Simulator& sim,
                         client::StorageBackend& backend,
                         const GraphMeta& meta, Options options)
    : sim_(sim), backend_(backend), meta_(meta), options_(options) {
  cache_ = std::make_unique<PageCache>(sim, backend, options.cache_pages,
                                       kIoSlots,
                                       /*readahead_pages=*/8);
}

sim::VoidFuture GraphEngine::Init() {
  sim::VoidPromise promise(sim_);
  auto future = promise.GetFuture();
  InitTask(std::move(promise));
  return future;
}

sim::Task GraphEngine::InitTask(sim::VoidPromise promise) {
  // Indexes stay memory-resident, as in FlashX; edge lists do not.
  // LoadIndex reads through the backend (not the page cache) so the
  // cache stays dedicated to edge pages.
  // Note: these reads are part of engine startup, not algorithm time.
  auto fwd = LoadIndex(sim_, backend_, meta_.fwd_index_offset,
                       meta_.num_vertices);
  fwd_index_ = co_await fwd;
  auto rev = LoadIndex(sim_, backend_, meta_.rev_index_offset,
                       meta_.num_vertices);
  rev_index_ = co_await rev;
  initialized_ = true;
  promise.Set(sim::Unit{});
}

sim::VoidFuture GraphEngine::GatherNeighbors(bool reverse, uint32_t v,
                                             std::vector<uint32_t>* out) {
  sim::VoidPromise promise(sim_);
  auto future = promise.GetFuture();
  GatherTask(reverse, v, out, std::move(promise));
  return future;
}

sim::Task GraphEngine::GatherTask(bool reverse, uint32_t v,
                                  std::vector<uint32_t>* out,
                                  sim::VoidPromise promise) {
  const std::vector<uint64_t>& index = reverse ? rev_index_ : fwd_index_;
  const uint64_t base =
      reverse ? meta_.rev_edges_offset : meta_.fwd_edges_offset;
  const uint64_t begin = index[v];
  const uint64_t end = index[v + 1];
  out->clear();
  out->reserve(end - begin);
  uint64_t byte = base + begin * 4;
  const uint64_t byte_end = base + end * 4;
  while (byte < byte_end) {
    const uint8_t* page = co_await cache_->GetPage(byte);
    // The engine has no redundancy: losing graph storage is fatal.
    REFLEX_CHECK(page != nullptr);
    const uint64_t page_start = byte / PageCache::kPageBytes *
                                PageCache::kPageBytes;
    const uint64_t take_end =
        std::min(byte_end, page_start + PageCache::kPageBytes);
    for (uint64_t b = byte; b < take_end; b += 4) {
      uint32_t value;
      std::memcpy(&value, page + (b - page_start), 4);
      out->push_back(value);
    }
    byte = take_end;
  }
  promise.Set(sim::Unit{});
}

// ---------------------------------------------------------------------
// WCC: label propagation over the undirected view (fwd + rev edges).
// ---------------------------------------------------------------------

sim::Future<GraphEngine::AlgoStats> GraphEngine::RunWcc() {
  REFLEX_CHECK(initialized_);
  sim::Promise<AlgoStats> promise(sim_);
  auto future = promise.GetFuture();
  WccTask(std::move(promise));
  return future;
}

sim::Task GraphEngine::WccTask(sim::Promise<AlgoStats> promise) {
  const sim::TimeNs start = sim_.Now();
  const int64_t misses_before = cache_->stats().misses;
  const uint32_t n = meta_.num_vertices;
  labels_.resize(n);
  for (uint32_t v = 0; v < n; ++v) labels_[v] = v;

  AlgoStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.iterations;
    uint32_t cursor = 0;
    sim::Barrier barrier(sim_, options_.workers);
    for (int w = 0; w < options_.workers; ++w) {
      WccWorker(&cursor, &changed, &barrier, &stats.edges_scanned);
    }
    co_await barrier.Done();
  }

  // detlint: allow(unordered-container) only the distinct count is read;
  // iteration order is never observed.
  std::unordered_set<uint32_t> distinct(labels_.begin(), labels_.end());
  stats.result_value = distinct.size();
  stats.exec_time = sim_.Now() - start;
  stats.flash_reads = cache_->stats().misses - misses_before;
  promise.Set(stats);
}

sim::Task GraphEngine::WccWorker(uint32_t* cursor, bool* changed,
                                 sim::Barrier* barrier, int64_t* edges) {
  const uint32_t n = meta_.num_vertices;
  std::vector<uint32_t> nbrs;
  CpuMeter cpu;
  while (*cursor < n) {
    const uint32_t v = (*cursor)++;
    uint32_t best = labels_[v];
    for (int dir = 0; dir < 2; ++dir) {
      co_await GatherNeighbors(dir == 1, v, &nbrs);
      for (uint32_t u : nbrs) best = std::min(best, labels_[u]);
      *edges += static_cast<int64_t>(nbrs.size());
      cpu.pending += kCpuPerEdge * static_cast<sim::TimeNs>(nbrs.size());
    }
    cpu.pending += kCpuPerVertex;
    if (best < labels_[v]) {
      labels_[v] = best;
      *changed = true;
    }
    if (cpu.pending >= kCpuSlice) {
      co_await sim::Delay(sim_, cpu.pending);
      cpu.pending = 0;
    }
  }
  if (cpu.pending > 0) co_await sim::Delay(sim_, cpu.pending);
  barrier->Arrive();
}

// ---------------------------------------------------------------------
// PageRank: pull-style over reverse edges.
// ---------------------------------------------------------------------

sim::Future<GraphEngine::AlgoStats> GraphEngine::RunPageRank(
    int iterations, double damping) {
  REFLEX_CHECK(initialized_);
  sim::Promise<AlgoStats> promise(sim_);
  auto future = promise.GetFuture();
  PageRankTask(iterations, damping, std::move(promise));
  return future;
}

sim::Task GraphEngine::PageRankTask(int iterations, double damping,
                                    sim::Promise<AlgoStats> promise) {
  const sim::TimeNs start = sim_.Now();
  const int64_t misses_before = cache_->stats().misses;
  const uint32_t n = meta_.num_vertices;
  ranks_.assign(n, 1.0 / n);
  std::vector<double> next(n, 0.0);

  AlgoStats stats;
  for (int it = 0; it < iterations; ++it) {
    ++stats.iterations;
    uint32_t cursor = 0;
    sim::Barrier barrier(sim_, options_.workers);
    for (int w = 0; w < options_.workers; ++w) {
      PageRankWorker(&cursor, &next, damping, &barrier,
                     &stats.edges_scanned);
    }
    co_await barrier.Done();
    ranks_.swap(next);
  }

  // Scaled checksum of the distribution (stable across runs).
  double sum = 0.0;
  for (double r : ranks_) sum += r;
  stats.result_value = static_cast<uint64_t>(sum * 1e9);
  stats.exec_time = sim_.Now() - start;
  stats.flash_reads = cache_->stats().misses - misses_before;
  promise.Set(stats);
}

sim::Task GraphEngine::PageRankWorker(uint32_t* cursor,
                                      std::vector<double>* next,
                                      double damping, sim::Barrier* barrier,
                                      int64_t* edges) {
  const uint32_t n = meta_.num_vertices;
  std::vector<uint32_t> nbrs;
  CpuMeter cpu;
  while (*cursor < n) {
    const uint32_t v = (*cursor)++;
    co_await GatherNeighbors(/*reverse=*/true, v, &nbrs);
    double acc = 0.0;
    for (uint32_t u : nbrs) {
      const uint64_t out_deg = fwd_index_[u + 1] - fwd_index_[u];
      if (out_deg > 0) acc += ranks_[u] / static_cast<double>(out_deg);
    }
    (*next)[v] = (1.0 - damping) / n + damping * acc;
    *edges += static_cast<int64_t>(nbrs.size());
    cpu.pending +=
        kCpuPerVertex + kCpuPerEdge * static_cast<sim::TimeNs>(nbrs.size());
    if (cpu.pending >= kCpuSlice) {
      co_await sim::Delay(sim_, cpu.pending);
      cpu.pending = 0;
    }
  }
  if (cpu.pending > 0) co_await sim::Delay(sim_, cpu.pending);
  barrier->Arrive();
}

// ---------------------------------------------------------------------
// BFS: level-synchronous frontier expansion.
// ---------------------------------------------------------------------

sim::Future<GraphEngine::AlgoStats> GraphEngine::RunBfs(uint32_t source) {
  REFLEX_CHECK(initialized_);
  REFLEX_CHECK(source < meta_.num_vertices);
  sim::Promise<AlgoStats> promise(sim_);
  auto future = promise.GetFuture();
  BfsTask(source, std::move(promise));
  return future;
}

sim::Task GraphEngine::BfsTask(uint32_t source,
                               sim::Promise<AlgoStats> promise) {
  const sim::TimeNs start = sim_.Now();
  const int64_t misses_before = cache_->stats().misses;
  bfs_levels_.assign(meta_.num_vertices, -1);
  bfs_levels_[source] = 0;

  AlgoStats stats;
  std::vector<uint32_t> frontier{source};
  uint64_t reached = 1;
  while (!frontier.empty()) {
    ++stats.iterations;
    std::vector<uint32_t> next;
    size_t cursor = 0;
    sim::Barrier barrier(sim_, options_.workers);
    for (int w = 0; w < options_.workers; ++w) {
      BfsWorker(&frontier, &cursor, &next, &barrier, &stats.edges_scanned);
    }
    co_await barrier.Done();
    // Claim newly discovered vertices, dropping duplicates. The next
    // frontier is processed in vertex-id order, which makes adjacency
    // reads quasi-sequential (FlashX's vertically-partitioned layout
    // has the same effect).
    std::vector<uint32_t> dedup;
    dedup.reserve(next.size());
    for (uint32_t v : next) {
      if (bfs_levels_[v] == -1) {
        bfs_levels_[v] = stats.iterations;
        ++reached;
        dedup.push_back(v);
      }
    }
    std::sort(dedup.begin(), dedup.end());
    frontier.swap(dedup);
  }

  stats.result_value = reached;
  stats.exec_time = sim_.Now() - start;
  stats.flash_reads = cache_->stats().misses - misses_before;
  promise.Set(stats);
}

sim::Task GraphEngine::BfsWorker(const std::vector<uint32_t>* frontier,
                                 size_t* cursor,
                                 std::vector<uint32_t>* next,
                                 sim::Barrier* barrier, int64_t* edges) {
  std::vector<uint32_t> nbrs;
  CpuMeter cpu;
  while (*cursor < frontier->size()) {
    const uint32_t v = (*frontier)[(*cursor)++];
    co_await GatherNeighbors(/*reverse=*/false, v, &nbrs);
    for (uint32_t u : nbrs) {
      if (bfs_levels_[u] == -1) next->push_back(u);
    }
    *edges += static_cast<int64_t>(nbrs.size());
    cpu.pending +=
        kCpuPerVertex + kCpuPerEdge * static_cast<sim::TimeNs>(nbrs.size());
    if (cpu.pending >= kCpuSlice) {
      co_await sim::Delay(sim_, cpu.pending);
      cpu.pending = 0;
    }
  }
  if (cpu.pending > 0) co_await sim::Delay(sim_, cpu.pending);
  barrier->Arrive();
}

// ---------------------------------------------------------------------
// SCC: Kosaraju's two-pass algorithm with iterative DFS and adjacency
// prefetching (lookahead on the vertices about to be visited), so the
// random accesses overlap -- throughput-bound rather than
// latency-bound, as in FlashX. Still the most remote-Flash-sensitive
// benchmark (largest slowdown in the paper's Figure 7b).
// ---------------------------------------------------------------------

sim::Task GraphEngine::PrefetchAdjacency(bool reverse, uint32_t v) {
  const std::vector<uint64_t>& index = reverse ? rev_index_ : fwd_index_;
  if (index[v] == index[v + 1]) co_return;
  const uint64_t base =
      reverse ? meta_.rev_edges_offset : meta_.fwd_edges_offset;
  co_await cache_->GetPage(base + index[v] * 4);
}

sim::Future<GraphEngine::AlgoStats> GraphEngine::RunScc() {
  REFLEX_CHECK(initialized_);
  sim::Promise<AlgoStats> promise(sim_);
  auto future = promise.GetFuture();
  SccTask(std::move(promise));
  return future;
}

sim::Task GraphEngine::SccTask(sim::Promise<AlgoStats> promise) {
  const sim::TimeNs start = sim_.Now();
  const int64_t misses_before = cache_->stats().misses;
  const uint32_t n = meta_.num_vertices;
  AlgoStats stats;
  CpuMeter cpu;

  struct Frame {
    uint32_t v;
    std::vector<uint32_t> nbrs;
    size_t idx = 0;
  };

  // Pass 1: finish order on the forward graph.
  std::vector<bool> visited(n, false);
  std::vector<uint32_t> finish_order;
  finish_order.reserve(n);
  std::vector<Frame> stack;
  for (uint32_t s = 0; s < n; ++s) {
    if (visited[s]) continue;
    visited[s] = true;
    stack.push_back(Frame{s, {}, 0});
    co_await GatherNeighbors(false, s, &stack.back().nbrs);
    for (uint32_t u : stack.back().nbrs) {
      if (!visited[u]) PrefetchAdjacency(false, u);
    }
    stats.edges_scanned += static_cast<int64_t>(stack.back().nbrs.size());
    while (!stack.empty()) {
      Frame& top = stack.back();
      cpu.pending += kCpuPerEdge;
      if (top.idx < top.nbrs.size()) {
        const uint32_t u = top.nbrs[top.idx++];
        // Look ahead: warm the next siblings' adjacency while this
        // subtree is processed.
        for (size_t j = top.idx; j < std::min(top.idx + 4, top.nbrs.size());
             ++j) {
          if (!visited[top.nbrs[j]]) PrefetchAdjacency(false, top.nbrs[j]);
        }
        if (!visited[u]) {
          visited[u] = true;
          stack.push_back(Frame{u, {}, 0});
          co_await GatherNeighbors(false, u, &stack.back().nbrs);
          for (uint32_t w : stack.back().nbrs) {
            if (!visited[w]) PrefetchAdjacency(false, w);
          }
          stats.edges_scanned +=
              static_cast<int64_t>(stack.back().nbrs.size());
        }
      } else {
        finish_order.push_back(top.v);
        cpu.pending += kCpuPerVertex;
        stack.pop_back();
      }
      if (cpu.pending >= kCpuSlice) {
        co_await sim::Delay(sim_, cpu.pending);
        cpu.pending = 0;
      }
    }
  }

  // Pass 2: reverse-graph DFS in reverse finish order.
  scc_ids_.assign(n, -1);
  int32_t num_scc = 0;
  for (auto it = finish_order.rbegin(); it != finish_order.rend(); ++it) {
    if (scc_ids_[*it] != -1) continue;
    const int32_t comp = num_scc++;
    scc_ids_[*it] = comp;
    stack.push_back(Frame{*it, {}, 0});
    co_await GatherNeighbors(true, *it, &stack.back().nbrs);
    for (uint32_t u : stack.back().nbrs) {
      if (scc_ids_[u] == -1) PrefetchAdjacency(true, u);
    }
    stats.edges_scanned += static_cast<int64_t>(stack.back().nbrs.size());
    while (!stack.empty()) {
      Frame& top = stack.back();
      cpu.pending += kCpuPerEdge;
      if (top.idx < top.nbrs.size()) {
        const uint32_t u = top.nbrs[top.idx++];
        for (size_t j = top.idx; j < std::min(top.idx + 4, top.nbrs.size());
             ++j) {
          if (scc_ids_[top.nbrs[j]] == -1) {
            PrefetchAdjacency(true, top.nbrs[j]);
          }
        }
        if (scc_ids_[u] == -1) {
          scc_ids_[u] = comp;
          stack.push_back(Frame{u, {}, 0});
          co_await GatherNeighbors(true, u, &stack.back().nbrs);
          for (uint32_t w : stack.back().nbrs) {
            if (scc_ids_[w] == -1) PrefetchAdjacency(true, w);
          }
          stats.edges_scanned +=
              static_cast<int64_t>(stack.back().nbrs.size());
        }
      } else {
        cpu.pending += kCpuPerVertex;
        stack.pop_back();
      }
      if (cpu.pending >= kCpuSlice) {
        co_await sim::Delay(sim_, cpu.pending);
        cpu.pending = 0;
      }
    }
  }
  if (cpu.pending > 0) co_await sim::Delay(sim_, cpu.pending);

  stats.iterations = 2;
  stats.result_value = static_cast<uint64_t>(num_scc);
  stats.exec_time = sim_.Now() - start;
  stats.flash_reads = cache_->stats().misses - misses_before;
  promise.Set(stats);
}

}  // namespace reflex::apps::graph
