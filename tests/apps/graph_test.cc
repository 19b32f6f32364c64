#include "apps/graph/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <stack>

#include "apps/graph/graph_gen.h"
#include "apps/graph/graph_store.h"
#include "baseline/local_spdk.h"
#include "client/storage_backend.h"
#include "flash/flash_device.h"
#include "sim/simulator.h"

namespace reflex::apps::graph {
namespace {

// ---------------------------------------------------------------------
// In-memory reference implementations.
// ---------------------------------------------------------------------

std::vector<uint32_t> ReferenceWcc(uint32_t n,
                                   const std::vector<Edge>& edges) {
  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<uint32_t(uint32_t)> find = [&](uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const Edge& e : edges) {
    uint32_t a = find(e.first), b = find(e.second);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Min vertex id per component, matching label propagation's fixpoint.
  std::vector<uint32_t> min_of_root(n, UINT32_MAX);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t root = find(v);
    min_of_root[root] = std::min(min_of_root[root], v);
  }
  std::vector<uint32_t> label(n);
  for (uint32_t v = 0; v < n; ++v) label[v] = min_of_root[find(v)];
  return label;
}

std::vector<int32_t> ReferenceBfs(uint32_t n, const std::vector<Edge>& edges,
                                  uint32_t src) {
  std::vector<std::vector<uint32_t>> adj(n);
  for (const Edge& e : edges) adj[e.first].push_back(e.second);
  std::vector<int32_t> level(n, -1);
  std::queue<uint32_t> q;
  level[src] = 0;
  q.push(src);
  while (!q.empty()) {
    uint32_t v = q.front();
    q.pop();
    for (uint32_t u : adj[v]) {
      if (level[u] == -1) {
        level[u] = level[v] + 1;
        q.push(u);
      }
    }
  }
  return level;
}

std::vector<double> ReferencePageRank(uint32_t n,
                                      const std::vector<Edge>& edges,
                                      int iters, double d) {
  std::vector<std::vector<uint32_t>> radj(n);
  std::vector<uint32_t> outdeg(n, 0);
  for (const Edge& e : edges) {
    radj[e.second].push_back(e.first);
    ++outdeg[e.first];
  }
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int it = 0; it < iters; ++it) {
    for (uint32_t v = 0; v < n; ++v) {
      double acc = 0;
      for (uint32_t u : radj[v]) {
        if (outdeg[u] > 0) acc += rank[u] / outdeg[u];
      }
      next[v] = (1.0 - d) / n + d * acc;
    }
    rank.swap(next);
  }
  return rank;
}

int ReferenceSccCount(uint32_t n, const std::vector<Edge>& edges) {
  // Kosaraju, recursive-free.
  std::vector<std::vector<uint32_t>> adj(n), radj(n);
  for (const Edge& e : edges) {
    adj[e.first].push_back(e.second);
    radj[e.second].push_back(e.first);
  }
  std::vector<bool> visited(n, false);
  std::vector<uint32_t> order;
  for (uint32_t s = 0; s < n; ++s) {
    if (visited[s]) continue;
    std::stack<std::pair<uint32_t, size_t>> st;
    st.push({s, 0});
    visited[s] = true;
    while (!st.empty()) {
      auto& [v, i] = st.top();
      if (i < adj[v].size()) {
        uint32_t u = adj[v][i++];
        if (!visited[u]) {
          visited[u] = true;
          st.push({u, 0});
        }
      } else {
        order.push_back(v);
        st.pop();
      }
    }
  }
  std::vector<int> comp(n, -1);
  int count = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (comp[*it] != -1) continue;
    int c = count++;
    std::stack<uint32_t> st;
    st.push(*it);
    comp[*it] = c;
    while (!st.empty()) {
      uint32_t v = st.top();
      st.pop();
      for (uint32_t u : radj[v]) {
        if (comp[u] == -1) {
          comp[u] = c;
          st.push(u);
        }
      }
    }
  }
  return count;
}

// ---------------------------------------------------------------------
// Fixture: a small graph on a local-SPDK backend.
// ---------------------------------------------------------------------

class GraphEngineTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 2000;
  static constexpr uint64_t kM = 12000;

  GraphEngineTest()
      : device_(sim_, flash::DeviceProfile::DeviceA(), 3),
        local_(sim_, device_, baseline::LocalSpdkService::Options{}),
        backend_(local_),
        edges_(GenerateRmat(kN, kM, 99)) {
    auto meta_future =
        BuildGraphOnFlash(sim_, backend_, edges_, kN, /*base=*/4096 * 16);
    sim_.Run();
    meta_ = meta_future.Get();
    GraphEngine::Options options;
    options.cache_pages = 64;
    options.workers = 8;
    engine_ = std::make_unique<GraphEngine>(sim_, backend_, meta_, options);
    auto init = engine_->Init();
    sim_.Run();
    EXPECT_TRUE(init.Ready());
  }

  template <typename T>
  T Await(sim::Future<T> f) {
    sim_.Run();
    EXPECT_TRUE(f.Ready());
    return f.Get();
  }

  sim::Simulator sim_;
  flash::FlashDevice device_;
  baseline::LocalSpdkService local_;
  client::SessionStorageBackend backend_;
  std::vector<Edge> edges_;
  GraphMeta meta_;
  std::unique_ptr<GraphEngine> engine_;
};

TEST_F(GraphEngineTest, WccMatchesUnionFind) {
  auto stats = Await(engine_->RunWcc());
  const std::vector<uint32_t> expected = ReferenceWcc(kN, edges_);
  EXPECT_EQ(engine_->labels(), expected);
  EXPECT_GT(stats.exec_time, 0);
  EXPECT_GT(stats.edges_scanned, 0);
  EXPECT_GT(stats.flash_reads, 0);
}

TEST_F(GraphEngineTest, BfsMatchesReference) {
  auto stats = Await(engine_->RunBfs(0));
  const std::vector<int32_t> expected = ReferenceBfs(kN, edges_, 0);
  EXPECT_EQ(engine_->bfs_levels(), expected);
  uint64_t reached = 0;
  for (int32_t l : expected) reached += (l >= 0);
  EXPECT_EQ(stats.result_value, reached);
}

TEST_F(GraphEngineTest, PageRankMatchesReference) {
  auto stats = Await(engine_->RunPageRank(5));
  const std::vector<double> expected =
      ReferencePageRank(kN, edges_, 5, 0.85);
  ASSERT_EQ(engine_->ranks().size(), expected.size());
  for (uint32_t v = 0; v < kN; ++v) {
    EXPECT_NEAR(engine_->ranks()[v], expected[v], 1e-12) << "v=" << v;
  }
  EXPECT_EQ(stats.iterations, 5);
}

TEST_F(GraphEngineTest, SccMatchesReference) {
  auto stats = Await(engine_->RunScc());
  EXPECT_EQ(stats.result_value,
            static_cast<uint64_t>(ReferenceSccCount(kN, edges_)));
  // Every vertex is assigned a component.
  for (int32_t c : engine_->scc_ids()) EXPECT_GE(c, 0);
}

TEST_F(GraphEngineTest, SmallCacheCausesFlashReads) {
  auto stats = Await(engine_->RunWcc());
  // Two full edge scans per iteration with a 64-page cache over a
  // ~24-page-per-direction edge section: expect misses but also reuse.
  EXPECT_GT(stats.flash_reads, 0);
}

TEST(GraphGenTest, RmatProducesRequestedEdges) {
  auto edges = GenerateRmat(1024, 5000, 7);
  EXPECT_EQ(edges.size(), 5000u);
  for (const Edge& e : edges) {
    EXPECT_LT(e.first, 1024u);
    EXPECT_LT(e.second, 1024u);
    EXPECT_NE(e.first, e.second);
  }
}

TEST(GraphGenTest, RmatIsSkewed) {
  auto edges = GenerateRmat(4096, 40000, 11);
  std::vector<int> outdeg(4096, 0);
  for (const Edge& e : edges) ++outdeg[e.first];
  const int max_deg = *std::max_element(outdeg.begin(), outdeg.end());
  // Power-law-ish: the hottest vertex far exceeds the mean (~10).
  EXPECT_GT(max_deg, 100);
}

TEST(GraphGenTest, Deterministic) {
  EXPECT_EQ(GenerateRmat(512, 1000, 42), GenerateRmat(512, 1000, 42));
  EXPECT_NE(GenerateRmat(512, 1000, 42), GenerateRmat(512, 1000, 43));
}

}  // namespace
}  // namespace reflex::apps::graph
