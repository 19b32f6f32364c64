#include "apps/graph/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <numeric>
#include <queue>
#include <stack>

#include "apps/graph/graph_gen.h"
#include "apps/graph/graph_store.h"
#include "baseline/local_spdk.h"
#include "client/storage_backend.h"
#include "flash/flash_device.h"
#include "sim/random.h"
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

// The R-MAT generator as it was written before its quadrant choice
// became branch-free: one double per level through an if / else chain.
std::vector<Edge> ReferenceRmat(uint32_t num_vertices, uint64_t num_edges,
                                uint64_t seed, double a, double b,
                                double c) {
  sim::Rng rng(seed, "rmat");
  const int levels = 64 - std::countl_zero(
                              static_cast<uint64_t>(num_vertices - 1));
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (edges.size() < num_edges) {
    uint64_t src = 0, dst = 0;
    for (int l = 0; l < levels; ++l) {
      const double p = rng.NextDouble();
      src <<= 1;
      dst <<= 1;
      if (p < a) {
        // top-left quadrant
      } else if (p < a + b) {
        dst |= 1;
      } else if (p < a + b + c) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    if (src >= num_vertices || dst >= num_vertices || src == dst) continue;
    edges.emplace_back(static_cast<uint32_t>(src),
                       static_cast<uint32_t>(dst));
  }
  return edges;
}

// The reference generator's quadrant for draw p, as (src << 1) | dst.
uint32_t ReferenceQuadrant(double p, double a, double b, double c) {
  if (p < a) return 0;
  if (p < a + b) return 1;
  if (p < a + b + c) return 2;
  return 3;
}

TEST(GraphGenTest, RmatMatchesReferenceGenerator) {
  struct Probs {
    double a, b, c;
  };
  // Defaults, uniform, mild skew, c = 0 and a = 0.
  const Probs probs[] = {{0.57, 0.19, 0.19},
                         {0.25, 0.25, 0.25},
                         {0.45, 0.15, 0.15},
                         {0.9, 0.05, 0.0},
                         {0.0, 0.5, 0.25}};
  for (uint32_t n : {2u, 3u, 1000u, 1024u, 1025u, 50000u}) {
    for (uint64_t seed : {1u, 7u, 2026u}) {
      for (const Probs& p : probs) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " seed=" << seed << " a=" << p.a
                     << " b=" << p.b << " c=" << p.c);
        // Without a top-left quadrant, n = 1025 keeps only edges with an
        // end at exactly 1024, about one attempt in 4,000.
        const uint64_t m = p.a == 0 ? 100 : 4000;
        ASSERT_EQ(GenerateRmat(n, m, seed, p.a, p.b, p.c),
                  ReferenceRmat(n, m, seed, p.a, p.b, p.c));
      }
    }
  }
}

TEST(GraphGenTest, QuadrantBoundIsExact) {
  // Doubles below 0.5 carry bits finer than 2^-53, so ceil and floor of
  // x * 2^53 differ there; converting a raw 64-bit draw keeps them.
  sim::Rng rng(5, "quadrant_bound");
  std::vector<double> xs = {0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19};
  while (xs.size() < 3 + 1000) {
    const double x = static_cast<double>(rng.Next()) * 0x1.0p-64;
    if (x < 1.0) xs.push_back(x);
  }
  for (double x : xs) {
    const uint64_t bound = internal::UnitBound(x);
    ASSERT_GE(bound, 2u) << x;
    for (uint64_t k = bound - 2; k <= bound + 1; ++k) {
      const double p = static_cast<double>(k) * 0x1.0p-53;
      ASSERT_EQ(k >= bound, p >= x) << "x=" << x << " k=" << k;
    }
  }
  // The quadrant at and around each bound, for the defaults and for
  // (a, b, c) triples of random values scaled to sum below 1.
  std::vector<std::array<double, 3>> probs = {{0.57, 0.19, 0.19}};
  for (size_t i = 3; i + 2 < xs.size(); i += 3) {
    probs.push_back({xs[i] / 4, xs[i + 1] / 4, xs[i + 2] / 4});
  }
  for (const auto& [a, b, c] : probs) {
    const internal::QuadrantBounds q{internal::UnitBound(a),
                                     internal::UnitBound(a + b),
                                     internal::UnitBound(a + b + c)};
    for (uint64_t bound : {q.ka, q.kab, q.kabc}) {
      for (uint64_t k = bound - 2; k <= bound + 1; ++k) {
        const double p = static_cast<double>(k) * 0x1.0p-53;
        ASSERT_EQ(internal::Quadrant(k, q), ReferenceQuadrant(p, a, b, c))
            << "a=" << a << " b=" << b << " c=" << c << " k=" << k;
      }
    }
  }
}

// FNV-1a-64 over each edge's source and then destination, each as four
// little-endian bytes.
uint64_t EdgeListHash(const std::vector<Edge>& edges) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Edge& e : edges) {
    mix(e.first);
    mix(e.second);
  }
  return h;
}

TEST(GraphGenTest, RmatEdgesArePinned) {
  // perfbench graph_scc at seeds 1 and 3, and fig7b_flashx.
  EXPECT_EQ(EdgeListHash(GenerateRmat(50000, 800000, 1)),
            0x89702617873d8a2cULL);
  EXPECT_EQ(EdgeListHash(GenerateRmat(50000, 800000, 3)),
            0x2f589bebce899e47ULL);
  EXPECT_EQ(EdgeListHash(GenerateRmat(100000, 1600000, 2026)),
            0x970978ccc2feba33ULL);
}

TEST(GraphGenTest, RejectsNegativeQuadrantProbability) {
  EXPECT_DEATH(GenerateRmat(1024, 10, 1, 0.6, -0.1, 0.3),
               "check failed: a >= 0");
}

}  // namespace
}  // namespace reflex::apps::graph
