#include "apps/graph/graph_gen.h"

#include <bit>
#include <cmath>

#include "sim/logging.h"
#include "sim/random.h"

namespace reflex::apps::graph {

std::vector<Edge> GenerateRmat(uint32_t num_vertices, uint64_t num_edges,
                               uint64_t seed, double a, double b,
                               double c) {
  REFLEX_CHECK(num_vertices >= 2);
  REFLEX_CHECK(a + b + c < 1.0);
  // Non-negative a, b, c keep the quadrant bounds ordered.
  REFLEX_CHECK(a >= 0 && b >= 0 && c >= 0);
  sim::Rng rng(seed, "rmat");
  const int levels = 64 - std::countl_zero(
                              static_cast<uint64_t>(num_vertices - 1));
  // Each level's draw is p = k * 2^-53 (sim::Rng::NextDouble).
  // Comparing k with these integer bounds picks the quadrant that
  // comparing p with a, a + b and a + b + c would, without a branch.
  const internal::QuadrantBounds bounds{internal::UnitBound(a),
                                        internal::UnitBound(a + b),
                                        internal::UnitBound(a + b + c)};
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (edges.size() < num_edges) {
    uint64_t src = 0, dst = 0;
    for (int l = 0; l < levels; ++l) {
      const uint32_t quad = internal::Quadrant(rng.Next() >> 11, bounds);
      src = (src << 1) | (quad >> 1);
      dst = (dst << 1) | (quad & 1);
    }
    if (src >= num_vertices || dst >= num_vertices || src == dst) continue;
    edges.emplace_back(static_cast<uint32_t>(src),
                       static_cast<uint32_t>(dst));
  }
  return edges;
}

namespace internal {

uint64_t UnitBound(double x) {
  // Scaling by a power of two is exact, so only the ceil rounds.
  return static_cast<uint64_t>(std::ceil(x * 0x1.0p53));
}

}  // namespace internal

std::vector<Edge> GenerateUniform(uint32_t num_vertices,
                                  uint64_t num_edges, uint64_t seed) {
  REFLEX_CHECK(num_vertices >= 2);
  sim::Rng rng(seed, "uniform_graph");
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (edges.size() < num_edges) {
    const auto src = static_cast<uint32_t>(rng.NextBounded(num_vertices));
    const auto dst = static_cast<uint32_t>(rng.NextBounded(num_vertices));
    if (src == dst) continue;
    edges.emplace_back(src, dst);
  }
  return edges;
}

}  // namespace reflex::apps::graph
