#ifndef REFLEX_APPS_GRAPH_GRAPH_GEN_H_
#define REFLEX_APPS_GRAPH_GRAPH_GEN_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace reflex::apps::graph {

using Edge = std::pair<uint32_t, uint32_t>;

/**
 * Generates a directed R-MAT graph (Chakrabarti et al.): a synthetic
 * power-law graph standing in for the paper's SOC-LiveJournal1 (see
 * DESIGN.md substitution table). Self-loops are dropped; duplicate
 * edges may remain, as in real crawls.
 */
std::vector<Edge> GenerateRmat(uint32_t num_vertices, uint64_t num_edges,
                               uint64_t seed, double a = 0.57,
                               double b = 0.19, double c = 0.19);

/** Uniform random directed graph (for tests). */
std::vector<Edge> GenerateUniform(uint32_t num_vertices,
                                  uint64_t num_edges, uint64_t seed);

namespace internal {

/**
 * Returns ceil(x * 2^53) for x in [0, 1]: the least k with
 * k * 2^-53 >= x. For a draw p = k * 2^-53 (sim::Rng::NextDouble),
 * `p < x` holds exactly when `k < UnitBound(x)`.
 */
uint64_t UnitBound(double x);

/** UnitBound of R-MAT's cumulative quadrant probabilities a, a+b, a+b+c. */
struct QuadrantBounds {
  uint64_t ka, kab, kabc;
};

/**
 * Returns the R-MAT quadrant of the draw k * 2^-53 as
 * (src bit << 1) | dst bit: top left below ka, top right below kab,
 * bottom left below kabc, bottom right above. Requires
 * ka <= kab <= kabc; dst flips at each bound.
 */
inline uint32_t Quadrant(uint64_t k, const QuadrantBounds& q) {
  const uint32_t src = k >= q.kab;
  const uint32_t dst = (k >= q.ka) ^ (k >= q.kab) ^ (k >= q.kabc);
  return (src << 1) | dst;
}

}  // namespace internal

}  // namespace reflex::apps::graph

#endif  // REFLEX_APPS_GRAPH_GRAPH_GEN_H_
