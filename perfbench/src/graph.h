// Seeded graph generators and the breadth-first-search oracle that the
// closure probe and the lineage workload check answers against. The
// oracle is plain C++ over the generated edge list: it shares no code
// with any of the three engines.

#ifndef PERFBENCH_GRAPH_H_
#define PERFBENCH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace perfbench {

using Edge = std::pair<int64_t, int64_t>;
using Pairs = std::vector<Edge>;

/// Adjacency lists over nodes [0, n).
inline std::vector<std::vector<int64_t>> Adjacency(int64_t n,
                                                   const Pairs& edges) {
  std::vector<std::vector<int64_t>> adj(static_cast<size_t>(n));
  for (const auto& [a, b] : edges) adj[static_cast<size_t>(a)].push_back(b);
  return adj;
}

/// Nodes reachable from `from` by one or more edges, sorted.
inline std::vector<int64_t> Reachable(
    const std::vector<std::vector<int64_t>>& adj, int64_t from) {
  std::vector<char> seen(adj.size(), 0);
  std::vector<int64_t> frontier = {from};
  std::vector<int64_t> out;
  while (!frontier.empty()) {
    const int64_t node = frontier.back();
    frontier.pop_back();
    for (int64_t next : adj[static_cast<size_t>(node)]) {
      if (seen[static_cast<size_t>(next)]) continue;
      seen[static_cast<size_t>(next)] = 1;
      out.push_back(next);
      frontier.push_back(next);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The transitive closure of `edges` over nodes [0, n), sorted.
inline Pairs Closure(int64_t n, const Pairs& edges) {
  const auto adj = Adjacency(n, edges);
  Pairs out;
  for (int64_t a = 0; a < n; ++a) {
    for (int64_t b : Reachable(adj, a)) out.emplace_back(a, b);
  }
  return out;
}

/// Appends a Barabási–Albert component of `n` nodes (each new node
/// attaches to `m` existing ones, degree-weighted) starting at node id
/// `base`. Edges point old -> new, so the component is a DAG whose hubs
/// make the closure derive the same pair along many paths.
inline void AppendScaleFree(int64_t base, int64_t n, int64_t m,
                            std::mt19937_64* rng, Pairs* edges) {
  std::vector<int64_t> endpoints;
  const int64_t clique = std::min(m + 1, n);
  for (int64_t i = 0; i < clique; ++i) {
    for (int64_t j = 0; j < i; ++j) {
      edges->emplace_back(base + j, base + i);
      endpoints.push_back(j);
      endpoints.push_back(i);
    }
  }
  for (int64_t i = clique; i < n; ++i) {
    for (int64_t k = 0; k < m; ++k) {
      std::uniform_int_distribution<size_t> pick(0, endpoints.size() - 1);
      const int64_t target = endpoints[pick(*rng)];
      edges->emplace_back(base + target, base + i);
      endpoints.push_back(target);
      endpoints.push_back(i);
    }
  }
}

/// Renames nodes [0, n) by a seeded permutation, so node ids carry no
/// trace of the generator's order.
inline void Relabel(int64_t n, std::mt19937_64* rng, Pairs* edges) {
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), *rng);
  for (auto& [a, b] : *edges) {
    a = perm[static_cast<size_t>(a)];
    b = perm[static_cast<size_t>(b)];
  }
  std::sort(edges->begin(), edges->end());
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
}

}  // namespace perfbench

#endif  // PERFBENCH_GRAPH_H_
