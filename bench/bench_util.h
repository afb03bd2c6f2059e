// Shared workload generators for the LOGRES benchmark suite.
//
// The paper reports no measured evaluation (its "evaluation" is the set
// of worked examples), so these generators define the synthetic workloads
// of EXPERIMENTS.md: chains, random graphs and forests for recursive
// closure, and the football/university schemas of Examples 2.1/3.1 at
// scale.

#ifndef LOGRES_BENCH_BENCH_UTIL_H_
#define LOGRES_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/database.h"

namespace logres::bench {

/// \brief Reports a failed \p status as the series' error and returns
/// true, so the caller leaves its loop before touching the failed result:
/// `if (Failed(state, out)) break;`.
inline bool Failed(benchmark::State& state, const Status& status) {
  if (status.ok()) return false;
  state.SkipWithError(status.ToString().c_str());
  return true;
}

template <typename T>
bool Failed(benchmark::State& state, const Result<T>& result) {
  return Failed(state, result.status());
}

/// \brief Deterministic PRNG so benchmark inputs are reproducible.
inline std::mt19937_64 Rng(uint64_t seed = 0xC0FFEE) {
  return std::mt19937_64(seed);
}

/// \brief Edges of a simple chain 0 -> 1 -> ... -> n-1.
inline std::vector<std::pair<int64_t, int64_t>> ChainEdges(int64_t n) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return edges;
}

/// \brief A random graph with n nodes and roughly `factor * n` edges.
inline std::vector<std::pair<int64_t, int64_t>> RandomEdges(
    int64_t n, double factor, uint64_t seed = 0xC0FFEE) {
  auto rng = Rng(seed);
  std::uniform_int_distribution<int64_t> node(0, n - 1);
  std::vector<std::pair<int64_t, int64_t>> edges;
  auto m = static_cast<int64_t>(factor * static_cast<double>(n));
  for (int64_t i = 0; i < m; ++i) {
    edges.emplace_back(node(rng), node(rng));
  }
  return edges;
}

/// \brief A scale-free graph grown by preferential attachment
/// (Barabási–Albert): after an (m+1)-clique seed, each new node i attaches
/// to m existing nodes picked with probability proportional to their
/// degree, implemented with the classic repeated-endpoint list (every node
/// appears in `endpoints` once per incident edge, so a uniform draw from
/// the list is a degree-weighted draw). Edges always point old -> new, so
/// the graph is a DAG and its closure is finite. The hubs this growth
/// produces mean transitive closure derives the same pair along many
/// distinct paths — the duplicate-heavy regime the value interner targets.
inline std::vector<std::pair<int64_t, int64_t>> ScaleFreeEdges(
    int64_t n, int64_t m = 2, uint64_t seed = 0xC0FFEE) {
  auto rng = Rng(seed);
  std::vector<std::pair<int64_t, int64_t>> edges;
  std::vector<int64_t> endpoints;
  const int64_t clique = std::min(m + 1, n);
  for (int64_t i = 0; i < clique; ++i) {
    for (int64_t j = 0; j < i; ++j) {
      edges.emplace_back(j, i);
      endpoints.push_back(j);
      endpoints.push_back(i);
    }
  }
  for (int64_t i = clique; i < n; ++i) {
    for (int64_t k = 0; k < m; ++k) {
      std::uniform_int_distribution<size_t> pick(0, endpoints.size() - 1);
      const int64_t target = endpoints[pick(rng)];
      edges.emplace_back(target, i);
      endpoints.push_back(target);
      endpoints.push_back(i);
    }
  }
  return edges;
}

/// \brief A random forest: each node i > 0 gets a parent < i.
inline std::vector<std::pair<int64_t, int64_t>> ForestEdges(
    int64_t n, uint64_t seed = 0xC0FFEE) {
  auto rng = Rng(seed);
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 1; i < n; ++i) {
    std::uniform_int_distribution<int64_t> parent(0, i - 1);
    edges.emplace_back(parent(rng), i);
  }
  return edges;
}

/// \brief Builds a flat edge database (E/TC associations) seeded with the
/// given edges.
inline Database EdgeDatabase(
    const std::vector<std::pair<int64_t, int64_t>>& edges) {
  auto db = Database::Create(
      "associations E = (a: integer, b: integer);"
      "             TC = (a: integer, b: integer);");
  for (const auto& [a, b] : edges) {
    (void)db->InsertTuple("E", Value::MakeTuple(
        {{"a", Value::Int(a)}, {"b", Value::Int(b)}}));
  }
  return std::move(db).value();
}

inline const char* kTcRules =
    "rules "
    "tc(a: X, b: Y) <- e(a: X, b: Y)."
    "tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).";

/// \brief The football schema of Example 2.1 populated with n teams of
/// p players each.
inline Database FootballDatabase(int64_t teams, int64_t players) {
  auto db = Database::Create(R"(
    domains
      NAME = string;
    classes
      PLAYER = (name: string, roles: {integer});
      TEAM = (team_name: string, base_players: <PLAYER>,
              substitutes: {PLAYER});
    associations
      GAME = (h_team: TEAM, g_team: TEAM, date: string,
              score: (home: integer, guest: integer));
  )");
  Database database = std::move(db).value();
  std::vector<Oid> team_oids;
  for (int64_t t = 0; t < teams; ++t) {
    std::vector<Value> base;
    for (int64_t p = 0; p < players; ++p) {
      auto oid = database.InsertObject("PLAYER", Value::MakeTuple(
          {{"name", Value::String("p" + std::to_string(t * players + p))},
           {"roles", Value::MakeSet({Value::Int(p % 11)})}}));
      base.push_back(Value::MakeOid(*oid));
    }
    auto team = database.InsertObject("TEAM", Value::MakeTuple(
        {{"team_name", Value::String("t" + std::to_string(t))},
         {"base_players", Value::MakeSequence(std::move(base))},
         {"substitutes", Value::MakeSet({})}}));
    team_oids.push_back(*team);
  }
  for (size_t t = 0; t + 1 < team_oids.size(); ++t) {
    (void)database.InsertTuple("GAME", Value::MakeTuple(
        {{"h_team", Value::MakeOid(team_oids[t])},
         {"g_team", Value::MakeOid(team_oids[t + 1])},
         {"date", Value::String("1990-05-05")},
         {"score", Value::MakeTuple({{"home", Value::Int(2)},
                                     {"guest", Value::Int(1)}})}}));
  }
  return database;
}

}  // namespace logres::bench

#endif  // LOGRES_BENCH_BENCH_UTIL_H_
