// lineage_queries: the goal-directed read path.
//
// A seeded genealogy forest of PERSON objects and a PARENT association,
// with a persistent recursive `ancestor` rule. The load is a stream of
// RIDI point goals `? ancestor(anc: "<name>", des: D).` through
// Database::Query(goal_text, options, &stats): parse the goal, magic-set
// rewrite and re-typecheck, evaluate the demanded cone. Storage,
// invention and deletion do no work here, so a write-path change should
// leave this workload unchanged, and repeated goal shapes would let a
// rewrite cache show a gain here and none on campus_updates.
//
// The bound name is drawn with Zipf-like skew over all persons, so both
// leaf goals (empty cones) and root goals (whole-tree cones) occur. The
// popularity ranks are laid over the persons sorted by cone size with a
// golden-ratio stride, so every run sees the same mixture of cone sizes
// whatever the seed (the seed picks the forest's shape, the names and
// which of equally sized cones is hot). Every answer is checked against
// a breadth-first search over the generated PARENT edges.
//
// The closure probe (closure.cc) rides along: the three engines
// materialize a transitive-closure program, checked against its own
// breadth-first search, untimed in every pause of the untraced run and
// timed per layer in the traced run.

#include <cmath>
#include <numeric>
#include <optional>
#include <string>

#include "bench.h"
#include "closure.h"
#include "core/database.h"
#include "core/dump.h"
#include "core/magic.h"
#include "core/parser.h"
#include "graph.h"
#include "layers.h"
#include "storage/journaled_database.h"
#include "workload.h"
#include "timing_io.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int64_t kTrees = 12;
constexpr int64_t kTreeSize = 64;
constexpr double kZipfExponent = 1.0;
constexpr int kWarmupQueries = 200;
// The untraced loop pauses after each of kSlices slices for one set-up
// sample whose store is then reopened kRecoveriesPerSetup times, and
// for one untimed, checked run of the closure probe.
constexpr int kSlices = 30;
constexpr int kRecoveriesPerSetup = 2;

constexpr char kProgram[] =
    "classes\n"
    "  PERSON = (name: string, born: integer);\n"
    "associations\n"
    "  PARENT = (par: PERSON, chi: PERSON);\n"
    "  ANCESTOR = (anc: string, des: string);\n"
    "rules\n"
    "  ancestor(anc: A, des: D) <- parent(par: X, chi: Y),\n"
    "      person(self X, name: A), person(self Y, name: D).\n"
    "  ancestor(anc: A, des: D) <- ancestor(anc: A, des: M),\n"
    "      person(self Y, name: M), parent(par: Y, chi: Z),\n"
    "      person(self Z, name: D).\n";

struct Forest {
  int64_t persons = 0;
  Pairs parent_child;               // node ids
  std::vector<std::string> names;   // by node id
  std::vector<int64_t> born;        // by node id
};

Forest MakeForest(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Forest f;
  f.persons = kTrees * kTreeSize;
  std::vector<int64_t> depth(static_cast<size_t>(f.persons), 0);
  for (int64_t t = 0; t < kTrees; ++t) {
    const int64_t base = t * kTreeSize;
    for (int64_t i = 1; i < kTreeSize; ++i) {
      std::uniform_int_distribution<int64_t> pick(0, i - 1);
      const int64_t parent = base + pick(rng);
      f.parent_child.emplace_back(parent, base + i);
      depth[static_cast<size_t>(base + i)] = depth[static_cast<size_t>(parent)] + 1;
    }
  }
  // Names carry no structure: a seeded permutation of serial numbers.
  std::vector<int64_t> serial(static_cast<size_t>(f.persons));
  for (int64_t i = 0; i < f.persons; ++i) serial[static_cast<size_t>(i)] = i;
  std::shuffle(serial.begin(), serial.end(), rng);
  std::uniform_int_distribution<int64_t> jitter(0, 9);
  for (int64_t i = 0; i < f.persons; ++i) {
    f.names.push_back(std::string("n") +
                      std::to_string(10000 + serial[static_cast<size_t>(i)]));
    f.born.push_back(1700 + 25 * depth[static_cast<size_t>(i)] + jitter(rng));
  }
  return f;
}

logres::Database MakeDatabase(const Forest& f) {
  auto db = logres::Database::Create(kProgram);
  if (!db.ok()) throw SetupError{db.status().ToString()};
  std::vector<logres::Oid> oids;
  for (int64_t i = 0; i < f.persons; ++i) {
    auto oid = db->InsertObject(
        "PERSON",
        logres::Value::MakeTuple(
            {{"name", logres::Value::String(f.names[static_cast<size_t>(i)])},
             {"born", logres::Value::Int(f.born[static_cast<size_t>(i)])}}));
    if (!oid.ok()) throw SetupError{oid.status().ToString()};
    oids.push_back(*oid);
  }
  for (const auto& [p, c] : f.parent_child) {
    logres::Status st = db->InsertTuple(
        "PARENT",
        logres::Value::MakeTuple(
            {{"par", logres::Value::MakeOid(oids[static_cast<size_t>(p)])},
             {"chi", logres::Value::MakeOid(oids[static_cast<size_t>(c)])}}));
    if (!st.ok()) throw SetupError{st.ToString()};
  }
  return std::move(db).value();
}

// Goal sampler: Zipf-like popularity over ranks, ranks mapped onto the
// persons sorted by cone size with a golden-ratio stride.
class GoalSampler {
 public:
  GoalSampler(const Forest& f, const std::vector<std::vector<int64_t>>& adj,
              std::mt19937_64* rng)
      : rng_(rng) {
    const size_t n = static_cast<size_t>(f.persons);
    std::vector<size_t> order(n);
    std::vector<size_t> cone(n);
    std::vector<uint64_t> tiebreak(n);
    for (size_t i = 0; i < n; ++i) {
      cone[i] = Reachable(adj, static_cast<int64_t>(i)).size();
      tiebreak[i] = (*rng_)();
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return cone[a] != cone[b] ? cone[a] > cone[b] : tiebreak[a] < tiebreak[b];
    });
    size_t stride = static_cast<size_t>(std::llround(0.6180339887 * static_cast<double>(n)));
    while (std::gcd(stride, n) != 1) ++stride;
    by_rank_.resize(n);
    for (size_t r = 0; r < n; ++r) by_rank_[r] = order[((r + 1) * stride) % n];
    std::vector<double> weights(n);
    for (size_t r = 0; r < n; ++r) {
      weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    }
    pick_ = std::discrete_distribution<size_t>(weights.begin(), weights.end());
  }

  int64_t Next() { return static_cast<int64_t>(by_rank_[pick_(*rng_)]); }

 private:
  std::mt19937_64* rng_;
  std::vector<size_t> by_rank_;
  std::discrete_distribution<size_t> pick_;
};

std::string GoalText(const std::string& name) {
  return "? ancestor(anc: \"" + name + "\", des: D).";
}

}  // namespace

RunResult RunLineageQueries(const Args& args) {
  RunResult result;
  const Forest forest = MakeForest(args.seed);
  const auto adj = Adjacency(forest.persons, forest.parent_child);

  // Set-up: load the generated forest into a durable store.
  ReadOnlyStore store(args.work_dir, [&](const std::string& dir) {
    auto created = logres::JournaledDatabase::Create(dir, MakeDatabase(forest));
    if (!created.ok()) throw SetupError{created.status().ToString()};
    return std::move(created).value();
  });
  const logres::Database& db = store.live().db();
  ClosureProbe closure(args.seed);

  std::mt19937_64 rng(args.seed ^ 0x9E3779B97F4A7C15ull);
  GoalSampler sampler(forest, adj, &rng);
  auto expected = [&](int64_t person) {
    std::vector<std::string> names;
    for (int64_t d : Reachable(adj, person)) {
      names.push_back(forest.names[static_cast<size_t>(d)]);
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  auto check = [&](int64_t person,
                   const logres::Result<std::vector<logres::Bindings>>& got) {
    ++result.attempted;
    if (!got.ok()) {
      result.Fail("query failed: " + got.status().ToString());
      return;
    }
    std::vector<std::string> names;
    for (const logres::Bindings& b : *got) {
      auto it = b.find("D");
      if (it == b.end() || it->second.kind() != logres::ValueKind::kString) {
        result.Fail("answer without a string D binding");
        return;
      }
      names.push_back(it->second.string_value());
    }
    std::sort(names.begin(), names.end());
    if (names != expected(person)) {
      result.Fail("answer for " + forest.names[static_cast<size_t>(person)] +
                  " differs from the BFS oracle");
    }
  };

  logres::EvalOptions options;  // goal_directed on, num_threads = 1
  for (int i = 0; i < kWarmupQueries; ++i) {
    const int64_t person = sampler.Next();
    logres::EvalStats stats;
    check(person, db.Query(GoalText(forest.names[static_cast<size_t>(person)]),
                           options, &stats));
  }

  const std::vector<double> latencies_ms = ClosedLoop(
      args.trace ? args.seconds / 2 : args.seconds, args.trace ? 1 : kSlices,
      [&] {
        const int64_t person = sampler.Next();
        const std::string goal =
            GoalText(forest.names[static_cast<size_t>(person)]);
        logres::EvalStats stats;
        const Clock::time_point start = Clock::now();
        auto got = db.Query(goal, options, &stats);
        const double ms = MicrosSince(start) / 1000.0;
        check(person, got);
        return ms;
      },
      [&] {
        if (args.trace) return;
        store.Pause(kRecoveriesPerSetup, nullptr, &result);
        closure.Run(nullptr, &result);
      });
  if (!args.trace) {
    store.Report(&result);
    FinishUntraced(latencies_ms, &result);
    return result;
  }

  Tracer tracer;
  InternerSampler interner;
  EvalStatsSampler eval_stats;
  std::vector<double> parse_us, eval_us, rewrite_us, magic_rules, demand,
      cone, goal_bytes;
  double fallbacks = 0;
  const std::vector<double> traced_ms = ClosedLoop(
      args.seconds / 4, 1,
      [&] {
        const int64_t person = sampler.Next();
        const std::string goal_text =
            GoalText(forest.names[static_cast<size_t>(person)]);
        goal_bytes.push_back(static_cast<double>(goal_text.size()));
        logres::EvalStats stats;
        std::optional<logres::Result<std::vector<logres::Bindings>>> got;
        std::optional<logres::Result<logres::Goal>> goal;
        interner.Before();
        const Clock::time_point start = Clock::now();
        {
          // The same work as Query(goal_text, ...): parse, then query.
          OpScope op(&tracer, "query");
          {
            Span span(&tracer, kLayerParser, "ParseGoal");
            const Clock::time_point t = Clock::now();
            goal.emplace(logres::ParseGoal(goal_text));
            parse_us.push_back(MicrosSince(t));
          }
          if (goal->ok()) {
            Span span(&tracer, kLayerEval, "Database::Query");
            got.emplace(db.Query(**goal, options, &stats));
            interner.After();
          }
        }
        const double ms = MicrosSince(start) / 1000.0;
        if (!goal->ok()) {
          ++result.attempted;
          result.Fail("goal did not parse: " + goal->status().ToString());
          return ms;
        }
        check(person, *got);
        eval_stats.Add(stats);
        eval_us.push_back(static_cast<double>(stats.elapsed_micros));
        magic_rules.push_back(static_cast<double>(stats.magic_rules));
        demand.push_back(static_cast<double>(stats.demand_facts));
        cone.push_back(stats.cone_fraction);
        if (!stats.goal_directed_fallback.empty()) ++fallbacks;

        // Probe: the magic rewrite Query ran internally, timed on its own.
        Span span(&tracer, kLayerMagic, "probe MagicRewriteForGoal");
        const Clock::time_point t = Clock::now();
        logres::MagicRewrite rewrite = logres::MagicRewriteForGoal(
            db.schema(), db.functions(), db.rules(), **goal, options);
        rewrite_us.push_back(MicrosSince(t));
        return ms;
      },
      [] {});
  // The closure probe, apart from the queries so it does not disturb
  // their caches: probes (spans outside any operation) of every engine.
  ClosedLoop(
      args.seconds / 4, 1,
      [&] {
        const Clock::time_point start = Clock::now();
        closure.Run(&tracer, &result);
        return MicrosSince(start) / 1000.0;
      },
      [] {});
  closure.Report(&result);
  result.Set("parser.goal_us", Median(parse_us));
  result.Set("parser.source_bytes", Mean(goal_bytes));
  result.Set("magic.rewrite_us", Median(rewrite_us));
  result.Set("magic.rules", Median(magic_rules));
  result.Set("magic.demand_facts", Mean(demand));
  result.Set("magic.cone_fraction", Mean(cone));
  result.Set("magic.fallbacks", fallbacks);
  result.Set("eval.query_us", Median(eval_us));
  eval_stats.Report(&result);
  interner.Report(&result);
  TimingIo io;
  store.Pause(1, &io, &result);
  store.Report(&result);
  FinishTraced(args, tracer, latencies_ms, traced_ms, &result);
  return result;
}

}  // namespace perfbench
