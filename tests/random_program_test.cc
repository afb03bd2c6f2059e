// Differential testing: randomly generated stratified flat programs are
// evaluated by the LOGRES engine, by the ALGRES-compiled backend, and by
// the independent flat Datalog baseline; all three must derive exactly
// the same facts, with the value interner on and off. This cross-checks
// the whole pipeline (parser, type checker, scheduler, fixpoint, negation,
// semi-naive optimization) against implementations with completely
// different architectures. A second suite checks that the
// three engines also *fail* identically: the same budget produces the
// same kDivergence / kResourceExhausted classification everywhere.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "core/algres_backend.h"
#include "core/database.h"
#include "core/parser.h"
#include "datalog/datalog.h"

namespace logres {
namespace {

// The generated vocabulary: predicates p0..p4 over two integer fields,
// layered so that negation only reaches strictly lower layers (the
// program is stratified by construction).
constexpr int kPredicates = 5;
constexpr int kConstants = 4;

struct GeneratedProgram {
  std::string logres_rules;            // "rules ..." section text
  datalog::Program baseline;
  std::vector<std::vector<int64_t>> edb_facts;  // (pred, a, b)
};

GeneratedProgram Generate(unsigned seed) {
  std::mt19937 rng(seed * 2654435761u + 97);
  GeneratedProgram out;

  // EDB: random facts for layer-0 predicates p0, p1.
  int nfacts = 3 + static_cast<int>(rng() % 6);
  for (int i = 0; i < nfacts; ++i) {
    int64_t pred = static_cast<int64_t>(rng() % 2);
    int64_t a = static_cast<int64_t>(rng() % kConstants);
    int64_t b = static_cast<int64_t>(rng() % kConstants);
    out.edb_facts.push_back({pred, a, b});
  }

  // Rules: each head predicate p_k (k >= 1) gets 1-2 rules whose positive
  // bodies draw from layers <= k and negated literals from layers < k.
  out.logres_rules = "rules ";
  auto var = [](int i) { return std::string(1, static_cast<char>('X' + i % 3)); };
  for (int k = 1; k < kPredicates; ++k) {
    int nrules = 1 + static_cast<int>(rng() % 2);
    for (int r = 0; r < nrules; ++r) {
      // Head p_k(X, Y).
      std::string head_logres =
          "p" + std::to_string(k) + "(f1: X, f2: Y)";
      datalog::Rule baseline_rule;
      baseline_rule.head = datalog::Literal{
          "p" + std::to_string(k),
          {datalog::Term::Var("X"), datalog::Term::Var("Y")},
          false};
      // Body: one positive literal binding X,Y plus 0-2 extras.
      int base = static_cast<int>(rng() % k);
      std::string body_logres = "p" + std::to_string(base) +
                                "(f1: X, f2: Y)";
      baseline_rule.body.push_back(datalog::Literal{
          "p" + std::to_string(base),
          {datalog::Term::Var("X"), datalog::Term::Var("Y")},
          false});
      int extras = static_cast<int>(rng() % 3);
      for (int e = 0; e < extras; ++e) {
        int choice = static_cast<int>(rng() % 3);
        if (choice == 0 && k >= 1) {
          // Negated literal over a strictly lower layer, fully bound.
          int neg = static_cast<int>(rng() % k);
          body_logres += ", not p" + std::to_string(neg) +
                         "(f1: X, f2: Y)";
          baseline_rule.body.push_back(datalog::Literal{
              "p" + std::to_string(neg),
              {datalog::Term::Var("X"), datalog::Term::Var("Y")},
              true});
        } else if (choice == 1) {
          // A join literal chaining through a shared variable; may hit
          // layer k itself, making the rule recursive (still stratified:
          // negation stays strictly below).
          int join = static_cast<int>(rng() % (k + 1));
          std::string v = var(static_cast<int>(rng() % 3));
          body_logres += ", p" + std::to_string(join) + "(f1: Y, f2: " +
                         v + ")";
          baseline_rule.body.push_back(datalog::Literal{
              "p" + std::to_string(join),
              {datalog::Term::Var("Y"), datalog::Term::Var(v)},
              false});
        } else {
          // A constant filter.
          int64_t c = static_cast<int64_t>(rng() % kConstants);
          int filt = static_cast<int>(rng() % k);
          body_logres += ", p" + std::to_string(filt) + "(f1: X, f2: " +
                         std::to_string(c) + ")";
          baseline_rule.body.push_back(datalog::Literal{
              "p" + std::to_string(filt),
              {datalog::Term::Var("X"), datalog::Term::Int(c)},
              false});
        }
      }
      out.logres_rules += head_logres + " <- " + body_logres + ". ";
      EXPECT_TRUE(out.baseline.AddRule(baseline_rule).ok());
    }
  }
  for (const auto& fact : out.edb_facts) {
    EXPECT_TRUE(out.baseline
                    .AddFact("p" + std::to_string(fact[0]),
                             {datalog::Constant::Int(fact[1]),
                              datalog::Constant::Int(fact[2])})
                    .ok());
  }
  return out;
}

using FactSet = std::set<std::tuple<int, int64_t, int64_t>>;

FactSet LogresFacts(const Instance& instance) {
  FactSet out;
  for (int p = 0; p < kPredicates; ++p) {
    for (const Value& t : instance.TuplesOf("P" + std::to_string(p))) {
      out.emplace(p, t.field("f1").value().int_value(),
                  t.field("f2").value().int_value());
    }
  }
  return out;
}

FactSet BaselineFacts(const datalog::Database& db) {
  FactSet out;
  for (int p = 0; p < kPredicates; ++p) {
    auto it = db.find("p" + std::to_string(p));
    if (it == db.end()) continue;
    for (const auto& fact : it->second) {
      out.emplace(p, fact[0].int_value(), fact[1].int_value());
    }
  }
  return out;
}

class DifferentialProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialProperty, ThreeEnginesAgree) {
  GeneratedProgram gen = Generate(GetParam());

  // LOGRES side.
  std::string schema = "associations ";
  for (int p = 0; p < kPredicates; ++p) {
    schema += "P" + std::to_string(p) + " = (f1: integer, f2: integer); ";
  }
  auto db_result = Database::Create(schema);
  ASSERT_TRUE(db_result.ok()) << db_result.status();
  Database db = std::move(db_result).value();
  for (const auto& fact : gen.edb_facts) {
    ASSERT_TRUE(db.InsertTuple("P" + std::to_string(fact[0]),
        Value::MakeTuple({{"f1", Value::Int(fact[1])},
                          {"f2", Value::Int(fact[2])}})).ok());
  }

  // Engines 1b/2: the direct evaluator and the ALGRES-compiled backend
  // run against the pre-application state.
  auto unit = Parse(gen.logres_rules);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\n" << gen.logres_rules;
  auto program = Typecheck(db.schema(), {}, unit->rules);
  ASSERT_TRUE(program.ok()) << program.status();
  Instance edb = db.edb();

  // Engine 1b: the direct evaluator with interning on (the default) and
  // off (the plain-allocation reference path) must produce byte-identical
  // instances.
  std::map<bool, Instance> direct;
  for (bool intern : {true, false}) {
    OidGenerator g;
    Evaluator e(db.schema(), *program, &g);
    EvalOptions o;
    o.intern_values = intern;
    auto run = e.Run(edb, o);
    ASSERT_TRUE(run.ok()) << run.status() << "\n" << gen.logres_rules;
    direct.emplace(intern, std::move(run).value());
  }
  EXPECT_EQ(direct.at(true).ToString(), direct.at(false).ToString())
      << gen.logres_rules;

  auto backend = AlgresBackend::Compile(db.schema(), *program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  auto compiled = backend->Run(edb);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // Compiled backend with interning off is byte-identical too.
  auto compiled_plain = backend->Run(edb, AlgresStrategy::kSemiNaive,
                                     Budget{}, /*intern_values=*/false);
  ASSERT_TRUE(compiled_plain.ok()) << compiled_plain.status();
  EXPECT_EQ(compiled->ToString(), compiled_plain->ToString())
      << gen.logres_rules;

  // Engine 1: direct evaluator through the full Apply pipeline.
  auto apply = db.ApplySource(gen.logres_rules, ApplicationMode::kRIDV);
  ASSERT_TRUE(apply.ok()) << apply.status() << "\n" << gen.logres_rules;

  // Engine 3: the flat Datalog baseline.
  auto baseline = datalog::Evaluate(gen.baseline);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  FactSet expected = LogresFacts(db.edb());
  EXPECT_EQ(expected, BaselineFacts(*baseline)) << gen.logres_rules;
  EXPECT_EQ(expected, LogresFacts(*compiled)) << gen.logres_rules;
  EXPECT_EQ(expected, LogresFacts(direct.at(true))) << gen.logres_rules;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialProperty,
                         ::testing::Range(0u, 40u));

// ---- Goal-directed point queries ------------------------------------------
//
// For the same random programs, point queries with randomized adornments
// (all-bound, one bound field, all-free) must answer identically with the
// magic-set rewrite on and off, on both LOGRES engines and every interner
// setting — and must match the flat baseline's whole-program closure
// fact-for-fact.

class PointQueryDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(PointQueryDifferential, GoalDirectedMatchesWholeProgram) {
  GeneratedProgram gen = Generate(GetParam());
  std::mt19937 rng(GetParam() * 40503u + 7);

  // One state (E, R, S): schema plus the generated rules, so Query runs
  // the persistent-rule path the shell and modules use.
  std::string source = "associations ";
  for (int p = 0; p < kPredicates; ++p) {
    source += "P" + std::to_string(p) + " = (f1: integer, f2: integer); ";
  }
  source += gen.logres_rules;
  auto db_result = Database::Create(source);
  ASSERT_TRUE(db_result.ok()) << db_result.status() << "\n" << source;
  Database db = std::move(db_result).value();
  for (const auto& fact : gen.edb_facts) {
    ASSERT_TRUE(db.InsertTuple("P" + std::to_string(fact[0]),
        Value::MakeTuple({{"f1", Value::Int(fact[1])},
                          {"f2", Value::Int(fact[2])}})).ok());
  }

  // The flat oracle's whole-program closure, shared by every goal.
  auto flat_closure = datalog::Evaluate(gen.baseline);
  ASSERT_TRUE(flat_closure.ok()) << flat_closure.status() << "\n" << source;

  using datalog::Term;
  for (int g = 0; g < 6; ++g) {
    int pred = static_cast<int>(rng() % kPredicates);
    // Adornment: 0 = all-bound, 1 = f1 bound, 2 = f2 bound, 3 = all-free.
    int kind = static_cast<int>(rng() % 4);
    std::optional<int64_t> c1, c2;
    if (kind == 0 || kind == 1) c1 = static_cast<int64_t>(rng() % kConstants);
    if (kind == 0 || kind == 2) c2 = static_cast<int64_t>(rng() % kConstants);
    std::string goal_text =
        "? p" + std::to_string(pred) +
        "(f1: " + (c1 ? std::to_string(*c1) : std::string("QX")) +
        ", f2: " + (c2 ? std::to_string(*c2) : std::string("QY")) + ").";
    SCOPED_TRACE(goal_text);
    auto goal = ParseGoal(goal_text);
    ASSERT_TRUE(goal.ok()) << goal.status();

    std::optional<std::vector<Bindings>> reference;
    for (bool gd : {true, false}) {
      for (bool intern : {true, false}) {
        EvalOptions options;
        options.goal_directed = gd;
        options.intern_values = intern;
        SCOPED_TRACE(testing::Message() << "gd=" << gd << " intern=" << intern);
        auto direct = db.Query(goal_text, options);
        ASSERT_TRUE(direct.ok()) << direct.status() << "\n" << source;
        if (!reference.has_value()) {
          reference = *direct;
        } else {
          EXPECT_EQ(*direct, *reference) << source;
        }
        auto compiled = AlgresBackend::QueryGoal(
            db.schema(), db.functions(), db.rules(), db.edb(), *goal,
            options);
        ASSERT_TRUE(compiled.ok()) << compiled.status() << "\n" << source;
        EXPECT_EQ(*compiled, *reference) << source;
      }
    }

    // Even an all-free goal may legitimately apply the rewrite: it prunes
    // rules unreachable from the goal predicate, and constants inside
    // rule bodies seed demand on their own. The answer-equality checks
    // above are the invariant; here we only require the refusal contract:
    // when the rewrite does fall back, a reason is recorded.
    {
      EvalStats stats;
      ASSERT_TRUE(db.Query(goal_text, EvalOptions{}, &stats).ok());
      if (!stats.goal_directed_fallback.empty()) {
        EXPECT_EQ(stats.magic_rules, 0u);
        EXPECT_EQ(stats.demand_facts, 0u);
      }
    }

    // Cross-engine: the same answers as the flat baseline, fact-for-fact.
    std::set<std::pair<int64_t, int64_t>> logres_facts;
    for (const Bindings& b : *reference) {
      logres_facts.emplace(c1 ? *c1 : b.at("QX").int_value(),
                           c2 ? *c2 : b.at("QY").int_value());
    }
    datalog::Literal dl_goal{
        "p" + std::to_string(pred),
        {c1 ? Term::Int(*c1) : Term::Var("QX"),
         c2 ? Term::Int(*c2) : Term::Var("QY")},
        false};
    auto flat = datalog::Query(*flat_closure, dl_goal);
    ASSERT_TRUE(flat.ok()) << flat.status() << "\n" << source;
    std::set<std::pair<int64_t, int64_t>> flat_facts;
    for (const auto& fact : *flat) {
      flat_facts.emplace(fact[0].int_value(), fact[1].int_value());
    }
    EXPECT_EQ(flat_facts, logres_facts) << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointQueryDifferential,
                         ::testing::Range(0u, 40u));

// ---- Budget classification parity -----------------------------------------
//
// The three engines share the governor contract: step exhaustion is
// kDivergence, deadline or fact-ceiling breach is kResourceExhausted —
// whatever the engine and whatever the interner setting.

struct ChainEngines {
  Database db;
  CheckedProgram program;
  Schema schema;
  datalog::Program baseline;
};

Result<ChainEngines> MakeChainEngines(int n) {
  // The rules live in the state too, so the goal-directed parity tests
  // below can exercise Database::Query; the whole-program tests keep
  // using the separately typechecked `program` over `db.edb()`.
  LOGRES_ASSIGN_OR_RETURN(
      Database db,
      Database::Create("associations E = (a: integer, b: integer);"
                       "             TC = (a: integer, b: integer);"
                       "rules tc(a: X, b: Y) <- e(a: X, b: Y)."
                       "      tc(a: X, b: Z) <- tc(a: X, b: Y),"
                       "                        e(a: Y, b: Z)."));
  datalog::Program baseline;
  for (int i = 0; i < n; ++i) {
    if (!db.InsertTuple(
                "E", Value::MakeTuple({{"a", Value::Int(i)},
                                       {"b", Value::Int(i + 1)}}))
             .ok()) {
      return Status::ExecutionError("insert failed");
    }
    LOGRES_RETURN_NOT_OK(baseline.AddFact(
        "e", {datalog::Constant::Int(i), datalog::Constant::Int(i + 1)}));
  }
  LOGRES_ASSIGN_OR_RETURN(
      auto unit, Parse("rules tc(a: X, b: Y) <- e(a: X, b: Y)."
                       "      tc(a: X, b: Z) <- tc(a: X, b: Y),"
                       "                        e(a: Y, b: Z)."));
  LOGRES_ASSIGN_OR_RETURN(auto program,
                          Typecheck(db.schema(), {}, unit.rules));
  auto add_rule = [&](datalog::Rule rule) {
    return baseline.AddRule(std::move(rule));
  };
  using datalog::Literal;
  using datalog::Term;
  LOGRES_RETURN_NOT_OK(add_rule(datalog::Rule{
      Literal{"tc", {Term::Var("X"), Term::Var("Y")}, false},
      {Literal{"e", {Term::Var("X"), Term::Var("Y")}, false}}}));
  LOGRES_RETURN_NOT_OK(add_rule(datalog::Rule{
      Literal{"tc", {Term::Var("X"), Term::Var("Z")}, false},
      {Literal{"tc", {Term::Var("X"), Term::Var("Y")}, false},
       Literal{"e", {Term::Var("Y"), Term::Var("Z")}, false}}}));
  Schema schema = db.schema();
  return ChainEngines{std::move(db), std::move(program), std::move(schema),
                      std::move(baseline)};
}

// Runs all three engines (direct and compiled backend with the interner
// on and off, and Datalog) under `budget` and checks every one fails with
// `expected`.
void ExpectClassification(const ChainEngines& engines, const Budget& budget,
                          StatusCode expected) {
  auto backend = AlgresBackend::Compile(engines.schema, engines.program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  for (bool intern : {true, false}) {
    OidGenerator gen;
    Evaluator evaluator(engines.schema, engines.program, &gen);
    EvalOptions options;
    options.budget = budget;
    options.intern_values = intern;
    auto direct = evaluator.Run(engines.db.edb(), options);
    ASSERT_FALSE(direct.ok()) << "direct, intern=" << intern;
    EXPECT_EQ(direct.status().code(), expected)
        << "direct, intern=" << intern << ": " << direct.status();

    auto compiled = backend->Run(engines.db.edb(), AlgresStrategy::kSemiNaive,
                                 budget, intern);
    ASSERT_FALSE(compiled.ok()) << "algres, intern=" << intern;
    EXPECT_EQ(compiled.status().code(), expected)
        << "algres, intern=" << intern << ": " << compiled.status();
  }

  datalog::EvalOptions dl;
  dl.budget = budget;
  auto baseline = datalog::Evaluate(engines.baseline, dl);
  ASSERT_FALSE(baseline.ok()) << "datalog";
  EXPECT_EQ(baseline.status().code(), expected)
      << "datalog: " << baseline.status();
}

TEST(ClassificationParity, StepExhaustionIsDivergenceEverywhere) {
  auto engines = MakeChainEngines(24);
  ASSERT_TRUE(engines.ok()) << engines.status();
  Budget tight;
  tight.max_steps = 2;
  ExpectClassification(*engines, tight, StatusCode::kDivergence);
}

TEST(ClassificationParity, ZeroDeadlineIsResourceExhaustedEverywhere) {
  auto engines = MakeChainEngines(24);
  ASSERT_TRUE(engines.ok()) << engines.status();
  Budget expired;
  expired.timeout = std::chrono::milliseconds(0);
  ExpectClassification(*engines, expired, StatusCode::kResourceExhausted);
}

TEST(ClassificationParity, FactCeilingIsResourceExhaustedEverywhere) {
  auto engines = MakeChainEngines(24);
  ASSERT_TRUE(engines.ok()) << engines.status();
  Budget cramped;
  cramped.max_facts = 25;  // the 24 EDB tuples + first derived round breach
  ExpectClassification(*engines, cramped, StatusCode::kResourceExhausted);
}

// The same contract holds goal-directed on both LOGRES engines (the flat
// baseline has no goal-directed mode): once the magic rewrite applies,
// budget failures propagate with the whole-program classification — they
// are never silently converted into a fallback. The goal's cone from node
// 0 spans the whole chain, so the budgets breach exactly as above.
void ExpectGoalDirectedClassification(ChainEngines& engines,
                                      const Budget& budget,
                                      StatusCode expected) {
  auto goal = ParseGoal("? tc(a: 0, b: X).");
  ASSERT_TRUE(goal.ok()) << goal.status();
  for (bool intern : {true, false}) {
    EvalOptions options;
    options.budget = budget;
    options.intern_values = intern;
    auto direct = engines.db.Query(*goal, options);
    ASSERT_FALSE(direct.ok()) << "direct, intern=" << intern;
    EXPECT_EQ(direct.status().code(), expected)
        << "direct, intern=" << intern << ": " << direct.status();
    auto compiled = AlgresBackend::QueryGoal(
        engines.db.schema(), engines.db.functions(), engines.db.rules(),
        engines.db.edb(), *goal, options);
    ASSERT_FALSE(compiled.ok()) << "algres, intern=" << intern;
    EXPECT_EQ(compiled.status().code(), expected)
        << "algres, intern=" << intern << ": " << compiled.status();
  }
}

TEST(ClassificationParity, GoalDirectedStepExhaustionIsDivergence) {
  auto engines = MakeChainEngines(24);
  ASSERT_TRUE(engines.ok()) << engines.status();
  Budget tight;
  tight.max_steps = 2;
  ExpectGoalDirectedClassification(*engines, tight, StatusCode::kDivergence);
}

TEST(ClassificationParity, GoalDirectedZeroDeadlineIsResourceExhausted) {
  auto engines = MakeChainEngines(24);
  ASSERT_TRUE(engines.ok()) << engines.status();
  Budget expired;
  expired.timeout = std::chrono::milliseconds(0);
  ExpectGoalDirectedClassification(*engines, expired,
                                   StatusCode::kResourceExhausted);
}

TEST(ClassificationParity, GoalDirectedFactCeilingIsResourceExhausted) {
  auto engines = MakeChainEngines(24);
  ASSERT_TRUE(engines.ok()) << engines.status();
  Budget cramped;
  cramped.max_facts = 25;
  ExpectGoalDirectedClassification(*engines, cramped,
                                   StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace logres
