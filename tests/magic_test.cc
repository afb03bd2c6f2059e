// Property battery for goal-directed evaluation via magic sets
// (core/magic.h): the rewrite is deterministic, its output is stratified
// or it falls back (never evaluating a non-stratified rewrite), magic
// predicates never leak into dumps / Database state / module results,
// answers are identical to whole-program evaluation on both LOGRES
// engines (and agree with the flat baseline's whole-program closure), and
// programs outside the provable fragment (oid invention, class heads)
// fall back with a recorded reason.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/algres_backend.h"
#include "core/database.h"
#include "core/dump.h"
#include "core/magic.h"
#include "core/parser.h"
#include "datalog/datalog.h"

namespace logres {
namespace {

Value Edge(int64_t a, int64_t b) {
  return Value::MakeTuple({{"a", Value::Int(a)}, {"b", Value::Int(b)}});
}

// A chain 0 -> 1 -> ... -> n-1 with transitive-closure rules.
Result<Database> ChainDb(int64_t n) {
  LOGRES_ASSIGN_OR_RETURN(Database db, Database::Create(R"(
    associations
      E = (a: integer, b: integer);
      TC = (a: integer, b: integer);
    rules
      tc(a: X, b: Y) <- e(a: X, b: Y).
      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
  )"));
  for (int64_t i = 0; i + 1 < n; ++i) {
    LOGRES_RETURN_NOT_OK(db.InsertTuple("E", Edge(i, i + 1)));
  }
  return db;
}

EvalOptions GoalDirected(bool on) {
  EvalOptions options;
  options.goal_directed = on;
  return options;
}

// Answers `goal_text` goal-directed and whole-program and requires both
// agree; returns the goal-directed run's stats.
EvalStats ExpectSameAnswers(const Database& db,
                            const std::string& goal_text) {
  EvalStats on_stats;
  auto on = db.Query(goal_text, GoalDirected(true), &on_stats);
  EvalStats off_stats;
  auto off = db.Query(goal_text, GoalDirected(false), &off_stats);
  EXPECT_TRUE(on.ok()) << on.status();
  EXPECT_TRUE(off.ok()) << off.status();
  if (on.ok() && off.ok()) {
    EXPECT_EQ(*on, *off) << "answers diverge for " << goal_text;
  }
  EXPECT_TRUE(off_stats.goal_directed_fallback.empty());
  return on_stats;
}

TEST(MagicTest, SelectiveChainQueryMatchesWholeProgram) {
  Database db = ChainDb(40).value();
  for (const char* goal :
       {"? tc(a: 0, b: X).", "? tc(a: 20, b: X).", "? tc(a: 39, b: X).",
        "? tc(a: 3, b: 7).", "? tc(a: 3, b: 2).", "? tc(a: X, b: 39)."}) {
    SCOPED_TRACE(goal);
    ExpectSameAnswers(db, goal);
  }

  // The selective goal evaluated only its cone: tc(20, *) has 19 tuples
  // where the whole program derives 780.
  EvalStats stats;
  auto answer = db.Query("? tc(a: 20, b: X).", GoalDirected(true), &stats);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->size(), 19u);
  EXPECT_TRUE(stats.goal_directed_fallback.empty())
      << stats.goal_directed_fallback;
  EXPECT_GE(stats.demand_facts, 1u);   // at least the seed
  EXPECT_EQ(stats.facts, 39u + 19u);   // 39 edges + the demanded cone
  EXPECT_GT(stats.cone_fraction, 0.0);
  EXPECT_LT(stats.cone_fraction, 2.0);

  EvalStats whole;
  ASSERT_TRUE(db.Query("? tc(a: 20, b: X).", GoalDirected(false), &whole)
                  .ok());
  EXPECT_EQ(whole.facts, 39u + 780u);
  EXPECT_LT(stats.facts, whole.facts);
}

TEST(MagicTest, AllFreeGoalFallsBack) {
  Database db = ChainDb(12).value();
  EvalStats stats;
  auto on = db.Query("? tc(a: X, b: Y).", GoalDirected(true), &stats);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_FALSE(stats.goal_directed_fallback.empty());
  EXPECT_EQ(stats.magic_rules, 0u);
  EXPECT_EQ(stats.demand_facts, 0u);
  auto off = db.Query("? tc(a: X, b: Y).", GoalDirected(false));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*on, *off);
}

TEST(MagicTest, EdbOnlyGoalDropsAllRules) {
  Database db = ChainDb(16).value();
  EvalStats stats = ExpectSameAnswers(db, "? e(a: 0, b: X).");
  // Nothing derived is demanded: the whole rule set is dropped and the
  // evaluation touches only the extensional facts.
  EXPECT_TRUE(stats.goal_directed_fallback.empty())
      << stats.goal_directed_fallback;
  EXPECT_EQ(stats.facts, 15u);
  EXPECT_EQ(stats.demand_facts, 0u);
}

TEST(MagicTest, RewriteIsDeterministic) {
  Database db = ChainDb(8).value();
  Goal goal = ParseGoal("? tc(a: 0, b: X).").value();
  MagicRewrite first = MagicRewriteForGoal(db.schema(), db.functions(),
                                           db.rules(), goal, EvalOptions{});
  MagicRewrite second = MagicRewriteForGoal(db.schema(), db.functions(),
                                            db.rules(), goal, EvalOptions{});
  ASSERT_TRUE(first.applied) << first.fallback_reason;
  ASSERT_TRUE(second.applied);
  EXPECT_EQ(first.plan, second.plan);
  ASSERT_EQ(first.rules.size(), second.rules.size());
  for (size_t i = 0; i < first.rules.size(); ++i) {
    EXPECT_EQ(first.rules[i].ToString(), second.rules[i].ToString());
  }
  ASSERT_EQ(first.seeds.size(), 1u);
  EXPECT_EQ(first.seeds[0].first, "$MAGIC$TC");
  EXPECT_EQ(first.seeds[0].second,
            Value::MakeTuple({{"a", Value::Int(0)}}));
}

TEST(MagicTest, RewritePlanNamesTheDemand) {
  Database db = ChainDb(8).value();
  Goal goal = ParseGoal("? tc(a: 0, b: X).").value();
  MagicRewrite mr = MagicRewriteForGoal(db.schema(), db.functions(),
                                        db.rules(), goal, EvalOptions{});
  ASSERT_TRUE(mr.applied) << mr.fallback_reason;
  EXPECT_NE(mr.plan.find("TC[a]"), std::string::npos) << mr.plan;
  EXPECT_NE(mr.plan.find("seed $MAGIC$TC"), std::string::npos) << mr.plan;
  ASSERT_EQ(mr.magic_predicates.size(), 1u);
  EXPECT_EQ(mr.magic_predicates[0], "$MAGIC$TC");
  // Both TC rules survive, guarded; the recursive self-demand rule is a
  // tautology and is dropped.
  EXPECT_EQ(mr.rules.size(), 2u);
  EXPECT_EQ(mr.magic_rule_count, 0u);
  EXPECT_EQ(mr.dropped_rules, 0u);
  for (const Rule& rule : mr.rules) {
    EXPECT_NE(rule.ToString().find("$MAGIC$TC"), std::string::npos)
        << rule.ToString();
  }
}

// Rewriting this stratified program would close a negative cycle through
// the demand predicates ($MAGIC$Q <- $MAGIC$P, b, not w / q <- $MAGIC$Q, b
// / w <- $MAGIC$W, q, v): the rewrite must detect that and fall back, and
// answers must still match whole-program evaluation.
TEST(MagicTest, StratificationLossFallsBack) {
  Database db = Database::Create(R"(
    associations
      B = (x: integer);
      V = (x: integer);
      W = (x: integer);
      Q = (x: integer);
      P = (x: integer);
    rules
      w(x: X) <- q(x: X), v(x: X).
      q(x: X) <- b(x: X).
      p(x: X) <- b(x: X), not w(x: X), q(x: X).
  )").value();
  auto one = [](int64_t v) {
    return Value::MakeTuple({{"x", Value::Int(v)}});
  };
  ASSERT_TRUE(db.InsertTuple("B", one(1)).ok());
  ASSERT_TRUE(db.InsertTuple("B", one(2)).ok());
  ASSERT_TRUE(db.InsertTuple("V", one(2)).ok());

  Goal goal = ParseGoal("? p(x: 1).").value();
  MagicRewrite mr = MagicRewriteForGoal(db.schema(), db.functions(),
                                        db.rules(), goal, EvalOptions{});
  EXPECT_FALSE(mr.applied);
  EXPECT_NE(mr.fallback_reason.find("stratification"), std::string::npos)
      << mr.fallback_reason;

  EvalStats stats;
  auto on = db.Query("? p(x: 1).", GoalDirected(true), &stats);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(on->size(), 1u);  // p(1) holds: b(1), q(1), not w(1)
  EXPECT_NE(stats.goal_directed_fallback.find("stratification"),
            std::string::npos)
      << stats.goal_directed_fallback;
  auto off = db.Query("? p(x: 1).", GoalDirected(false));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*on, *off);
  // A goal on the negation-free part still rewrites fine.
  ExpectSameAnswers(db, "? q(x: 1).");
}

// Stratified negation *within* the fragment stays goal-directed: the
// negated literal is over an extensional predicate with covered
// variables, so the rewrite applies and the cone answer matches.
TEST(MagicTest, StratifiedNegationConeParity) {
  Database db = Database::Create(R"(
    associations
      E = (a: integer, b: integer);
      TC = (a: integer, b: integer);
      FAR = (a: integer, b: integer);
    rules
      tc(a: X, b: Y) <- e(a: X, b: Y).
      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
      far(a: X, b: Y) <- tc(a: X, b: Y), not e(a: X, b: Y).
  )").value();
  for (int64_t i = 0; i + 1 < 14; ++i) {
    ASSERT_TRUE(db.InsertTuple("E", Edge(i, i + 1)).ok());
  }
  EvalStats stats = ExpectSameAnswers(db, "? far(a: 2, b: X).");
  EXPECT_TRUE(stats.goal_directed_fallback.empty())
      << stats.goal_directed_fallback;
  EXPECT_GE(stats.magic_rules, 1u);  // $MAGIC$TC <- $MAGIC$FAR
  auto answer = db.Query("? far(a: 2, b: X).", GoalDirected(true));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 10u);  // tc(2,*) minus the direct edge
}

TEST(MagicTest, MagicPredicatesNeverLeakIntoStateOrResults) {
  Database db = ChainDb(20).value();
  const std::string before = DumpDatabase(db);

  // Query path: read-only, dump byte-identical afterwards.
  ASSERT_TRUE(db.Query("? tc(a: 4, b: X).", GoalDirected(true)).ok());
  EXPECT_EQ(DumpDatabase(db), before);

  // Module path (RIDI): the goal-directed result instance is the
  // demanded cone, with no magic relations in it.
  auto result =
      db.ApplySource("goal ? tc(a: 4, b: X).", ApplicationMode::kRIDI,
                     GoalDirected(true));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->goal_answer.has_value());
  EXPECT_EQ(result->goal_answer->size(), 15u);
  for (const auto& [name, tuples] : result->instance.associations()) {
    EXPECT_FALSE(IsMagicName(name)) << name;
  }
  // The cone: tc(4, *) only, not the whole closure.
  EXPECT_EQ(result->instance.TuplesOf("TC").size(), 15u);
  EXPECT_TRUE(result->stats.goal_directed_fallback.empty())
      << result->stats.goal_directed_fallback;
  EXPECT_GE(result->stats.demand_facts, 1u);
  EXPECT_EQ(DumpDatabase(db), before);

  // Same module whole-program: identical answer, whole instance.
  auto whole =
      db.ApplySource("goal ? tc(a: 4, b: X).", ApplicationMode::kRIDI,
                     GoalDirected(false));
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(*result->goal_answer, *whole->goal_answer);
  EXPECT_EQ(whole->instance.TuplesOf("TC").size(), 190u);
  EXPECT_EQ(DumpDatabase(db), before);
}

// Programs that invent oids (class heads) are outside the provable
// fragment: the rewrite must refuse — so the oid generator consumes the
// same sequence with goal_directed on and off, keeping later state
// byte-identical.
TEST(MagicTest, OidInventionFallsBackAndStateStaysIdentical) {
  auto make = [] {
    Database db = Database::Create(R"(
      classes C = (x: integer);
      associations B = (x: integer);
      rules c(x: X) <- b(x: X).
    )").value();
    EXPECT_TRUE(
        db.InsertTuple("B", Value::MakeTuple({{"x", Value::Int(7)}})).ok());
    return db;
  };
  Database on_db = make();
  Database off_db = make();

  EvalStats stats;
  auto on = on_db.Query("? c(x: 7).", GoalDirected(true), &stats);
  auto off = off_db.Query("? c(x: 7).", GoalDirected(false));
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(on->size(), off->size());
  EXPECT_FALSE(stats.goal_directed_fallback.empty());

  // Both paths materialized the whole program: invented-oid sequences —
  // and hence all later state — stay in lockstep.
  EXPECT_EQ(on_db.oids_issued(), off_db.oids_issued());
  EXPECT_EQ(DumpDatabase(on_db), DumpDatabase(off_db));
}

// Both LOGRES engines answer a selective goal in its cone exactly as over
// the whole program, and the flat oracle's closure agrees.
TEST(MagicTest, EnginesAgreeOnSelectiveGoals) {
  Database db = ChainDb(18).value();
  Goal goal = ParseGoal("? tc(a: 6, b: X).").value();

  auto direct_on = db.Query(goal, GoalDirected(true));
  auto direct_off = db.Query(goal, GoalDirected(false));
  ASSERT_TRUE(direct_on.ok()) << direct_on.status();
  ASSERT_TRUE(direct_off.ok());
  EXPECT_EQ(*direct_on, *direct_off);

  EvalStats algres_stats;
  auto algres_on =
      AlgresBackend::QueryGoal(db.schema(), db.functions(), db.rules(),
                               db.edb(), goal, GoalDirected(true),
                               &algres_stats);
  auto algres_off =
      AlgresBackend::QueryGoal(db.schema(), db.functions(), db.rules(),
                               db.edb(), goal, GoalDirected(false));
  ASSERT_TRUE(algres_on.ok()) << algres_on.status();
  ASSERT_TRUE(algres_off.ok());
  EXPECT_EQ(*algres_on, *algres_off);
  EXPECT_EQ(*algres_on, *direct_on);
  EXPECT_TRUE(algres_stats.goal_directed_fallback.empty())
      << algres_stats.goal_directed_fallback;
  EXPECT_GE(algres_stats.demand_facts, 1u);

  datalog::Program chain;
  for (int64_t i = 0; i + 1 < 18; ++i) {
    ASSERT_TRUE(chain.AddFact("e", {datalog::Constant::Int(i),
                                   datalog::Constant::Int(i + 1)})
                    .ok());
  }
  using datalog::Term;
  ASSERT_TRUE(chain.AddRule({{"tc", {Term::Var("X"), Term::Var("Y")}},
                            {{"e", {Term::Var("X"), Term::Var("Y")}}}})
                  .ok());
  ASSERT_TRUE(chain.AddRule({{"tc", {Term::Var("X"), Term::Var("Z")}},
                            {{"tc", {Term::Var("X"), Term::Var("Y")}},
                             {"e", {Term::Var("Y"), Term::Var("Z")}}}})
                  .ok());
  // The flat engine is the whole-program oracle.
  auto closure = datalog::Evaluate(chain);
  ASSERT_TRUE(closure.ok()) << closure.status();
  auto flat = datalog::Query(
      *closure, datalog::Literal{"tc", {Term::Int(6), Term::Var("X")}});
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(flat->size(), direct_on->size());
}

}  // namespace
}  // namespace logres
