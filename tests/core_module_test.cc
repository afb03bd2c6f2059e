// Tests for modules and the six application modes (Section 4.1), and the
// update strategies of Section 4.2.

#include <gtest/gtest.h>

#include "core/database.h"

namespace logres {
namespace {

Value T1(const std::string& label, int64_t v) {
  return Value::MakeTuple({{label, Value::Int(v)}});
}

Result<Database> FreshDb() {
  LOGRES_ASSIGN_OR_RETURN(Database db, Database::Create(R"(
    associations
      P = (x: integer);
      Q = (x: integer);
  )"));
  LOGRES_RETURN_NOT_OK(db.InsertTuple("P", T1("x", 1)));
  LOGRES_RETURN_NOT_OK(db.InsertTuple("P", T1("x", 2)));
  return db;
}

TEST(ModuleTest, ParseModuleBlock) {
  auto m = Module::Parse(R"(
    module queries options RIDI
      rules
        q(x: X) <- p(x: X).
      goal
        ? q(x: X).
    end
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->name, "queries");
  EXPECT_EQ(m->default_mode, ApplicationMode::kRIDI);
  EXPECT_EQ(m->rules.size(), 1u);
  EXPECT_TRUE(m->goal.has_value());
}

TEST(ModuleTest, AnonymousBareSections) {
  auto m = Module::Parse("rules q(x: 1).");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->name, "anonymous");
  EXPECT_EQ(m->rules.size(), 1u);
}

// ---------------------------------------------------------------------------
// RIDI: ordinary query, no state change.

TEST(ModeTest, RidiAnswersGoalWithoutStateChange) {
  Database db = FreshDb().value();
  auto result = db.ApplySource(R"(
    rules
      q(x: X) <- p(x: X), X > 1.
    goal
      ? q(x: X).
  )", ApplicationMode::kRIDI);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->goal_answer.has_value());
  EXPECT_EQ(result->goal_answer->size(), 1u);
  // State unchanged: the rule was not persisted, Q stays empty.
  EXPECT_TRUE(db.rules().empty());
  EXPECT_TRUE(db.edb().TuplesOf("Q").empty());
  // The transient instance did contain the derived fact.
  EXPECT_EQ(result->instance.TuplesOf("Q").size(), 1u);
}

// ---------------------------------------------------------------------------
// RADI: rules become persistent.

TEST(ModeTest, RadiPersistsRules) {
  Database db = FreshDb().value();
  auto result = db.ApplySource("rules q(x: X) <- p(x: X).",
                               ApplicationMode::kRADI);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(db.rules().size(), 1u);
  // The EDB itself is untouched...
  EXPECT_TRUE(db.edb().TuplesOf("Q").empty());
  // ...but the materialized instance derives Q.
  auto inst = db.Materialize();
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->TuplesOf("Q").size(), 2u);
}

TEST(ModeTest, RadiRejectedWhenDenialViolated) {
  Database db = FreshDb().value();
  // The denial fires on the current data: the module must be rejected and
  // the rule list left unchanged.
  auto result = db.ApplySource("rules <- p(x: X), X > 1.",
                               ApplicationMode::kRADI);
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(db.rules().empty());
}

// ---------------------------------------------------------------------------
// RDDI: rules removed.

TEST(ModeTest, RddiRemovesRules) {
  Database db = FreshDb().value();
  ASSERT_TRUE(db.ApplySource("rules q(x: X) <- p(x: X).",
                             ApplicationMode::kRADI).ok());
  ASSERT_EQ(db.rules().size(), 1u);
  auto result = db.ApplySource("rules q(x: X) <- p(x: X).",
                               ApplicationMode::kRDDI);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(db.rules().empty());
  auto inst = db.Materialize();
  EXPECT_TRUE(inst->TuplesOf("Q").empty());
}

// A goal in an RDDI module is answered over the instance recomputed
// without the deleted rules.
TEST(ModeTest, RddiAnswersGoalsAfterTheDeletion) {
  Database db = FreshDb().value();
  ASSERT_TRUE(db.ApplySource("rules q(x: X) <- p(x: X).",
                             ApplicationMode::kRADI).ok());
  auto deleted = db.ApplySource(R"(
    rules q(x: X) <- p(x: X).
    goal ? q(x: X).
  )", ApplicationMode::kRDDI);
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_TRUE(db.rules().empty());
  ASSERT_TRUE(deleted->goal_answer.has_value());
  EXPECT_TRUE(deleted->goal_answer->empty());

  // A goal on an extensional predicate still answers.
  auto edb_goal = db.ApplySource(R"(
    rules q(x: X) <- p(x: X).
    goal ? p(x: X).
  )", ApplicationMode::kRDDI);
  ASSERT_TRUE(edb_goal.ok()) << edb_goal.status();
  ASSERT_TRUE(edb_goal->goal_answer.has_value());
  EXPECT_EQ(edb_goal->goal_answer->size(), 2u);

  // A goal on an undeclared predicate is rejected, state untouched.
  auto unknown = db.ApplySource("goal ? r(x: X).", ApplicationMode::kRDDI);
  EXPECT_EQ(unknown.status(),
            Status::NotFound("unknown predicate 'r' (no class or "
                             "association named R)"));
  EXPECT_TRUE(db.rules().empty());

  // The module's own declarations type its goal even when the deletion
  // removes them: the goal then finds no facts.
  ASSERT_TRUE(db.ApplySource("associations R = (y: integer);"
                             "rules r(y: X) <- p(x: X).",
                             ApplicationMode::kRADI).ok());
  auto undeclared = db.ApplySource(R"(
    associations R = (y: integer);
    rules r(y: X) <- p(x: X).
    goal ? r(y: Y).
  )", ApplicationMode::kRDDI);
  ASSERT_TRUE(undeclared.ok()) << undeclared.status();
  EXPECT_FALSE(db.schema().IsAssociation("R"));
  ASSERT_TRUE(undeclared->goal_answer.has_value());
  EXPECT_TRUE(undeclared->goal_answer->empty());
}

TEST(ModeTest, RddiRemovingAbsentRuleIsNoop) {
  Database db = FreshDb().value();
  auto result = db.ApplySource("rules q(x: 99) <- p(x: 1).",
                               ApplicationMode::kRDDI);
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(db.rules().empty());
}

// ---------------------------------------------------------------------------
// RIDV: EDB update, rules transient.

TEST(ModeTest, RidvUpdatesEdbOnly) {
  Database db = FreshDb().value();
  auto result = db.ApplySource("rules q(x: X) <- p(x: X).",
                               ApplicationMode::kRIDV);
  ASSERT_TRUE(result.ok()) << result.status();
  // The derived facts are now extensional...
  EXPECT_EQ(db.edb().TuplesOf("Q").size(), 2u);
  // ...and the update rules were NOT persisted.
  EXPECT_TRUE(db.rules().empty());
}

TEST(ModeTest, RidvForbidsGoal) {
  Database db = FreshDb().value();
  auto result = db.ApplySource(
      "rules q(x: 1). goal ? q(x: X).", ApplicationMode::kRIDV);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModeTest, RidvMaterializesInstance) {
  // Section 4.2 "Materializing the instance": making persistent rules
  // RIDV yields E = I.
  Database db = FreshDb().value();
  ASSERT_TRUE(db.ApplySource("rules q(x: X) <- p(x: X).",
                             ApplicationMode::kRADI).ok());
  // Re-run the same rule as a data update: E now contains Q's extension.
  ASSERT_TRUE(db.ApplySource("rules q(x: X) <- p(x: X).",
                             ApplicationMode::kRIDV).ok());
  EXPECT_EQ(db.edb().TuplesOf("Q").size(), 2u);
}

// ---------------------------------------------------------------------------
// RADV: rules added and EDB updated.

TEST(ModeTest, RadvAddsRulesAndUpdates) {
  Database db = FreshDb().value();
  auto result = db.ApplySource("rules q(x: X) <- p(x: X).",
                               ApplicationMode::kRADV);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(db.edb().TuplesOf("Q").size(), 2u);
  EXPECT_EQ(db.rules().size(), 1u);
}

// ---------------------------------------------------------------------------
// RDDV: rules removed and their facts retracted.

TEST(ModeTest, RddvRemovesRulesAndDerivedFacts) {
  Database db = FreshDb().value();
  // Persist a fact-producing rule and materialize its output.
  ASSERT_TRUE(db.ApplySource("rules q(x: 7).",
                             ApplicationMode::kRADV).ok());
  ASSERT_TRUE(db.edb().TuplesOf("Q").count(T1("x", 7)));
  ASSERT_EQ(db.rules().size(), 1u);
  // RDDV with the same rule deletes both the rule and the fact it
  // produced (E_M = instance of (∅, R_M)).
  auto result = db.ApplySource("rules q(x: 7).", ApplicationMode::kRDDV);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(db.rules().empty());
  EXPECT_FALSE(db.edb().TuplesOf("Q").count(T1("x", 7)));
}

// ---------------------------------------------------------------------------
// Schema evolution through modules.

TEST(ModeTest, ModuleAddsSchema) {
  Database db = FreshDb().value();
  auto result = db.ApplySource(R"(
    associations
      R = (y: string);
    rules
      r(y: "hello").
  )", ApplicationMode::kRADV);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(db.schema().IsAssociation("R"));
  EXPECT_EQ(db.edb().TuplesOf("R").size(), 1u);
}

TEST(ModeTest, RidiSchemaAdditionsAreTransient) {
  Database db = FreshDb().value();
  auto result = db.ApplySource(R"(
    associations
      TMP = (y: integer);
    rules
      tmp(y: X) <- p(x: X).
    goal
      ? tmp(y: X).
  )", ApplicationMode::kRIDI);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->goal_answer->size(), 2u);
  // TMP does not survive the query.
  EXPECT_FALSE(db.schema().Has("TMP"));
}

TEST(ModeTest, RejectionLeavesStateUntouched) {
  Database db = FreshDb().value();
  size_t p_before = db.edb().TuplesOf("P").size();
  // This update inserts a Q fact and a denial that it violates.
  auto result = db.ApplySource(
      "rules q(x: 1). <- q(x: X), p(x: X).", ApplicationMode::kRIDV);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(db.edb().TuplesOf("P").size(), p_before);
  EXPECT_TRUE(db.edb().TuplesOf("Q").empty());
  EXPECT_TRUE(db.rules().empty());
}

TEST(ModeTest, ReferentialIntegrityRejectsBadUpdate) {
  auto db_result = Database::Create(R"(
    classes
      PERSON = (name: string);
    associations
      LIKES = (who: PERSON, what: string);
  )");
  Database db = std::move(db_result).value();
  // Deleting the only person while LIKES still references them must be
  // rejected (the instance would violate referential integrity).
  auto ann = db.InsertObject("PERSON",
      Value::MakeTuple({{"name", Value::String("ann")}}));
  ASSERT_TRUE(ann.ok());
  ASSERT_TRUE(db.InsertTuple("LIKES", Value::MakeTuple(
      {{"who", Value::MakeOid(*ann)},
       {"what", Value::String("jazz")}})).ok());
  auto result = db.ApplySource(
      "rules not person(self X) <- person(self X, name: \"ann\").",
      ApplicationMode::kRIDV);
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(db.edb().OidsOf("PERSON").size(), 1u);
}

TEST(ModeTest, RegisteredModulesApplyByName) {
  auto db_result = Database::Create(R"(
    associations
      ITALIAN = (name: string);
    module add options RIDV
      rules
        italian(name: "Luca").
    end
    module ask options RIDI
      goal
        ? italian(name: X).
    end
  )");
  ASSERT_TRUE(db_result.ok()) << db_result.status();
  Database db = std::move(db_result).value();
  EXPECT_EQ(db.registered_modules().size(), 2u);
  ASSERT_TRUE(db.ApplyByName("add").ok());
  auto ask = db.ApplyByName("ask");
  ASSERT_TRUE(ask.ok()) << ask.status();
  EXPECT_EQ(ask->goal_answer->size(), 1u);
  EXPECT_EQ(db.ApplyByName("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(ModeTest, DefaultModeUsedByApply) {
  Database db = FreshDb().value();
  Module m = Module::Parse(R"(
    module upd options RIDV
      rules
        q(x: 9).
    end
  )").value();
  ASSERT_TRUE(db.Apply(m).ok());
  EXPECT_TRUE(db.edb().TuplesOf("Q").count(T1("x", 9)));
}

TEST(ModeTest, ActiveConstraintViaRadv) {
  // Section 4.2 "Constraints": an active constraint added with RADV keeps
  // derived data consistent on later updates.
  Database db = FreshDb().value();
  ASSERT_TRUE(db.ApplySource("rules q(x: X) <- p(x: X).",
                             ApplicationMode::kRADV).ok());
  // A later RIDV insert into P propagates to Q on materialization.
  ASSERT_TRUE(db.ApplySource("rules p(x: 5).",
                             ApplicationMode::kRIDV).ok());
  auto inst = db.Materialize();
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(inst->TuplesOf("Q").count(T1("x", 5)));
}

}  // namespace
}  // namespace logres
