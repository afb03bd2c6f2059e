// Tests for the explanation / monitoring utilities.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/explain.h"
#include "core/parser.h"

namespace logres {
namespace {

CheckedProgram AnalyzedProgram() {
  Schema s;
  EXPECT_TRUE(s.DeclareAssociation("E",
      Type::Tuple({{"a", Type::Int()}, {"b", Type::Int()}})).ok());
  EXPECT_TRUE(s.DeclareAssociation("TC",
      Type::Tuple({{"a", Type::Int()}, {"b", Type::Int()}})).ok());
  EXPECT_TRUE(s.DeclareAssociation("ISOLATED",
      Type::Tuple({{"a", Type::Int()}})).ok());
  auto unit = Parse(
      "rules "
      "tc(a: X, b: Y) <- e(a: X, b: Y)."
      "tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z)."
      "isolated(a: X) <- e(a: X, b: Y), not tc(a: Y, b: X).");
  EXPECT_TRUE(unit.ok());
  return Typecheck(s, {}, unit->rules).value();
}

TEST(ExplainTest, ProgramReportListsRulesAndStrata) {
  CheckedProgram program = AnalyzedProgram();
  std::string report = ExplainProgram(program);
  EXPECT_NE(report.find("3 rule(s)"), std::string::npos);
  EXPECT_NE(report.find("rule 0:"), std::string::npos);
  EXPECT_NE(report.find("schedule:"), std::string::npos);
  EXPECT_NE(report.find("variable types:"), std::string::npos);
  // The negation pushes ISOLATED to a higher stratum.
  EXPECT_NE(report.find("ISOLATED -> 1"), std::string::npos);
  EXPECT_NE(report.find("TC -> 0"), std::string::npos);
}

TEST(ExplainTest, ReportMarksInventionAndDeletion) {
  Schema s;
  ASSERT_TRUE(s.DeclareClass("OBJ",
      Type::Tuple({{"x", Type::Int()}})).ok());
  ASSERT_TRUE(s.DeclareAssociation("S",
      Type::Tuple({{"x", Type::Int()}})).ok());
  auto unit = Parse(
      "rules "
      "obj(self O, x: X) <- s(x: X)."
      "not s(x: X) <- s(x: X), X > 5."
      "<- s(x: X), X > 100.");
  auto program = Typecheck(s, {}, unit->rules).value();
  std::string report = ExplainProgram(program);
  EXPECT_NE(report.find("(invents oid)"), std::string::npos);
  EXPECT_NE(report.find("(deletion)"), std::string::npos);
  EXPECT_NE(report.find("denial"), std::string::npos);
  EXPECT_NE(report.find("NOT stratified"), std::string::npos);
}

TEST(ExplainTest, DotGraphHasDashedNegativeEdges) {
  CheckedProgram program = AnalyzedProgram();
  Schema s;  // unused by the renderer
  std::string dot = DependencyGraphDot(s, program);
  EXPECT_NE(dot.find("digraph logres"), std::string::npos);
  EXPECT_NE(dot.find("\"TC\" -> \"E\""), std::string::npos);
  EXPECT_NE(dot.find("\"ISOLATED\" -> \"TC\" [style=dashed"),
            std::string::npos);
}

TEST(ExplainTest, DiffReportsAddsAndRemovals) {
  auto db_result = Database::Create(
      "associations P = (x: integer); classes C = (y: integer);");
  Database db = std::move(db_result).value();
  Instance before = db.edb();
  ASSERT_TRUE(db.InsertTuple("P",
      Value::MakeTuple({{"x", Value::Int(1)}})).ok());
  ASSERT_TRUE(db.InsertObject("C",
      Value::MakeTuple({{"y", Value::Int(2)}})).ok());
  InstanceDiff diff = DiffInstances(before, db.edb());
  EXPECT_EQ(diff.added.size(), 2u);
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_FALSE(diff.empty());
  std::string text = diff.ToString();
  EXPECT_NE(text.find("+ P (x: 1)"), std::string::npos);
  EXPECT_NE(text.find("+ C #"), std::string::npos);
  // Reverse direction flips signs.
  InstanceDiff reverse = DiffInstances(db.edb(), before);
  EXPECT_EQ(reverse.removed.size(), 2u);
  EXPECT_TRUE(reverse.added.empty());
  // Identical instances diff empty.
  EXPECT_TRUE(DiffInstances(db.edb(), db.edb()).empty());
}

TEST(ExplainTest, StatsRendering) {
  EvalStats stats;
  stats.steps = 3;
  stats.rule_firings = 17;
  stats.invented_oids = 2;
  stats.deletions = 1;
  stats.facts = 40;
  stats.elapsed_micros = 1250;
  EXPECT_EQ(ExplainStats(stats),
            "steps=3 firings=17 invented_oids=2 deletions=1 facts=40 "
            "elapsed_us=1250");
}

}  // namespace
}  // namespace logres
