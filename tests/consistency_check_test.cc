// The Definition 4 consistency check (DESIGN.md §15): pinned messages for
// every violation kind, the touched-items mode against the full check, and
// the database's verified-EDB mark — every way E can change must make the
// next evaluation see the change.

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/dump.h"
#include "core/eval.h"
#include "core/instance.h"
#include "core/magic.h"
#include "core/parser.h"
#include "core/typecheck.h"
#include "core/undo_log.h"
#include "util/string_util.h"

namespace logres {
namespace {

// ---------------------------------------------------------------------------
// Pinned messages. Each case builds its instance from the empty one under
// an undo log, so the same records also drive the touched-items check,
// which must return the very same status (the empty base is consistent).

Schema MessageSchema() {
  Schema s;
  EXPECT_TRUE(s.DeclareClass("PERSON",
      Type::Tuple({{"name", Type::String()},
                   {"home", Type::Tuple({{"city", Type::String()},
                                         {"owner", Type::Named("PERSON")}})}}))
                  .ok());
  EXPECT_TRUE(s.DeclareClass("STUDENT",
      Type::Tuple({{"person", Type::Named("PERSON")},
                   {"school", Type::String()}})).ok());
  EXPECT_TRUE(s.DeclareIsa("STUDENT", "PERSON").ok());
  EXPECT_TRUE(s.DeclareClass("CLUB", Type::Tuple({{"title", Type::Int()}}))
                  .ok());
  EXPECT_TRUE(s.DeclareClass("TEAM", Type::Tuple({{"title", Type::Int()}}))
                  .ok());
  EXPECT_TRUE(s.DeclareAssociation("PARENT",
      Type::Tuple({{"par", Type::Named("PERSON")},
                   {"chi", Type::Named("PERSON")}})).ok());
  EXPECT_TRUE(s.DeclareAssociation("TAGGED",
      Type::Tuple({{"who", Type::Set(Type::Named("PERSON"))}})).ok());
  Status valid = s.Validate();
  EXPECT_TRUE(valid.ok()) << valid;
  return s;
}

Value Home(Value owner) {
  return Value::MakeTuple(
      {{"city", Value::String("como")}, {"owner", std::move(owner)}});
}

Value Person(const std::string& name, Value owner = Value::Nil()) {
  return Value::MakeTuple(
      {{"name", Value::String(name)}, {"home", Home(std::move(owner))}});
}

Value Student(const std::string& name) {
  return Value::MakeTuple({{"name", Value::String(name)},
                           {"home", Home(Value::Nil())},
                           {"school", Value::String("polimi")}});
}

Value Title(int64_t n) { return Value::MakeTuple({{"title", Value::Int(n)}}); }

Value Parent(Value par, Value chi) {
  return Value::MakeTuple({{"par", std::move(par)}, {"chi", std::move(chi)}});
}

Value Ref(uint64_t id) { return Value::MakeOid(Oid{id}); }

// The full verdict of `inst`, after checking that the touched-items mode
// over `log` (which built `inst` from the empty instance) agrees with it.
Status Verdict(const Instance& inst, const Schema& s, const UndoLog& log) {
  TouchedItems touched;
  touched.Add(log);
  Status full = inst.CheckConsistent(s);
  if (!touched.erased) {
    Status partial = inst.CheckConsistent(s, &touched);
    EXPECT_EQ(partial.code(), full.code());
    EXPECT_EQ(partial.message(), full.message());
  }
  return full;
}

void ExpectViolation(const Status& st, StatusCode code,
                     const std::string& message) {
  EXPECT_EQ(st.code(), code) << st;
  EXPECT_EQ(st.message(), message);
}

TEST(ConsistencyCheck, ConsistentInstancePasses) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{1}, Person("ann"), &log).ok());
  ASSERT_TRUE(
      inst.AdoptObject(s, "STUDENT", Oid{2}, Student("bo"), &log).ok());
  inst.InsertTuple("PARENT", Parent(Ref(1), Ref(2)), &log);
  inst.InsertTuple("TAGGED",
                   Value::MakeTuple({{"who", Value::MakeSet({Ref(1)})}}),
                   &log);
  Status st = Verdict(inst, s, log);
  EXPECT_TRUE(st.ok()) << st;
}

TEST(ConsistencyCheck, SubclassOidOutsideSuperclassMessage) {
  // Built under a schema without the isa edge, checked under one with it
  // (what a merge adding `STUDENT isa PERSON` does to existing data).
  Schema flat;
  ASSERT_TRUE(flat.DeclareClass("PERSON",
      Type::Tuple({{"name", Type::String()}})).ok());
  ASSERT_TRUE(flat.DeclareClass("STUDENT",
      Type::Tuple({{"name", Type::String()}})).ok());
  Schema isa = flat;
  ASSERT_TRUE(isa.DeclareIsa("STUDENT", "PERSON").ok());
  ASSERT_TRUE(isa.Validate().ok());
  Instance inst;
  UndoLog log;
  Value v = Value::MakeTuple({{"name", Value::String("x")}});
  ASSERT_TRUE(inst.AdoptObject(flat, "STUDENT", Oid{7}, v, &log).ok());
  ASSERT_TRUE(inst.AdoptObject(flat, "STUDENT", Oid{4}, v, &log).ok());
  ExpectViolation(Verdict(inst, isa, log), StatusCode::kInconsistent,
                  "oid #4 in 'STUDENT' but not in its superclass 'PERSON' "
                  "(Definition 4a)");
}

TEST(ConsistencyCheck, CrossHierarchyMessageNamesTheSmallestOid) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  // Oid 9 is in CLUB and TEAM, oid 3 in CLUB and PERSON: the full check
  // reports the smallest oid, with its first two classes in name order.
  ASSERT_TRUE(inst.AdoptObject(s, "TEAM", Oid{9}, Title(1), &log).ok());
  ASSERT_TRUE(inst.AdoptObject(s, "CLUB", Oid{9}, Title(1), &log).ok());
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{3}, Person("p"), &log).ok());
  ASSERT_TRUE(inst.AdoptObject(s, "CLUB", Oid{3}, Title(2), &log).ok());
  ExpectViolation(Verdict(inst, s, log), StatusCode::kInconsistent,
                  "oid #3 belongs to 'CLUB' and 'PERSON' which have no "
                  "common ancestor (Definition 4b)");
}

TEST(ConsistencyCheck, NestedReferenceMessageCarriesTheFieldPath) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  ASSERT_TRUE(
      inst.AdoptObject(s, "PERSON", Oid{5}, Person("p", Ref(99)), &log).ok());
  ExpectViolation(Verdict(inst, s, log), StatusCode::kConstraintViolation,
                  "PERSON#5.home.owner: oid #99 is not a member of class "
                  "'PERSON' (active referential integrity)");
}

TEST(ConsistencyCheck, WrongKindMessage) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  Value v = Value::MakeTuple(
      {{"name", Value::Int(3)}, {"home", Home(Value::Nil())}});
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{2}, v, &log).ok());
  ExpectViolation(Verdict(inst, s, log), StatusCode::kConstraintViolation,
                  "PERSON#2.name: value 3 does not conform to string");
}

TEST(ConsistencyCheck, MissingFieldMessage) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{2},
                               Value::MakeTuple({{"name", Value::String("x")}}),
                               &log)
                  .ok());
  ExpectViolation(Verdict(inst, s, log), StatusCode::kConstraintViolation,
                  "PERSON#2: value (name: \"x\") lacks field 'home' of type "
                  "(city: string, owner: PERSON)");
}

TEST(ConsistencyCheck, DanglingAssociationMessage) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{1}, Person("a"), &log).ok());
  inst.InsertTuple("PARENT", Parent(Ref(1), Ref(42)), &log);
  inst.InsertTuple("PARENT", Parent(Ref(1), Ref(40)), &log);
  // The smallest offending tuple in set order, whatever the insert order.
  ExpectViolation(Verdict(inst, s, log), StatusCode::kConstraintViolation,
                  "PARENT.chi: oid #40 is not a member of class 'PERSON' "
                  "(active referential integrity)");
}

TEST(ConsistencyCheck, DanglingOidInsideACollectionMessage) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{1}, Person("a"), &log).ok());
  inst.InsertTuple(
      "TAGGED",
      Value::MakeTuple({{"who", Value::MakeSet({Ref(1), Ref(8)})}}), &log);
  ExpectViolation(Verdict(inst, s, log), StatusCode::kConstraintViolation,
                  "TAGGED.who: oid #8 is not a member of class 'PERSON' "
                  "(active referential integrity)");
}

TEST(ConsistencyCheck, NilInsideAnAssociationMessage) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{1}, Person("a"), &log).ok());
  inst.InsertTuple("PARENT", Parent(Value::Nil(), Ref(1)), &log);
  ExpectViolation(Verdict(inst, s, log), StatusCode::kConstraintViolation,
                  "PARENT.par: nil oid for class 'PERSON' inside an "
                  "association (associations must refer to existing "
                  "objects, Section 2.1)");
}

TEST(ConsistencyCheck, UndeclaredAssociationMessage) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  inst.InsertTuple("GHOST", Value::MakeTuple({}), &log);
  ExpectViolation(Verdict(inst, s, log), StatusCode::kInconsistent,
                  "instance stores tuples for undeclared association "
                  "'GHOST'");
}

TEST(ConsistencyCheck, TouchedCheckSkipsTuplesErasedAgain) {
  Schema s = MessageSchema();
  Instance inst;
  UndoLog log;
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{1}, Person("a"), &log).ok());
  inst.InsertTuple("PARENT", Parent(Ref(1), Ref(42)), &log);
  inst.EraseTuple("PARENT", Parent(Ref(1), Ref(42)), &log);
  TouchedItems touched;
  touched.Add(log);
  EXPECT_FALSE(touched.erased);  // erasing a tuple cannot break Def. 4
  EXPECT_TRUE(inst.CheckConsistent(s, &touched).ok());
  EXPECT_TRUE(inst.CheckConsistent(s).ok());
}

TEST(ConsistencyCheck, ErasingAnObjectAsksForTheFullCheck) {
  Schema s = MessageSchema();
  Instance inst;
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{1}, Person("a")).ok());
  ASSERT_TRUE(inst.AdoptObject(s, "PERSON", Oid{2}, Person("b")).ok());
  inst.InsertTuple("PARENT", Parent(Ref(1), Ref(2)));
  UndoLog log;
  ASSERT_TRUE(inst.RemoveObject(s, "PERSON", Oid{2}, &log).ok());
  TouchedItems touched;
  touched.Add(log);
  // The dangling tuple is untouched: only the erased flag reveals it.
  EXPECT_TRUE(touched.erased);
  ExpectViolation(inst.CheckConsistent(s), StatusCode::kConstraintViolation,
                  "PARENT.chi: oid #2 is not a member of class 'PERSON' "
                  "(active referential integrity)");
}

// ---------------------------------------------------------------------------
// The verified-EDB mark. A database that has answered a goal must still
// see every later change to E or S; the reference verdict is that of a
// copy of the database, which starts unmarked.

constexpr const char* kFamily = R"(
classes
  PERSON = (name: integer);
  EMP = (name: integer);
associations
  PARENT = (par: PERSON, chi: PERSON);
  ANC = (up: PERSON, down: PERSON);
  LIKES = (who: PERSON);
rules
  anc(up: X, down: Y) <- parent(par: X, chi: Y).
  anc(up: X, down: Z) <- anc(up: X, down: Y), parent(par: Y, chi: Z).
)";

constexpr const char* kGoal = "? anc(up: X, down: Y), person(self X, name: 0).";

Value Named(int64_t n) { return Value::MakeTuple({{"name", Value::Int(n)}}); }

Value ParentOf(Oid par, Oid chi) {
  return Parent(Value::MakeOid(par), Value::MakeOid(chi));
}

// No rule reads LIKES, so a dangling LIKES tuple reaches no derived fact:
// only a check of E itself can see it.
Value Likes(Oid who) { return Value::MakeTuple({{"who", Value::MakeOid(who)}}); }

// A chain 0 -> 1 -> 2 -> 3 of persons; the goal has been answered, so E is
// marked as verified.
Result<Database> MarkedFamily(std::vector<Oid>* people) {
  LOGRES_ASSIGN_OR_RETURN(Database db, Database::Create(kFamily));
  for (int i = 0; i < 4; ++i) {
    LOGRES_ASSIGN_OR_RETURN(Oid oid, db.InsertObject("PERSON", Named(i)));
    people->push_back(oid);
  }
  for (int i = 0; i + 1 < 4; ++i) {
    LOGRES_RETURN_NOT_OK(
        db.InsertTuple("PARENT", ParentOf((*people)[i], (*people)[i + 1])));
  }
  LOGRES_ASSIGN_OR_RETURN(auto answer, db.Query(kGoal));
  if (answer.size() != 3) return Status::ExecutionError("unexpected answer");
  LOGRES_RETURN_NOT_OK(db.Materialize().status());
  return db;
}

// The verdicts of a goal and a materialization on `db`, each equal to the
// ones a never-marked copy of the same state gives.
void ExpectSameAsFresh(const Database& db, const std::string& message) {
  const Database fresh = db;
  auto query = db.Query(kGoal);
  auto fresh_query = fresh.Query(kGoal);
  ASSERT_FALSE(query.ok());
  ASSERT_FALSE(fresh_query.ok());
  EXPECT_EQ(query.status(), fresh_query.status());
  EXPECT_EQ(query.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(query.status().message(), message);
  auto materialized = db.Materialize();
  ASSERT_FALSE(materialized.ok());
  EXPECT_EQ(materialized.status(), fresh.Materialize().status());
}

TEST(ConsistencyCheck, HostTupleAfterAGoalIsStillChecked) {
  std::vector<Oid> people;
  auto db = MarkedFamily(&people);
  ASSERT_TRUE(db.ok()) << db.status();
  // A dangling tuple the host API accepts without checking.
  ASSERT_TRUE(db->InsertTuple("LIKES", Likes(Oid{999})).ok());
  ExpectSameAsFresh(*db, "LIKES.who: oid #999 is not a member of class "
                         "'PERSON' (active referential integrity)");
}

TEST(ConsistencyCheck, HostObjectAfterAGoalIsStillChecked) {
  std::vector<Oid> people;
  auto db = MarkedFamily(&people);
  ASSERT_TRUE(db.ok()) << db.status();
  auto bad = db->InsertObject(
      "PERSON", Value::MakeTuple({{"name", Value::String("x")}}));
  ASSERT_TRUE(bad.ok()) << bad.status();
  ExpectSameAsFresh(*db, StrCat("PERSON#", bad->id,
                                       ".name: value \"x\" does not conform "
                                       "to integer"));
}

TEST(ConsistencyCheck, MutableEdbAfterAGoalIsStillChecked) {
  std::vector<Oid> people;
  auto db = MarkedFamily(&people);
  ASSERT_TRUE(db.ok()) << db.status();
  db->mutable_edb()->InsertTuple("LIKES", Likes(Oid{500}));
  ExpectSameAsFresh(*db, "LIKES.who: oid #500 is not a member of class "
                         "'PERSON' (active referential integrity)");
}

TEST(ConsistencyCheck, RestoredSnapshotIsCheckedAgain) {
  std::vector<Oid> people;
  auto db = MarkedFamily(&people);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->InsertTuple("LIKES", Likes(Oid{999})).ok());
  Database::Snapshot snapshot = db->TakeSnapshot();
  // An update that removes the dangling tuple leaves a clean, marked E1 —
  // until the snapshot (as a journal commit failure would) brings the
  // tuple back.
  auto repaired = db->ApplySource("rules not likes(who: X) <- likes(who: X).",
                                  ApplicationMode::kRIDV);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  ASSERT_TRUE(db->Query(kGoal).ok());
  db->RestoreSnapshot(std::move(snapshot));
  ExpectSameAsFresh(*db, "LIKES.who: oid #999 is not a member of class "
                         "'PERSON' (active referential integrity)");
}

TEST(ConsistencyCheck, LoadedDumpIsCheckedAgain) {
  std::vector<Oid> people;
  auto db = MarkedFamily(&people);
  ASSERT_TRUE(db.ok()) << db.status();
  Database dirty = *db;
  auto bad = dirty.InsertObject(
      "PERSON", Value::MakeTuple({{"name", Value::String("x")}}));
  ASSERT_TRUE(bad.ok()) << bad.status();
  auto loaded = LoadDatabase(DumpDatabase(dirty));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  *db = std::move(loaded).value();
  ExpectSameAsFresh(*db, StrCat("PERSON#", bad->id,
                                ".name: value \"x\" does not conform to "
                                "integer"));
}

TEST(ConsistencyCheck, MergedIsaEdgeBelowAnExistingClassIsChecked) {
  std::vector<Oid> people;
  auto db = MarkedFamily(&people);
  ASSERT_TRUE(db.ok()) << db.status();
  auto emp = db->InsertObject("EMP", Named(7));
  ASSERT_TRUE(emp.ok()) << emp.status();
  ASSERT_TRUE(db->Query(kGoal).ok());  // marked again, EMP included
  const std::string before = DumpDatabase(*db);
  // The merged edge puts the existing EMP object outside its new
  // superclass: the application is rejected and rolled back.
  auto merged =
      db->ApplySource("classes EMP isa PERSON;", ApplicationMode::kRADI);
  ASSERT_FALSE(merged.ok());
  ExpectViolation(merged.status(), StatusCode::kInconsistent,
                  StrCat("oid #", emp->id, " in 'EMP' but not in its "
                         "superclass 'PERSON' (Definition 4a)"));
  EXPECT_EQ(DumpDatabase(*db), before);
  EXPECT_TRUE(db->Query(kGoal).ok());
}

// ---------------------------------------------------------------------------
// Property: over random object-oriented programs — invented oids, head
// deletion of tuples and objects, o-value rewrites, nil and cross-hierarchy
// heads, host-inserted dangling oids — every verdict the database returns
// equals the full check's, and the touched-items check equals the full one
// whenever its precondition holds.

constexpr const char* kCampusSchema = R"(
classes
  PERSON = (name: integer);
  STUDENT = (PERSON, year: integer);
  STUDENT isa PERSON;
  CLUB = (title: integer);
  BADGE = (label: integer, holder: PERSON);
associations
  P0 = (a: integer, b: integer);
  P1 = (a: integer, b: integer);
  PARENT = (par: PERSON, chi: PERSON);
  ANC = (up: PERSON, down: PERSON);
  PAIR = (left: PERSON, right: PERSON);
)";

// Rule templates; `#` is replaced by a random constant in 0..3. The last
// one derives inconsistent facts on purpose (a nil class reference).
const char* const kRuleMenu[] = {
    "anc(up: X, down: Y) <- parent(par: X, chi: Y).",
    "anc(up: X, down: Z) <- anc(up: X, down: Y), parent(par: Y, chi: Z).",
    "badge(label: N, holder: P) <- person(self P, name: N), p0(a: N, b: #).",
    "p1(a: X, b: Y) <- p0(a: Y, b: X).",
    "club(title: N) <- p1(a: N, b: #).",
    "pair(left: P, right: Q) <- parent(par: P, chi: Q), "
    "person(self Q, name: #).",
    "not parent(par: X, chi: Y) <- parent(par: X, chi: Y), "
    "person(self Y, name: #).",
    "student(self S, name: N, year: 9) <- student(self S, name: N, "
    "year: #).",
    "person(self S, name: 7) <- student(self S, year: #).",
    "not person(self P) <- person(self P, name: #).",
    "not badge(self B) <- badge(self B, label: #).",
    "pair(left: P) <- person(self P, name: #).",
};

// Divergent programs (deletion and re-derivation can oscillate) stop
// early and identically everywhere.
EvalOptions Options() {
  EvalOptions options;
  options.budget.max_steps = 64;
  return options;
}

struct Scenario {
  std::string persistent;  // rules section of the database
  std::string update;      // a RIDV module's rules
  std::string goal;
  int dangling_at;  // 0: never, 1: before the first goal, 2: after it
};

Scenario MakeScenario(unsigned seed, std::mt19937* rng) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  auto instantiate = [&](std::string rule) {
    for (size_t at; (at = rule.find('#')) != std::string::npos;) {
      rule.replace(at, 1, std::to_string(pick(4)));
    }
    return rule + "\n";
  };
  constexpr int kMenu = static_cast<int>(std::size(kRuleMenu));
  Scenario out;
  out.persistent = "rules\n";
  for (int i = 0; i < kMenu; ++i) {
    // The recursive ancestor rules always, the inconsistent one rarely,
    // the rest one time in three.
    int odds = i < 2 ? 1 : i + 1 == kMenu ? 8 : 3;
    if (pick(odds) == 0) out.persistent += instantiate(kRuleMenu[i]);
  }
  out.update = "rules\n";
  for (int i = 0, n = 1 + pick(3); i < n; ++i) {
    out.update += instantiate(kRuleMenu[2 + pick(kMenu - 2)]);
  }
  out.goal = StrCat("? anc(up: X, down: Y), person(self X, name: ", pick(4),
                    ").");
  out.dangling_at = static_cast<int>(seed % 3);
  return out;
}

// What Database::Query does, with the full check in place of the
// database's choice between full and touched-items checking.
Status ReferenceQuery(const Database& db, const Goal& goal, OidGenerator gen) {
  LOGRES_ASSIGN_OR_RETURN(CheckedProgram program,
                          Typecheck(db.schema(), db.functions(), db.rules()));
  MagicRewrite mr = MagicRewriteForGoal(db.schema(), db.functions(),
                                        db.rules(), goal, Options());
  if (!mr.applied) {
    Evaluator evaluator(db.schema(), program, &gen);
    LOGRES_ASSIGN_OR_RETURN(Instance instance,
                            evaluator.Run(db.edb(), Options()));
    return instance.CheckConsistent(db.schema());
  }
  Evaluator evaluator(mr.schema, mr.checked, &gen);
  LOGRES_ASSIGN_OR_RETURN(Instance demanded,
                          evaluator.Run(SeedDemand(mr, db.edb()), Options()));
  StripToCone(mr, db.edb(), &demanded, nullptr);
  return demanded.CheckConsistent(db.schema());
}

// Runs `rules` over `base` like Database::Evaluate with the full check;
// also checks the touched-items verdict where its precondition holds.
Result<Instance> ReferenceRun(const Database& db, const std::vector<Rule>& rules,
                              const Instance& base, OidGenerator* gen) {
  LOGRES_ASSIGN_OR_RETURN(CheckedProgram program,
                          Typecheck(db.schema(), db.functions(), rules));
  Evaluator evaluator(db.schema(), program, gen);
  LOGRES_ASSIGN_OR_RETURN(Instance result, evaluator.Run(base, Options()));
  Status full = result.CheckConsistent(db.schema());
  if (base.CheckConsistent(db.schema()).ok() && !evaluator.touched().erased) {
    Status partial = result.CheckConsistent(db.schema(), &evaluator.touched());
    EXPECT_EQ(partial.code(), full.code());
    EXPECT_EQ(partial.message(), full.message());
  }
  LOGRES_RETURN_NOT_OK(full);
  return result;
}

void ExpectSameStatus(const Status& got, const Status& want,
                      const std::string& what) {
  EXPECT_EQ(got.code(), want.code()) << what << ": " << got << " vs " << want;
  EXPECT_EQ(got.message(), want.message()) << what;
}

class ConsistencyCheckProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConsistencyCheckProperty, VerdictsMatchTheFullCheck) {
  const unsigned seed = GetParam();
  std::mt19937 rng(seed * 2654435761u + 13);
  Scenario sc = MakeScenario(seed, &rng);
  SCOPED_TRACE(StrCat("seed ", seed, "\n", sc.persistent, sc.update));
  auto created = Database::Create(StrCat(kCampusSchema, sc.persistent));
  ASSERT_TRUE(created.ok()) << created.status();
  Database db = std::move(created).value();
  std::vector<Oid> people;
  for (int i = 0; i < 6; ++i) {
    auto oid = rng() % 3 == 0
                   ? db.InsertObject("STUDENT",
                                     Value::MakeTuple({{"name", Value::Int(i % 4)},
                                                       {"year", Value::Int(rng() % 4)}}))
                   : db.InsertObject("PERSON", Named(i % 4));
    ASSERT_TRUE(oid.ok()) << oid.status();
    people.push_back(*oid);
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.InsertTuple("PARENT", ParentOf(people[rng() % 6],
                                                  people[rng() % 6]))
                    .ok());
    ASSERT_TRUE(db.InsertTuple("P0", Value::MakeTuple(
                                         {{"a", Value::Int(rng() % 4)},
                                          {"b", Value::Int(rng() % 4)}}))
                    .ok());
  }
  auto add_dangling = [&] {
    ASSERT_TRUE(db.InsertTuple("PARENT", ParentOf(people[rng() % 6],
                                                  Oid{1000 + seed}))
                    .ok());
  };
  auto goal = ParseGoal(sc.goal);
  ASSERT_TRUE(goal.ok()) << goal.status();
  auto materialize_and_query = [&](const std::string& when) {
    OidGenerator gen = *db.oid_generator();
    auto whole = ReferenceRun(db, db.rules(), db.edb(), &gen);
    ExpectSameStatus(db.Materialize(Options()).status(), whole.status(),
                     "materialize " + when);
    ExpectSameStatus(db.Query(*goal, Options()).status(),
                     ReferenceQuery(db, *goal, *db.oid_generator()),
                     "query " + when);
  };

  if (sc.dangling_at == 1) add_dangling();
  materialize_and_query("first");
  if (sc.dangling_at == 2) add_dangling();
  materialize_and_query("second");

  // A RIDV update: E1 = the update rules over E, then the persistent rules
  // over E1 must be consistent too.
  auto parsed = Parse(sc.update);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  OidGenerator gen = *db.oid_generator();
  Status want;
  std::optional<Instance> e1;
  {
    auto run = ReferenceRun(db, parsed->rules, db.edb(), &gen);
    want = run.status();
    if (run.ok()) {
      e1 = std::move(run).value();
      want = ReferenceRun(db, db.rules(), *e1, &gen).status();
    }
  }
  const Instance before = db.edb();
  auto applied = db.ApplySource(sc.update, ApplicationMode::kRIDV, Options());
  ExpectSameStatus(applied.status(), want, "update");
  EXPECT_TRUE(db.edb() == (applied.ok() ? *e1 : before));
  materialize_and_query("after the update");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyCheckProperty,
                         ::testing::Range(0u, 64u));

}  // namespace
}  // namespace logres
