// Tests for database state serialization: value syntax, schema
// round-tripping, and full dump/load equality.

#include <gtest/gtest.h>

#include "algres/relation.h"
#include "core/database.h"
#include "core/dump.h"
#include "core/module.h"
#include "core/parser.h"

namespace logres {
namespace {

TEST(ValueSyntaxTest, ScalarRoundTrip) {
  std::vector<Value> values = {
      Value::Nil(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(42),
      Value::Int(-7),
      Value::Real(2.5),
      Value::String("hello \"world\""),
      Value::MakeOid(Oid{9}),
  };
  for (const Value& v : values) {
    auto parsed = ParseValue(ValueToSource(v));
    ASSERT_TRUE(parsed.ok()) << ValueToSource(v) << ": "
                             << parsed.status();
    EXPECT_EQ(*parsed, v) << ValueToSource(v);
  }
}

TEST(ValueSyntaxTest, CompositeRoundTrip) {
  Value nested = Value::MakeTuple(
      {{"who", Value::MakeOid(Oid{3})},
       {"tags", Value::MakeSet({Value::Int(1), Value::Int(2)})},
       {"history", Value::MakeSequence(
           {Value::MakeTuple({{"at", Value::String("t1")}}),
            Value::MakeTuple({{"at", Value::String("t2")}})})},
       {"bag", Value::MakeMultiset({Value::Int(1), Value::Int(1)})}});
  auto parsed = ParseValue(ValueToSource(nested));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, nested);
}

TEST(ValueSyntaxTest, Errors) {
  EXPECT_FALSE(ParseValue("oid(x)").ok());
  EXPECT_FALSE(ParseValue("(unlabeled)").ok());
  EXPECT_FALSE(ParseValue("1 2").ok());
  EXPECT_FALSE(ParseValue("{1,").ok());
}

TEST(SchemaSourceTest, RoundTripsThroughParser) {
  auto unit = Parse(R"(
    domains
      NAME = string;
      SCORE = (home: integer, guest: integer);
    classes
      PERSON = (name: NAME);
      STUDENT = (PERSON, school: NAME);
      STUDENT isa PERSON;
    associations
      LIKES = (who: PERSON, what: NAME);
  )");
  ASSERT_TRUE(unit.ok());
  std::string source = SchemaToSource(unit->schema);
  auto reparsed = Parse(source);
  ASSERT_TRUE(reparsed.ok()) << source << "\n" << reparsed.status();
  EXPECT_TRUE(reparsed->schema.Validate().ok());
  EXPECT_TRUE(reparsed->schema.IsClass("STUDENT"));
  EXPECT_TRUE(reparsed->schema.IsaReachable("STUDENT", "PERSON"));
  EXPECT_EQ(reparsed->schema.TypeOf("SCORE").value(),
            unit->schema.TypeOf("SCORE").value());
  // Idempotent: dumping the reparsed schema gives the same text.
  EXPECT_EQ(SchemaToSource(reparsed->schema), source);
}

Database PopulatedDb() {
  auto db_result = Database::Create(R"(
    classes
      PERSON = (name: string, spouse: PERSON);
      STUDENT = (PERSON, school: string);
      STUDENT isa PERSON;
    associations
      LIKES = (who: PERSON, what: string);
    functions
      FRIENDS: PERSON -> {PERSON};
    rules
      likes(who: X, what: "logres") <- student(self X).
  )");
  Database db = std::move(db_result).value();
  Oid ann = db.InsertObject("PERSON", Value::MakeTuple(
      {{"name", Value::String("ann")}, {"spouse", Value::Nil()}})).value();
  Oid bob = db.InsertObject("STUDENT", Value::MakeTuple(
      {{"name", Value::String("bob")},
       {"spouse", Value::MakeOid(ann)},
       {"school", Value::String("polimi")}})).value();
  db.mutable_edb()->InsertTuple("LIKES", Value::MakeTuple(
      {{"who", Value::MakeOid(bob)}, {"what", Value::String("jazz")}}));
  return db;
}

TEST(DumpTest, FullRoundTrip) {
  Database db = PopulatedDb();
  std::string dump = DumpDatabase(db);
  auto loaded = LoadDatabase(dump);
  ASSERT_TRUE(loaded.ok()) << dump << "\n" << loaded.status();
  // State components are preserved exactly.
  EXPECT_TRUE(loaded->edb() == db.edb());
  EXPECT_EQ(loaded->rules().size(), db.rules().size());
  EXPECT_EQ(loaded->functions().size(), db.functions().size());
  EXPECT_EQ(loaded->oids_issued(), db.oids_issued());
  EXPECT_EQ(SchemaToSource(loaded->schema()), SchemaToSource(db.schema()));
}

TEST(DumpTest, DumpIsCanonicalUnderInsertionOrder) {
  // Relation/instance storage is insertion-ordered with hash buckets, but
  // every dump surface iterates in canonical sorted order — the same data
  // inserted in any order must produce byte-identical text.
  auto make = [](bool reversed) {
    auto db_result = Database::Create(
        "associations E = (a: integer, b: integer);");
    Database db = std::move(db_result).value();
    for (int i = 0; i < 12; ++i) {
      int v = reversed ? 11 - i : i;
      db.mutable_edb()->InsertTuple(
          "E", Value::MakeTuple({{"a", Value::Int(v % 5)},
                                 {"b", Value::Int(v)}}));
    }
    return db;
  };
  Database forward = make(false);
  Database backward = make(true);
  EXPECT_EQ(DumpDatabase(forward), DumpDatabase(backward));
  EXPECT_EQ(forward.edb().ToString(), backward.edb().ToString());

  // The same canonical-order contract holds for algres relations: rows
  // come back sorted no matter how they went in.
  algres::Relation fwd({"a"}), bwd({"a"});
  for (int i = 0; i < 10; ++i) {
    (void)fwd.Insert({Value::Int(i)});
    (void)bwd.Insert({Value::Int(9 - i)});
  }
  EXPECT_EQ(fwd.ToString(), bwd.ToString());
  auto canon = fwd.CanonicalRows();
  for (size_t i = 1; i < canon.size(); ++i) {
    EXPECT_TRUE(*canon[i - 1] < *canon[i]);
  }
}

TEST(DumpTest, LoadedDatabaseEvaluates) {
  Database db = PopulatedDb();
  auto loaded = LoadDatabase(DumpDatabase(db));
  ASSERT_TRUE(loaded.ok());
  // The persistent rule still derives: bob (a student) likes logres.
  auto inst = loaded->Materialize();
  ASSERT_TRUE(inst.ok()) << inst.status();
  EXPECT_EQ(inst->TuplesOf("LIKES").size(), 2u);
}

TEST(DumpTest, InventedOidsDoNotCollideAfterLoad) {
  Database db = PopulatedDb();
  auto loaded = LoadDatabase(DumpDatabase(db));
  ASSERT_TRUE(loaded.ok());
  // Invent new objects; their oids must not collide with loaded ones.
  auto apply = loaded->ApplySource(
      "rules person(self P, name: \"carl\", spouse: X) <- "
      "person(self X, name: \"ann\").",
      ApplicationMode::kRIDV);
  ASSERT_TRUE(apply.ok()) << apply.status();
  EXPECT_EQ(loaded->edb().OidsOf("PERSON").size(), 3u);
}

TEST(DumpTest, MembershipLinesPreserveSharedOids) {
  Database db = PopulatedDb();
  std::string dump = DumpDatabase(db);
  // bob's oid appears for both PERSON and STUDENT.
  auto loaded = LoadDatabase(dump);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->edb().OidsOf("PERSON").size(), 2u);
  EXPECT_EQ(loaded->edb().OidsOf("STUDENT").size(), 1u);
  Oid student = *loaded->edb().OidsOf("STUDENT").begin();
  EXPECT_TRUE(loaded->edb().HasObject("PERSON", student));
}

TEST(DumpTest, EmptyDatabaseRoundTrips) {
  auto db = Database::Create("associations P = (x: integer);");
  std::string dump = DumpDatabase(*db);
  auto loaded = LoadDatabase(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->edb() == db->edb());
}

// The host API accepts references to oids the generator has not issued
// (dangling, so queries reject the state); such a state still
// round-trips, tuples and o-values alike.
TEST(DumpTest, HostOidsAboveTheGeneratorRoundTrip) {
  auto db = Database::Create(R"(
    classes PERSON = (name: string, spouse: PERSON);
    associations PARENT = (par: PERSON, chi: PERSON);
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  auto ann = db->InsertObject(
      "PERSON", Value::MakeTuple({{"name", Value::String("ann")},
                                  {"spouse", Value::MakeOid(Oid{500})}}));
  ASSERT_TRUE(ann.ok()) << ann.status();
  ASSERT_TRUE(db->InsertTuple(
                    "PARENT",
                    Value::MakeTuple({{"par", Value::MakeOid(*ann)},
                                      {"chi", Value::MakeOid(Oid{999})}}))
                  .ok());
  EXPECT_EQ(db->oids_issued(), 999u);
  std::string dump = DumpDatabase(*db);
  auto loaded = LoadDatabase(dump);
  ASSERT_TRUE(loaded.ok()) << dump << "\n" << loaded.status();
  EXPECT_EQ(DumpDatabase(*loaded), dump);
}

TEST(DumpTest, MalformedDumpsRejected) {
  EXPECT_FALSE(LoadDatabase("objects\n  GHOST 1 = nil;\n").ok());
  EXPECT_FALSE(LoadDatabase("generator x;\n").ok());
  EXPECT_FALSE(LoadDatabase("tuples\n  1 2 3\n").ok());
}

// ---------------------------------------------------------------------------
// Dump format v2: `module` blocks make the registry durable.

const char* kSourceWithModules = R"(
  classes PERSON = (name: string);
  associations
    SEED = (name: string);
    KNOWS = (a: string, b: string);
  module grow options RIDV semantics stratified
    rules
      seed(name: "zoe").
      person(self P, name: N) <- seed(name: N).
  end
  module link options RIDV
    rules
      knows(a: "ann", b: "bob").
  end
)";

TEST(DumpTest, V2HeaderAndModuleBlocksAreEmitted) {
  auto db = Database::Create(kSourceWithModules);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string dump = DumpDatabase(*db);
  EXPECT_EQ(dump.rfind("-- logres dump v2", 0), 0u) << dump;
  EXPECT_NE(dump.find("module grow options RIDV"), std::string::npos);
  EXPECT_NE(dump.find("module link"), std::string::npos);
}

TEST(DumpTest, RegisteredModulesRoundTripThroughDumpLoad) {
  auto db = Database::Create(kSourceWithModules);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->ApplyByName("grow").ok());

  auto loaded = LoadDatabase(DumpDatabase(*db));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->registered_modules().size(), 2u);
  EXPECT_EQ(loaded->registered_modules()[0].name, "grow");
  EXPECT_EQ(loaded->registered_modules()[0].default_mode,
            ApplicationMode::kRIDV);
  EXPECT_EQ(loaded->registered_modules()[1].name, "link");
  EXPECT_EQ(DumpDatabase(*loaded), DumpDatabase(*db));

  // The reloaded registry still drives applications; "grow" is
  // idempotent on its own output (the seed is already present), "link"
  // adds its tuple.
  ASSERT_TRUE(loaded->ApplyByName("link").ok());
  EXPECT_NE(DumpDatabase(*loaded), DumpDatabase(*db));
}

TEST(DumpTest, ModuleToSourceReparsesAsTheSameModule) {
  auto db = Database::Create(kSourceWithModules);
  ASSERT_TRUE(db.ok()) << db.status();
  for (const Module& m : db->registered_modules()) {
    std::string src = ModuleToSource(m);
    auto reparsed = Module::Parse(src);
    ASSERT_TRUE(reparsed.ok()) << src << "\n" << reparsed.status();
    EXPECT_EQ(ModuleToSource(*reparsed), src);
  }
}

TEST(DumpTest, V1DumpsWithoutModulesStillLoad) {
  auto db = Database::Create(R"(
    associations KNOWS = (a: string, b: string);
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  std::string dump = DumpDatabase(*db);
  // Strip the version header comment; a v1 dump never had one.
  size_t eol = dump.find('\n');
  ASSERT_NE(eol, std::string::npos);
  std::string v1 = dump.substr(eol + 1);
  auto loaded = LoadDatabase(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->registered_modules().empty());
}

}  // namespace
}  // namespace logres
