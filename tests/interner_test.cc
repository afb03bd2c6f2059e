// Unit tests for the hash-consed value interner (algres/interner.h):
// canonicalization, the pinned small-int cache, the plain-allocation off
// mode and mixed-mode comparisons, real exclusion, refcounted release
// returning memory, shard determinism under concurrent construction, and
// the canonical invariant across undo-log rollback. The ParallelDeterminism
// fixtures check that every engine's fixpoint dumps byte-identically with
// interning on and off, and when separate Databases evaluate on separate
// threads at once through the shared table. The randomized dump battery
// lives in random_program_test.

#include "algres/interner.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algres/value.h"
#include "core/algres_backend.h"
#include "core/database.h"
#include "core/dump.h"
#include "core/instance.h"
#include "core/parser.h"
#include "core/typecheck.h"
#include "core/undo_log.h"
#include "datalog/datalog.h"
#include "util/string_util.h"

namespace logres {
namespace {

TEST(Interner, CanonicalizationSharesOneNodePerValue) {
  ScopedInternValues on(true);
  Value s1 = Value::String("interner-canon");
  Value s2 = Value::String("interner-canon");
  EXPECT_TRUE(s1.SameRep(s2));
  EXPECT_TRUE(s1.is_interned());

  // Composites hash-cons bottom-up: equal trees are one node at every
  // level.
  auto make = [] {
    return Value::MakeTuple(
        {{"k", Value::String("interner-canon")},
         {"v", Value::MakeSet({Value::Int(1000001), Value::Int(1000002)})}});
  };
  Value t1 = make();
  Value t2 = make();
  EXPECT_TRUE(t1.SameRep(t2));
  EXPECT_TRUE(t1.is_interned());
  EXPECT_TRUE(t1.tuple_fields()[1].second.SameRep(
      t2.tuple_fields()[1].second));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1.Compare(t2), 0);

  // Distinct values stay distinct.
  EXPECT_FALSE(s1.SameRep(Value::String("interner-other")));
  EXPECT_NE(s1, Value::String("interner-other"));
}

TEST(Interner, SmallIntCacheIsPinned) {
  ScopedInternValues on(true);
  EXPECT_TRUE(Value::Int(0).SameRep(Value::Int(0)));
  EXPECT_TRUE(Value::Int(-128).SameRep(Value::Int(-128)));
  EXPECT_TRUE(Value::Int(2047).SameRep(Value::Int(2047)));
  EXPECT_TRUE(Value::Int(0).is_interned());
  // Outside the cache the table still canonicalizes.
  EXPECT_TRUE(Value::Int(1 << 20).SameRep(Value::Int(1 << 20)));
}

TEST(Interner, OffModeAllocatesFreshRepsAndMixesCorrectly) {
  ScopedInternValues on(true);
  Value canonical = Value::String("interner-mixed");
  ASSERT_TRUE(canonical.is_interned());
  {
    ScopedInternValues off(false);
    EXPECT_FALSE(ValueInterner::enabled());
    Value plain = Value::String("interner-mixed");
    Value plain2 = Value::String("interner-mixed");
    EXPECT_FALSE(plain.is_interned());
    EXPECT_FALSE(plain.SameRep(plain2));
    // Equality and ordering are representation-blind: interned and plain
    // nodes compare by structure.
    EXPECT_EQ(plain, plain2);
    EXPECT_EQ(plain, canonical);
    EXPECT_EQ(canonical.Compare(plain), 0);
    EXPECT_EQ(plain.Hash(), canonical.Hash());
  }
  EXPECT_TRUE(ValueInterner::enabled());  // RAII restored
}

TEST(Interner, RealContainingValuesAreNeverInterned) {
  ScopedInternValues on(true);
  Value r1 = Value::Real(1.5);
  Value r2 = Value::Real(1.5);
  EXPECT_FALSE(r1.is_interned());
  EXPECT_FALSE(r1.SameRep(r2));
  EXPECT_EQ(r1, r2);
  // ...nor is any composite containing a real anywhere.
  Value t = Value::MakeTuple({{"x", Value::Real(2.5)}});
  EXPECT_FALSE(t.is_interned());
  Value nested = Value::MakeSet({Value::Int(1), t});
  EXPECT_FALSE(nested.is_interned());
  // The 0.0 / -0.0 printing distinction survives (they compare equal, so
  // sharing a node would corrupt one of the two renderings).
  EXPECT_EQ(Value::Real(0.0).ToString(), "0");
  EXPECT_EQ(Value::Real(-0.0).ToString(), "-0");
  EXPECT_EQ(Value::Real(0.0).Compare(Value::Real(-0.0)), 0);
}

TEST(Interner, ReleaseReturnsMemory) {
  ScopedInternValues on(true);
  ValueInternerStats before = ValueInterner::stats();
  constexpr int kValues = 100;
  {
    std::vector<Value> held;
    for (int i = 0; i < kValues; ++i) {
      held.push_back(Value::String(StrCat("interner-release-", i)));
    }
    ValueInternerStats during = ValueInterner::stats();
    EXPECT_EQ(during.live_nodes, before.live_nodes + kValues);
    EXPECT_GT(during.resident_bytes, before.resident_bytes);
    // A re-construction while held is a hit, not a new node.
    Value again = Value::String("interner-release-0");
    EXPECT_TRUE(again.SameRep(held[0]));
    EXPECT_EQ(ValueInterner::stats().live_nodes,
              before.live_nodes + kValues);
  }
  // Last references died: the deleter unlinked the nodes and returned
  // the memory.
  ValueInternerStats after = ValueInterner::stats();
  EXPECT_EQ(after.live_nodes, before.live_nodes);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  EXPECT_EQ(after.released, before.released + kValues);
}

TEST(Interner, ShardDeterminismUnderConcurrentConstruction) {
  ScopedInternValues on(true);
  constexpr int kThreads = 4;
  constexpr int kValues = 500;
  // Each worker builds the same value set concurrently; whoever loses the
  // insert race must adopt the winner's canonical node.
  std::vector<std::vector<Value>> built(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&built, w] {
      built[w].reserve(kValues);
      for (int i = 0; i < kValues; ++i) {
        built[w].push_back(Value::MakeTuple(
            {{"a", Value::String(StrCat("interner-shard-", i))},
             {"b", Value::Int(1'000'000 + i)}}));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 1; w < kThreads; ++w) {
    for (int i = 0; i < kValues; ++i) {
      ASSERT_TRUE(built[0][i].SameRep(built[w][i]))
          << "worker " << w << " value " << i;
      ASSERT_TRUE(built[w][i].is_interned());
    }
  }
}

TEST(Interner, RollbackOverUndoLogKeepsCanonicalInvariant) {
  ScopedInternValues on(true);
  Instance inst;
  Value t = Value::MakeTuple({{"a", Value::String("interner-undo")},
                              {"b", Value::Int(1 << 21)}});
  ASSERT_TRUE(inst.InsertTuple("A", t));

  // Erase under an undo log, then roll back: the pre-image record holds
  // the canonical handle, so the restored tuple is the *same node*, not
  // a resurrected duplicate.
  UndoLog log;
  ASSERT_TRUE(inst.EraseTuple("A", t, &log));
  EXPECT_TRUE(inst.TuplesOf("A").empty());
  inst.RollbackTo(&log, 0);
  ASSERT_EQ(inst.TuplesOf("A").size(), 1u);
  EXPECT_TRUE(inst.TuplesOf("A").begin()->SameRep(t));
  EXPECT_TRUE(inst.TuplesOf("A").begin()->is_interned());

  // Same invariant for o-value overwrite pre-images.
  auto sdb = Database::Create("classes C = (n: string);");
  ASSERT_TRUE(sdb.ok()) << sdb.status();
  OidGenerator gen;
  Value ov1 = Value::MakeTuple({{"n", Value::String("interner-ov-1")}});
  Value ov2 = Value::MakeTuple({{"n", Value::String("interner-ov-2")}});
  auto oid = inst.CreateObject(sdb->schema(), "C", ov1, &gen);
  ASSERT_TRUE(oid.ok()) << oid.status();
  UndoLog ovlog;
  ASSERT_TRUE(inst.SetOValue(*oid, ov2, &ovlog).ok());
  inst.RollbackTo(&ovlog, 0);
  auto restored = inst.OValue(*oid);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->SameRep(ov1));
  EXPECT_TRUE(restored->is_interned());
}

TEST(Interner, EvalStatsSurfaceInternerCounters) {
  auto db_result = Database::Create(
      "associations E = (a: integer, b: integer);"
      "             TC = (a: integer, b: integer);");
  ASSERT_TRUE(db_result.ok()) << db_result.status();
  Database db = std::move(db_result).value();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db.InsertTuple("E", Value::MakeTuple(
        {{"a", Value::Int(i)}, {"b", Value::Int(i + 1)}})).ok());
  }
  const std::string module =
      "rules tc(a: X, b: Y) <- e(a: X, b: Y)."
      "      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).";

  EvalOptions on;
  on.intern_values = true;
  auto applied = db.ApplySource(module, ApplicationMode::kRIDV, on);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_GT(applied->stats.interner_nodes, 0u);
  EXPECT_GT(applied->stats.interner_hits, 0u);
  EXPECT_GT(applied->stats.interner_bytes, 0u);

  // Off: the counters stay zero (the plain path never touches the table).
  auto db2_result = Database::Create(
      "associations E = (a: integer, b: integer);"
      "             TC = (a: integer, b: integer);");
  ASSERT_TRUE(db2_result.ok());
  Database db2 = std::move(db2_result).value();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db2.InsertTuple("E", Value::MakeTuple(
        {{"a", Value::Int(i)}, {"b", Value::Int(i + 1)}})).ok());
  }
  EvalOptions off;
  off.intern_values = false;
  auto applied_off = db2.ApplySource(module, ApplicationMode::kRIDV, off);
  ASSERT_TRUE(applied_off.ok()) << applied_off.status();
  EXPECT_EQ(applied_off->stats.interner_nodes, 0u);
  EXPECT_EQ(applied_off->stats.interner_hits, 0u);
  EXPECT_EQ(applied_off->stats.interner_bytes, 0u);
}

// ---- Determinism across interning and concurrent databases -----------------
//
// Each engine has one step loop, whose Δ order is the serial
// rule-then-valuation order; the fixpoint (invented oids, the
// non-commutative o-value composition, head deletions included) must not
// depend on how values are allocated. Each fixture runs serially with
// interning on (the reference), serially with interning off, and on two
// threads at once, each thread owning its Database while both intern into
// the one process-wide table — the threading contract (DESIGN.md §9). All
// dumps must be byte-identical.

// Runs `run` on two threads at once and returns both outputs.
std::array<std::string, 2> RunConcurrently(
    const std::function<std::string()>& run) {
  std::array<std::string, 2> out;
  std::thread first([&] { out[0] = run(); });
  std::thread second([&] { out[1] = run(); });
  first.join();
  second.join();
  return out;
}

// Applies `module` to a fresh database built from `schema` + `populate`,
// expecting success, and returns the canonical dump.
std::string ApplyAndDump(const std::string& schema,
                         const std::function<void(Database*)>& populate,
                         const std::string& module, EvalMode mode,
                         bool intern_values) {
  auto db_result = Database::Create(schema);
  EXPECT_TRUE(db_result.ok()) << db_result.status();
  if (!db_result.ok()) return {};
  Database db = std::move(db_result).value();
  populate(&db);
  EvalOptions options;
  options.mode = mode;
  options.intern_values = intern_values;
  auto apply = db.ApplySource(module, ApplicationMode::kRIDV, options);
  EXPECT_TRUE(apply.ok()) << apply.status() << " (intern=" << intern_values
                          << ")";
  return DumpDatabase(db);
}

void ExpectDeterministic(const std::string& schema,
                         const std::function<void(Database*)>& populate,
                         const std::string& module,
                         EvalMode mode = EvalMode::kStratified) {
  std::string reference = ApplyAndDump(schema, populate, module, mode, true);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, ApplyAndDump(schema, populate, module, mode, false))
      << "intern=0";
  for (const std::string& dump : RunConcurrently([&] {
         return ApplyAndDump(schema, populate, module, mode, true);
       })) {
    EXPECT_EQ(reference, dump) << "concurrent";
  }
}

Value T2(int64_t a, int64_t b) {
  return Value::MakeTuple({{"a", Value::Int(a)}, {"b", Value::Int(b)}});
}

void PopulateChain(Database* db, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(db->InsertTuple("E", T2(i, i + 1)).ok());
  }
}

void PopulateX(Database* db, const std::string& assoc, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        db->InsertTuple(assoc, Value::MakeTuple({{"x", Value::Int(i)}})).ok());
  }
}

constexpr const char* kChainSchema =
    "associations E = (a: integer, b: integer);"
    "             TC = (a: integer, b: integer);";
constexpr const char* kChainRules =
    "rules tc(a: X, b: Y) <- e(a: X, b: Y)."
    "      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).";

TEST(ParallelDeterminism, ChainTransitiveClosure) {
  ExpectDeterministic(
      kChainSchema, [](Database* db) { PopulateChain(db, 24); }, kChainRules);
}

TEST(ParallelDeterminism, InventedOidsAcrossSteps) {
  // Invented oids are drawn from the database's own generator in firing
  // order, so the oid *numbers* in the dump must match the reference
  // exactly. The counter rule invents a fresh object per step; the
  // per-fact rule invents many within one step.
  ExpectDeterministic(
      "classes OBJ = (x: integer); NODE = (x: integer);"
      "associations S = (x: integer);",
      [](Database* db) { PopulateX(db, "S", 12); },
      "rules obj(self O, x: X) <- s(x: X)."
      "      node(self N, x: 0) <- s(x: 0)."
      "      node(self N, x: Y) <- node(self M, x: X), Y = X + 1, X < 8.");
}

TEST(ParallelDeterminism, HeadDeletionsAndOValueRewrites) {
  // Head negation produces Δ− facts and o-value rewrites ride on the
  // non-commutative composition.
  ExpectDeterministic(
      "associations P = (x: integer); S = (x: integer);",
      [](Database* db) {
        PopulateX(db, "S", 6);
        PopulateX(db, "P", 6);
      },
      "rules p(x: Y) <- s(x: X), Y = X + 10."
      "      not p(x: X) <- s(x: X), X > 2.");
}

TEST(ParallelDeterminism, StratifiedNegation) {
  ExpectDeterministic(
      "associations E = (a: integer, b: integer);"
      "             TC = (a: integer, b: integer);"
      "             GAP = (a: integer, b: integer);",
      [](Database* db) { PopulateChain(db, 12); },
      "rules tc(a: X, b: Y) <- e(a: X, b: Y)."
      "      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z)."
      "      gap(a: X, b: Y) <- e(a: X, b: X1), e(a: Y1, b: Y),"
      "                         not tc(a: X, b: Y).");
}

TEST(ParallelDeterminism, NonInflationaryMode) {
  ExpectDeterministic(
      "associations P = (x: integer); Q = (x: integer);",
      [](Database* db) { PopulateX(db, "P", 8); },
      "rules q(x: Y) <- p(x: X), Y = X * 2.", EvalMode::kNonInflationary);
}

TEST(ParallelDeterminism, AlgresBackendSweep) {
  // Each run owns its Database and compiled backend.
  auto run = [](bool intern_values) -> std::string {
    auto db = Database::Create(kChainSchema);
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) return {};
    PopulateChain(&*db, 40);
    auto unit = Parse(kChainRules);
    EXPECT_TRUE(unit.ok()) << unit.status();
    if (!unit.ok()) return {};
    auto program = Typecheck(db->schema(), {}, unit->rules);
    EXPECT_TRUE(program.ok()) << program.status();
    if (!program.ok()) return {};
    auto backend = AlgresBackend::Compile(db->schema(), *program);
    EXPECT_TRUE(backend.ok()) << backend.status();
    if (!backend.ok()) return {};
    auto out = backend->Run(db->edb(), AlgresStrategy::kSemiNaive, Budget{},
                            intern_values);
    EXPECT_TRUE(out.ok()) << out.status();
    return out.ok() ? out->ToString() : std::string();
  };
  std::string reference = run(true);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, run(false)) << "intern=0";
  for (const std::string& dump : RunConcurrently([&] { return run(true); })) {
    EXPECT_EQ(reference, dump) << "concurrent";
  }
}

TEST(ParallelDeterminism, DatalogEngineSweep) {
  // Each run owns its Program (the flat engine does not intern).
  auto run = []() -> std::string {
    datalog::Program program;
    for (int i = 0; i < 48; ++i) {
      EXPECT_TRUE(program
                      .AddFact("e", {datalog::Constant::Int(i),
                                     datalog::Constant::Int(i + 1)})
                      .ok());
    }
    using datalog::Literal;
    using datalog::Term;
    EXPECT_TRUE(program
                    .AddRule(datalog::Rule{
                        Literal{"tc", {Term::Var("X"), Term::Var("Y")}, false},
                        {Literal{"e", {Term::Var("X"), Term::Var("Y")},
                                 false}}})
                    .ok());
    EXPECT_TRUE(
        program
            .AddRule(datalog::Rule{
                Literal{"tc", {Term::Var("X"), Term::Var("Z")}, false},
                {Literal{"tc", {Term::Var("X"), Term::Var("Y")}, false},
                 Literal{"e", {Term::Var("Y"), Term::Var("Z")}, false}}})
            .ok());
    auto out = datalog::Evaluate(program);
    EXPECT_TRUE(out.ok()) << out.status();
    if (!out.ok()) return {};
    std::string dump;
    for (const auto& [pred, facts] : *out) {
      for (const datalog::Fact& fact : facts) {
        dump += pred;
        for (const datalog::Constant& c : fact) {
          dump += ' ';
          dump += std::to_string(c.int_value());
        }
        dump += '\n';
      }
    }
    return dump;
  };
  std::string reference = run();
  ASSERT_FALSE(reference.empty());
  for (const std::string& dump : RunConcurrently(run)) {
    EXPECT_EQ(reference, dump) << "concurrent";
  }
}

}  // namespace
}  // namespace logres
