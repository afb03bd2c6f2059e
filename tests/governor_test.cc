// Unit tests for the execution governor (util/governor.h) and the
// failpoint facility (util/failpoint.h), plus the ALGRES backend's use of
// the shared Budget.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/algres_backend.h"
#include "core/database.h"
#include "core/dump.h"
#include "core/eval.h"
#include "core/parser.h"
#include "core/typecheck.h"
#include "datalog/datalog.h"
#include "util/failpoint.h"
#include "util/governor.h"

namespace logres {
namespace {

// ---------------------------------------------------------------------------
// ResourceGovernor

TEST(ResourceGovernorTest, StepBudgetReportsDivergence) {
  Budget budget;
  budget.max_steps = 3;
  ResourceGovernor governor(budget);
  EXPECT_TRUE(governor.CheckStep().ok());
  EXPECT_TRUE(governor.CheckStep().ok());
  EXPECT_TRUE(governor.CheckStep().ok());
  Status st = governor.CheckStep();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDivergence);
  EXPECT_EQ(governor.steps_used(), 3u);
}

TEST(ResourceGovernorTest, ZeroMaxStepsIsUnlimited) {
  Budget budget;
  budget.max_steps = 0;
  ResourceGovernor governor(budget);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(governor.CheckStep().ok());
  }
}

TEST(ResourceGovernorTest, ZeroTimeoutExpiresImmediately) {
  Budget budget;
  budget.timeout = std::chrono::milliseconds(0);
  ResourceGovernor governor(budget);
  Status st = governor.CheckStep();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.steps_used(), 0u);  // exhausted before any step
}

TEST(ResourceGovernorTest, DeadlineExpiresAfterElapsing) {
  Budget budget;
  budget.timeout = std::chrono::milliseconds(20);
  ResourceGovernor governor(budget);
  EXPECT_TRUE(governor.CheckStep().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(governor.CheckStep().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGovernorTest, CancellationBeatsEverything) {
  CancellationSource source;
  Budget budget;
  budget.timeout = std::chrono::milliseconds(0);  // also expired
  budget.cancel = source.token();
  source.Cancel();
  ResourceGovernor governor(budget);
  EXPECT_EQ(governor.CheckStep().code(), StatusCode::kCancelled);
  EXPECT_EQ(governor.CheckInterrupt().code(), StatusCode::kCancelled);
}

TEST(ResourceGovernorTest, FactBudget) {
  Budget budget;
  budget.max_facts = 100;
  ResourceGovernor governor(budget);
  EXPECT_TRUE(governor.CheckFacts(100).ok());
  EXPECT_EQ(governor.CheckFacts(101).code(),
            StatusCode::kResourceExhausted);
  // 0 = unlimited.
  ResourceGovernor unlimited(Budget{});
  EXPECT_TRUE(unlimited.CheckFacts(1u << 30).ok());
}

TEST(ResourceGovernorTest, ByteBudget) {
  Budget budget;
  budget.max_bytes = 4096;
  ResourceGovernor governor(budget);
  EXPECT_TRUE(governor.wants_bytes());
  EXPECT_TRUE(governor.CheckBytes(4096).ok());
  Status st = governor.CheckBytes(4097);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // 0 = unlimited, and the engines skip the byte walk entirely.
  ResourceGovernor unlimited(Budget{});
  EXPECT_FALSE(unlimited.wants_bytes());
  EXPECT_TRUE(unlimited.CheckBytes(1u << 30).ok());
}

TEST(CancellationTest, TokenSharesFlagAcrossCopies) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;
  EXPECT_FALSE(a.cancelled());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  source.Reset();
  EXPECT_FALSE(b.cancelled());
  // A default token never cancels.
  EXPECT_FALSE(CancellationToken{}.cancelled());
}

// ---------------------------------------------------------------------------
// Failpoints

TEST(FailpointTest, DisarmedIsFree) {
  failpoints::ClearAll();
  EXPECT_FALSE(failpoints::AnyArmed());
  EXPECT_TRUE(failpoints::Check("nope").ok());
  EXPECT_EQ(failpoints::HitCount("nope"), 0u);
}

TEST(FailpointTest, ArmCheckDisarm) {
  failpoints::Arm("t.site", Status::ExecutionError("boom"));
  EXPECT_TRUE(failpoints::AnyArmed());
  EXPECT_EQ(failpoints::Check("t.site").code(),
            StatusCode::kExecutionError);
  EXPECT_EQ(failpoints::Check("other").code(), StatusCode::kOk);
  EXPECT_EQ(failpoints::HitCount("t.site"), 1u);
  failpoints::Disarm("t.site");
  EXPECT_FALSE(failpoints::AnyArmed());
  EXPECT_TRUE(failpoints::Check("t.site").ok());
}

TEST(FailpointTest, SkipHitsDelayTheFault) {
  ScopedFailpoint fp("t.skip", Status::ExecutionError("boom"),
                     /*skip_hits=*/2);
  EXPECT_TRUE(failpoints::Check("t.skip").ok());
  EXPECT_TRUE(failpoints::Check("t.skip").ok());
  EXPECT_FALSE(failpoints::Check("t.skip").ok());
  EXPECT_FALSE(failpoints::Check("t.skip").ok());  // and stays armed
  EXPECT_EQ(fp.hit_count(), 4u);
}

TEST(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint fp("t.scoped", Status::ExecutionError("boom"));
    EXPECT_TRUE(failpoints::AnyArmed());
  }
  EXPECT_FALSE(failpoints::AnyArmed());
}

// ---------------------------------------------------------------------------
// The ALGRES backend honors the shared Budget.

// Compiles a transitive-closure program whose fixpoint takes several
// steps over a chain EDB.
struct ChainSetup {
  Database db;
  CheckedProgram program;
  Schema schema;
};

Result<ChainSetup> MakeChain(int n) {
  auto db = Database::Create(R"(
    associations
      EDGE = (src: integer, dst: integer);
      PATH = (src: integer, dst: integer);
  )");
  if (!db.ok()) return db.status();
  for (int i = 0; i < n; ++i) {
    LOGRES_RETURN_NOT_OK(db->InsertTuple(
        "EDGE", Value::MakeTuple({{"src", Value::Int(i)},
                                  {"dst", Value::Int(i + 1)}})));
  }
  LOGRES_ASSIGN_OR_RETURN(
      ParsedUnit unit,
      Parse("rules path(src: X, dst: Y) <- edge(src: X, dst: Y)."
            "      path(src: X, dst: Z) <- path(src: X, dst: Y),"
            "                              edge(src: Y, dst: Z)."));
  LOGRES_ASSIGN_OR_RETURN(
      CheckedProgram program,
      Typecheck(db->schema(), {}, unit.rules));
  Schema schema = db->schema();
  return ChainSetup{std::move(db).value(), std::move(program),
                    std::move(schema)};
}

TEST(AlgresBudgetTest, StepBudgetReportsDivergence) {
  auto setup = MakeChain(30);
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  Budget tight;
  tight.max_steps = 2;
  for (auto strategy :
       {AlgresStrategy::kNaive, AlgresStrategy::kSemiNaive}) {
    auto out = backend->Run(setup->db.edb(), strategy, tight);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kDivergence);
  }
  // The default budget converges.
  EXPECT_TRUE(backend->Run(setup->db.edb()).ok());
}

TEST(AlgresBudgetTest, ZeroDeadlineAndCancellation) {
  auto setup = MakeChain(10);
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok()) << backend.status();

  Budget deadline;
  deadline.timeout = std::chrono::milliseconds(0);
  auto timed_out = backend->Run(setup->db.edb(),
                                AlgresStrategy::kSemiNaive, deadline);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted);

  CancellationSource source;
  source.Cancel();
  Budget cancelled;
  cancelled.cancel = source.token();
  auto stopped = backend->Run(setup->db.edb(),
                              AlgresStrategy::kSemiNaive, cancelled);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);
}

TEST(AlgresBudgetTest, FactBudgetBoundsGrowth) {
  auto setup = MakeChain(40);
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  Budget small;
  small.max_facts = 60;  // closure of a 40-chain needs 820 path rows
  auto out = backend->Run(setup->db.edb(), AlgresStrategy::kSemiNaive,
                          small);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(AlgresBudgetTest, ByteBudgetBoundsGrowth) {
  auto setup = MakeChain(40);
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  Budget small;
  small.max_bytes = 512;  // the closure's rows alone dwarf this
  for (auto strategy :
       {AlgresStrategy::kNaive, AlgresStrategy::kSemiNaive}) {
    auto out = backend->Run(setup->db.edb(), strategy, small);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  }
  // A generous byte budget converges.
  Budget roomy;
  roomy.max_bytes = 64u << 20;
  EXPECT_TRUE(
      backend->Run(setup->db.edb(), AlgresStrategy::kSemiNaive, roomy).ok());
}

TEST(AlgresBudgetTest, StratumFailpointFires) {
  auto setup = MakeChain(5);
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  const Status boom = Status::ExecutionError("injected algres fault");
  {
    ScopedFailpoint fp("algres.step", boom, /*skip_hits=*/1);
    auto out = backend->Run(setup->db.edb());
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status(), boom);
  }
  EXPECT_TRUE(backend->Run(setup->db.edb()).ok());
}

// Both engines report the same divergence code for the same program under
// the same budget (the unified-default satellite).
TEST(AlgresBudgetTest, EnginesAgreeOnDivergenceCode) {
  auto setup = MakeChain(30);
  ASSERT_TRUE(setup.ok()) << setup.status();
  Budget tight;
  tight.max_steps = 2;

  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok());
  auto compiled = backend->Run(setup->db.edb(),
                               AlgresStrategy::kSemiNaive, tight);

  Evaluator evaluator(setup->schema, setup->program,
                      setup->db.oid_generator());
  EvalOptions options;
  options.budget = tight;
  auto direct = evaluator.Run(setup->db.edb(), options);

  ASSERT_FALSE(compiled.ok());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(compiled.status().code(), direct.status().code());
  EXPECT_EQ(compiled.status().code(), StatusCode::kDivergence);
}

// ---------------------------------------------------------------------------
// Resource accounting surfaced through ModuleResult::stats

TEST(EvalStatsTest, ApplySurfacesGovernorAccounting) {
  auto db = Database::Create("associations P = (x: integer);");
  ASSERT_TRUE(db.ok()) << db.status();
  auto result = db->ApplySource("rules p(x: 1). p(x: 2).",
                                ApplicationMode::kRIDV);
  ASSERT_TRUE(result.ok()) << result.status();
  // steps is the governor's steps_used() — the number charged against
  // Budget::max_steps; facts is what max_facts compares to.
  EXPECT_GE(result->stats.steps, 1u);
  EXPECT_EQ(result->stats.facts, 2u);
  EXPECT_GE(result->stats.elapsed_micros, 0);
  // One per-rule timing slot per rule of the applied program.
  EXPECT_EQ(result->stats.rule_micros.size(), 2u);
}

TEST(EvalStatsTest, ByteBudgetExhaustsAndStatsBytesGateOnTheBudget) {
  auto db = Database::Create("associations P = (x: integer);");
  ASSERT_TRUE(db.ok()) << db.status();

  // Without a byte budget, no byte walk happens and stats.bytes stays 0.
  auto free_run = db->ApplySource("rules p(x: 1). p(x: 2).",
                                  ApplicationMode::kRIDV);
  ASSERT_TRUE(free_run.ok()) << free_run.status();
  EXPECT_EQ(free_run->stats.bytes, 0u);

  // A generous budget converges and reports the footprint.
  EvalOptions roomy;
  roomy.budget.max_bytes = 64u << 20;
  auto sized = db->ApplySource("rules p(x: 3).", ApplicationMode::kRIDV,
                               roomy);
  ASSERT_TRUE(sized.ok()) << sized.status();
  EXPECT_GT(sized->stats.bytes, 0u);

  // A tiny one is exhausted by the instance itself.
  EvalOptions tiny;
  tiny.budget.max_bytes = 16;
  auto exhausted = db->ApplySource("rules p(x: 4).",
                                   ApplicationMode::kRIDV, tiny);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalStatsTest, StepsMatchTheStepBudgetBoundary) {
  // A run that succeeds under max_steps=N must report steps <= N, and the
  // same run reported steps must be exactly what a budget of that size
  // admits (the count and the charge agree).
  auto db = Database::Create("associations P = (x: integer);");
  ASSERT_TRUE(db.ok()) << db.status();
  auto free_run = db->ApplySource("rules p(x: 1).",
                                  ApplicationMode::kRIDV);
  ASSERT_TRUE(free_run.ok()) << free_run.status();
  size_t used = free_run->stats.steps;
  ASSERT_GE(used, 1u);

  auto db2 = Database::Create("associations P = (x: integer);");
  ASSERT_TRUE(db2.ok());
  EvalOptions exact;
  exact.budget.max_steps = used;
  auto bounded = db2->ApplySource("rules p(x: 1).",
                                  ApplicationMode::kRIDV, exact);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_EQ(bounded->stats.steps, used);
}

// ---------------------------------------------------------------------------
// Per-stratum sub-budgets (Budget::Substratum + EvalOptions::stratum_fraction)

TEST(StratumBudgetTest, SubstratumScalesStepsAndTimeout) {
  Budget b;
  b.max_steps = 100;
  b.timeout = std::chrono::milliseconds(1000);
  b.max_facts = 7;
  Budget sub = b.Substratum(0.25);
  EXPECT_EQ(sub.max_steps, 25u);
  ASSERT_TRUE(sub.timeout.has_value());
  EXPECT_EQ(sub.timeout->count(), 250);
  EXPECT_EQ(sub.max_facts, 7u);  // the fact ceiling is shared, not sliced

  Budget tiny = b.Substratum(0.0001);
  EXPECT_EQ(tiny.max_steps, 1u);  // never rounds down to zero-as-unlimited
  EXPECT_EQ(tiny.timeout->count(), 1);

  Budget unlimited = Budget::Unlimited().Substratum(0.5);
  EXPECT_EQ(unlimited.max_steps, 0u);  // unlimited stays unlimited
}

// A two-stratum program where each stratum needs ~n fixpoint steps: PATH
// is the closure of a forward chain; PATH2 recomputes it in a higher
// stratum (its seed rule negates on PATH, and the chain has no backward
// paths, so the negation always holds).
struct TwoStrataSetup {
  Database db;
  CheckedProgram program;
  Schema schema;
};

Result<TwoStrataSetup> MakeTwoStrata(int n) {
  auto db = Database::Create(R"(
    associations
      EDGE  = (src: integer, dst: integer);
      PATH  = (src: integer, dst: integer);
      PATH2 = (src: integer, dst: integer);
  )");
  if (!db.ok()) return db.status();
  for (int i = 0; i < n; ++i) {
    LOGRES_RETURN_NOT_OK(db->InsertTuple(
        "EDGE", Value::MakeTuple({{"src", Value::Int(i)},
                                  {"dst", Value::Int(i + 1)}})));
  }
  LOGRES_ASSIGN_OR_RETURN(
      ParsedUnit unit,
      Parse("rules path(src: X, dst: Y) <- edge(src: X, dst: Y)."
            "      path(src: X, dst: Z) <- path(src: X, dst: Y),"
            "                              edge(src: Y, dst: Z)."
            "      path2(src: X, dst: Y) <- edge(src: X, dst: Y),"
            "                               not path(src: Y, dst: X)."
            "      path2(src: X, dst: Z) <- path2(src: X, dst: Y),"
            "                               edge(src: Y, dst: Z)."));
  LOGRES_ASSIGN_OR_RETURN(CheckedProgram program,
                          Typecheck(db->schema(), {}, unit.rules));
  if (!program.stratified) {
    return Status::ExecutionError("expected a stratified program");
  }
  Schema schema = db->schema();
  return TwoStrataSetup{std::move(db).value(), std::move(program),
                        std::move(schema)};
}

// Under one shared step budget, the first stratum drains what the second
// stratum needed, and the run dies in stratum 1 through no fault of its
// own. Per-stratum sub-budgets give every stratum its own slice of the
// same budget, and the identical program converges.
TEST(StratumBudgetTest, SubBudgetsPreventCrossStratumStarvation) {
  auto setup = MakeTwoStrata(30);
  ASSERT_TRUE(setup.ok()) << setup.status();
  Evaluator evaluator(setup->schema, setup->program,
                      setup->db.oid_generator());

  // Reference result under no budget pressure.
  EvalOptions unlimited;
  unlimited.budget = Budget::Unlimited();
  auto reference = evaluator.Run(setup->db.edb(), unlimited);
  ASSERT_TRUE(reference.ok()) << reference.status();
  size_t total_steps = evaluator.stats().steps;
  // Each of the two strata needs roughly half the total.
  ASSERT_GT(total_steps, 50u);

  // A budget big enough for either stratum alone but not for both in
  // sequence: shared, the run is starved partway through stratum 1.
  EvalOptions shared;
  shared.budget.max_steps = total_steps - 10;
  auto starved = evaluator.Run(setup->db.edb(), shared);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kDivergence);

  // The same budget, sliced per stratum: each stratum's slice covers its
  // own work, so the run converges to the reference result.
  EvalOptions sliced = shared;
  sliced.stratum_fraction = 0.9;
  auto out = evaluator.Run(setup->db.edb(), sliced);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(*out == *reference);
}

// A runaway stratum exhausts its own slice and the error names it, instead
// of silently draining the budget later strata were counting on.
TEST(StratumBudgetTest, RunawayStratumFailsInsideItsOwnSlice) {
  auto setup = MakeTwoStrata(30);
  ASSERT_TRUE(setup.ok()) << setup.status();
  Evaluator evaluator(setup->schema, setup->program,
                      setup->db.oid_generator());
  EvalOptions sliced;
  sliced.budget.max_steps = 40;
  sliced.stratum_fraction = 0.2;  // 8 steps per stratum: too few for PATH
  auto out = evaluator.Run(setup->db.edb(), sliced);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDivergence);
  EXPECT_NE(out.status().message().find("stratum 0"), std::string::npos)
      << out.status();
}

// ---------------------------------------------------------------------------
// Exhaustion rollback leaves cached access paths valid
//
// The undo-log rollback invalidates index caches per record instead of
// rebuilding them per step, so after a rejected application the EDB's
// warmed indexes must answer for the *restored* state — never for the
// aborted application's intermediate instance.

TEST(ExhaustionRollbackTest, BudgetExhaustionKeepsIndexesValid) {
  auto setup = MakeChain(12);
  ASSERT_TRUE(setup.ok()) << setup.status();
  Database& db = setup->db;

  // Warm the access paths and record what they answer pre-application.
  ASSERT_EQ(db.edb().AssocIndex("EDGE", "src").size(), 12u);
  ASSERT_EQ(db.edb().AssocIndex("PATH", "src").size(), 0u);
  auto pre_query = db.Query("? edge(src: 3, dst: X).");
  ASSERT_TRUE(pre_query.ok());
  const std::string before = DumpDatabase(db);

  EvalOptions tight;
  tight.budget.max_steps = 2;
  auto result = db.ApplySource(
      "rules path(src: X, dst: Y) <- edge(src: X, dst: Y)."
      "      path(src: X, dst: Z) <- path(src: X, dst: Y),"
      "                              edge(src: Y, dst: Z).",
      ApplicationMode::kRIDV, tight);
  ASSERT_EQ(result.status().code(), StatusCode::kDivergence);

  // State rolled back, and the cached indexes answer for it.
  EXPECT_EQ(DumpDatabase(db), before);
  EXPECT_EQ(db.edb().AssocIndex("EDGE", "src").size(), 12u);
  EXPECT_EQ(db.edb().AssocIndex("PATH", "src").size(), 0u);
  auto post_query = db.Query("? edge(src: 3, dst: X).");
  ASSERT_TRUE(post_query.ok());
  EXPECT_EQ(pre_query->size(), post_query->size());
}

TEST(ExhaustionRollbackTest, InjectedCommitFailureRollsBackReplacedEdb) {
  // The hardest rollback: under RIDV the application has already swapped
  // in the evaluated instance (a single kInstanceReplaced undo record)
  // when the commit-boundary failpoint fires. Warmed indexes must answer
  // for the restored pre-application EDB.
  auto setup = MakeChain(6);
  ASSERT_TRUE(setup.ok()) << setup.status();
  Database& db = setup->db;
  ASSERT_EQ(db.edb().AssocIndex("EDGE", "src").size(), 6u);
  const std::string before = DumpDatabase(db);

  {
    ScopedFailpoint fp("db.apply.commit", Status::ExecutionError("boom"));
    auto result = db.ApplySource(
        "rules path(src: X, dst: Y) <- edge(src: X, dst: Y).",
        ApplicationMode::kRIDV);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(fp.hit_count(), 1u);
  }

  EXPECT_EQ(DumpDatabase(db), before);
  EXPECT_EQ(db.edb().AssocIndex("EDGE", "src").size(), 6u);
  EXPECT_EQ(db.edb().AssocIndex("PATH", "src").size(), 0u);
  // And the rolled-back database still evaluates and commits normally.
  auto ok = db.ApplySource(
      "rules path(src: X, dst: Y) <- edge(src: X, dst: Y).",
      ApplicationMode::kRIDV);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(db.edb().TuplesOf("PATH").size(), 6u);
}

// ---------------------------------------------------------------------------
// Goal-directed evaluation under budget pressure
//
// The magic-set rewrite changes how much work a budget has to cover, but
// not the transactional contract: exhaustion mid-demand rolls the state
// back exactly like whole-program exhaustion does, and a selective goal's
// small cone can converge under a budget the whole program exhausts.

TEST(GoalDirectedBudgetTest, ExhaustionMidDemandRollsBackTransactionally) {
  auto setup = MakeChain(30);
  ASSERT_TRUE(setup.ok()) << setup.status();
  Database& db = setup->db;
  ASSERT_EQ(db.edb().AssocIndex("EDGE", "src").size(), 30u);
  const std::string before = DumpDatabase(db);

  // The goal binds src: 0, whose demanded cone spans the whole chain —
  // the rewrite applies, and the goal-directed run itself exhausts the
  // step budget mid-demand.
  EvalOptions tight;
  tight.budget.max_steps = 2;
  ASSERT_TRUE(tight.goal_directed);
  auto result = db.ApplySource(
      "rules path(src: X, dst: Y) <- edge(src: X, dst: Y)."
      "      path(src: X, dst: Z) <- path(src: X, dst: Y),"
      "                              edge(src: Y, dst: Z)."
      "goal ? path(src: 0, dst: X).",
      ApplicationMode::kRIDI, tight);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDivergence);

  // All-or-nothing: state byte-identical, warmed indexes still answer for
  // it, and no magic relation survived the abort.
  EXPECT_EQ(DumpDatabase(db), before);
  EXPECT_EQ(db.edb().AssocIndex("EDGE", "src").size(), 30u);
  EXPECT_EQ(db.edb().AssocIndex("PATH", "src").size(), 0u);
  for (const auto& [name, tuples] : db.edb().associations()) {
    EXPECT_EQ(name.find("$MAGIC$"), std::string::npos) << name;
  }
  // And the same application converges once the budget allows it.
  auto ok = db.ApplySource(
      "rules path(src: X, dst: Y) <- edge(src: X, dst: Y)."
      "      path(src: X, dst: Z) <- path(src: X, dst: Y),"
      "                              edge(src: Y, dst: Z)."
      "goal ? path(src: 0, dst: X).",
      ApplicationMode::kRIDI);
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_TRUE(ok->goal_answer.has_value());
  EXPECT_EQ(ok->goal_answer->size(), 30u);
  EXPECT_EQ(DumpDatabase(db), before);
}

// ---------------------------------------------------------------------------
// Interruption inside one fixpoint step
//
// The governor is polled at every step boundary and, within a step, every
// 1024 rule firings. A program whose first step is one long cross product
// therefore honors a deadline or a cancellation long before that step
// would end, and the application still rolls back byte-identically.

// A 3-way cross product: one step of kSide^3 firings, then the fixpoint.
constexpr int kSide = 120;
constexpr const char* kCrossSchema =
    "associations A = (x: integer); B = (y: integer); C = (z: integer);"
    "             HIT = (x: integer);";
constexpr const char* kCrossRules =
    "rules hit(x: X) <- a(x: X), b(y: Y), c(z: Z).";

Result<Database> MakeCrossProduct() {
  LOGRES_ASSIGN_OR_RETURN(Database db, Database::Create(kCrossSchema));
  for (int i = 0; i < kSide; ++i) {
    LOGRES_RETURN_NOT_OK(
        db.InsertTuple("A", Value::MakeTuple({{"x", Value::Int(i)}})));
    LOGRES_RETURN_NOT_OK(
        db.InsertTuple("B", Value::MakeTuple({{"y", Value::Int(i)}})));
    LOGRES_RETURN_NOT_OK(
        db.InsertTuple("C", Value::MakeTuple({{"z", Value::Int(i)}})));
  }
  return db;
}

// Far below the time the cross-product step takes to run to its end, and
// far above the time 1024 firings take even in a sanitizer build (the
// whole step is ~1.7 M firings, ~1.7 s in a RelWithDebInfo build on a
// 4-vCPU x86-64 VM).
constexpr auto kInterruptLatencyBound = std::chrono::milliseconds(500);

TEST(MidStepInterrupt, DeadlineLandsInsideOneLongStep) {
  auto db = MakeCrossProduct();
  ASSERT_TRUE(db.ok()) << db.status();
  const std::string before = DumpDatabase(*db);
  EvalOptions options;
  options.budget.timeout = std::chrono::milliseconds(20);
  auto started = std::chrono::steady_clock::now();
  auto result = db->ApplySource(kCrossRules, ApplicationMode::kRIDV, options);
  auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
  EXPECT_LT(elapsed, kInterruptLatencyBound);
  EXPECT_EQ(DumpDatabase(*db), before);
}

TEST(MidStepInterrupt, SecondThreadCancelLandsInsideOneLongStep) {
  auto db = MakeCrossProduct();
  ASSERT_TRUE(db.ok()) << db.status();
  const std::string before = DumpDatabase(*db);
  CancellationSource source;
  EvalOptions options;
  options.budget.cancel = source.token();
  std::chrono::steady_clock::time_point cancelled_at;
  std::thread canceller([&source, &cancelled_at]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancelled_at = std::chrono::steady_clock::now();
    source.Cancel();
  });
  auto result = db->ApplySource(kCrossRules, ApplicationMode::kRIDV, options);
  auto returned_at = std::chrono::steady_clock::now();
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << result.status();
  EXPECT_LT(returned_at - cancelled_at, kInterruptLatencyBound);
  EXPECT_EQ(DumpDatabase(*db), before);
}

// The same two interrupts against the other two engines. The ALGRES
// backend builds the cross product as one relational join inside a
// round; the flat Datalog engine enumerates it inside one round. Both
// poll the governor every 1024 rows/firings. Their inputs are const, so
// "rollback" means the input is untouched.

// Smaller than kSide: the backend materializes the product's rows, so
// 80^3 (512 K rows) already takes seconds when nothing interrupts it.
constexpr int kAlgresSide = 80;

struct AlgresCross {
  Database db;
  Schema schema;
  CheckedProgram program;
};

Result<AlgresCross> MakeAlgresCross() {
  LOGRES_ASSIGN_OR_RETURN(Database db, Database::Create(kCrossSchema));
  for (int i = 0; i < kAlgresSide; ++i) {
    LOGRES_RETURN_NOT_OK(
        db.InsertTuple("A", Value::MakeTuple({{"x", Value::Int(i)}})));
    LOGRES_RETURN_NOT_OK(
        db.InsertTuple("B", Value::MakeTuple({{"y", Value::Int(i)}})));
    LOGRES_RETURN_NOT_OK(
        db.InsertTuple("C", Value::MakeTuple({{"z", Value::Int(i)}})));
  }
  LOGRES_ASSIGN_OR_RETURN(ParsedUnit unit, Parse(kCrossRules));
  Schema schema = db.schema();
  LOGRES_ASSIGN_OR_RETURN(CheckedProgram program,
                          Typecheck(schema, {}, unit.rules));
  return AlgresCross{std::move(db), std::move(schema), std::move(program)};
}

datalog::Program MakeDatalogCross() {
  datalog::Program program;
  for (int i = 0; i < kSide; ++i) {
    for (const char* pred : {"a", "b", "c"}) {
      EXPECT_TRUE(program.AddFact(pred, {datalog::Constant::Int(i)}).ok());
    }
  }
  datalog::Rule rule;
  rule.head = {"hit", {datalog::Term::Var("X")}};
  rule.body = {{"a", {datalog::Term::Var("X")}},
               {"b", {datalog::Term::Var("Y")}},
               {"c", {datalog::Term::Var("Z")}}};
  EXPECT_TRUE(program.AddRule(std::move(rule)).ok());
  return program;
}

// Runs `run` while another thread cancels `source` after 20 ms; returns
// the status and how long after the cancel `run` returned.
template <typename Run>
std::pair<Status, std::chrono::steady_clock::duration> RunAndCancel(
    CancellationSource* source, Run run) {
  std::chrono::steady_clock::time_point cancelled_at;
  std::thread canceller([source, &cancelled_at]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancelled_at = std::chrono::steady_clock::now();
    source->Cancel();
  });
  Status status = run();
  auto returned_at = std::chrono::steady_clock::now();
  canceller.join();
  return {status, returned_at - cancelled_at};
}

TEST(MidStepInterrupt, AlgresDeadlineLandsInsideOneLongJoin) {
  auto setup = MakeAlgresCross();
  ASSERT_TRUE(setup.ok()) << setup.status();
  const std::string before = DumpDatabase(setup->db);
  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  for (auto strategy :
       {AlgresStrategy::kNaive, AlgresStrategy::kSemiNaive}) {
    Budget budget;
    budget.timeout = std::chrono::milliseconds(20);
    auto started = std::chrono::steady_clock::now();
    auto out = backend->Run(setup->db.edb(), strategy, budget);
    auto elapsed = std::chrono::steady_clock::now() - started;
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
        << out.status();
    EXPECT_LT(elapsed, kInterruptLatencyBound);
  }
  EXPECT_EQ(DumpDatabase(setup->db), before);
}

TEST(MidStepInterrupt, AlgresSecondThreadCancelLandsInsideOneLongJoin) {
  auto setup = MakeAlgresCross();
  ASSERT_TRUE(setup.ok()) << setup.status();
  const std::string before = DumpDatabase(setup->db);
  auto backend = AlgresBackend::Compile(setup->schema, setup->program);
  ASSERT_TRUE(backend.ok()) << backend.status();
  CancellationSource source;
  Budget budget;
  budget.cancel = source.token();
  auto [status, latency] = RunAndCancel(&source, [&] {
    return backend->Run(setup->db.edb(), AlgresStrategy::kSemiNaive, budget)
        .status();
  });
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status;
  EXPECT_LT(latency, kInterruptLatencyBound);
  EXPECT_EQ(DumpDatabase(setup->db), before);
}

TEST(MidStepInterrupt, DatalogDeadlineLandsInsideOneLongRound) {
  const datalog::Program program = MakeDatalogCross();
  const auto before = program.edb();
  for (auto strategy :
       {datalog::EvalStrategy::kNaive, datalog::EvalStrategy::kSemiNaive}) {
    datalog::EvalOptions options;
    options.strategy = strategy;
    options.budget.timeout = std::chrono::milliseconds(20);
    auto started = std::chrono::steady_clock::now();
    auto out = datalog::Evaluate(program, options);
    auto elapsed = std::chrono::steady_clock::now() - started;
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
        << out.status();
    EXPECT_LT(elapsed, kInterruptLatencyBound);
  }
  EXPECT_EQ(program.edb(), before);
}

TEST(MidStepInterrupt, DatalogSecondThreadCancelLandsInsideOneLongRound) {
  const datalog::Program program = MakeDatalogCross();
  const auto before = program.edb();
  CancellationSource source;
  datalog::EvalOptions options;
  options.budget.cancel = source.token();
  auto [status, latency] = RunAndCancel(&source, [&] {
    return datalog::Evaluate(program, options).status();
  });
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status;
  EXPECT_LT(latency, kInterruptLatencyBound);
  EXPECT_EQ(program.edb(), before);
}

// The only test of a cancellation that arrives from another thread while
// an application is running: whichever step it lands in, no partial
// delta survives.
TEST(ParallelGovernor, SecondThreadCancellationRollsBack) {
  constexpr const char* kChainSchema =
      "associations E = (a: integer, b: integer);"
      "             TC = (a: integer, b: integer);";
  constexpr const char* kChainRules =
      "rules tc(a: X, b: Y) <- e(a: X, b: Y)."
      "      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).";
  // The canceller races the fixpoint, so a fast machine could complete
  // the apply before Cancel() lands. Escalate the workload until the
  // cancellation wins; each attempt is a valid transactional-rollback
  // check on its own.
  for (int n : {600, 2400, 9600}) {
    auto db_result = Database::Create(kChainSchema);
    ASSERT_TRUE(db_result.ok()) << db_result.status();
    Database db = std::move(db_result).value();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db.InsertTuple("E", Value::MakeTuple(
                                          {{"a", Value::Int(i)},
                                           {"b", Value::Int(i + 1)}}))
                      .ok());
    }
    std::string before = DumpDatabase(db);

    CancellationSource source;
    EvalOptions options;
    options.budget.cancel = source.token();
    std::thread canceller([&source]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      source.Cancel();
    });
    auto apply = db.ApplySource(kChainRules, ApplicationMode::kRIDV, options);
    canceller.join();
    if (apply.ok()) continue;  // fixpoint beat the canceller; go bigger
    EXPECT_EQ(apply.status().code(), StatusCode::kCancelled)
        << apply.status();
    // Transactional: no partial delta survives the cancellation.
    EXPECT_EQ(before, DumpDatabase(db));
    return;
  }
  FAIL() << "fixpoint completed before cancellation at every size";
}

TEST(GoalDirectedBudgetTest, SelectiveGoalConvergesWhereWholeProgramDiverges) {
  // The cone of path(src: 62, ...) on a 64-chain is two facts deep; the
  // whole program needs ~64 fixpoint rounds. A step budget between the
  // two separates the paths: goal-directed answers, whole-program is
  // classified divergent.
  auto db = Database::Create(R"(
    associations
      EDGE = (src: integer, dst: integer);
      PATH = (src: integer, dst: integer);
    rules
      path(src: X, dst: Y) <- edge(src: X, dst: Y).
      path(src: X, dst: Z) <- path(src: X, dst: Y), edge(src: Y, dst: Z).
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db->InsertTuple(
                      "EDGE", Value::MakeTuple({{"src", Value::Int(i)},
                                                {"dst", Value::Int(i + 1)}}))
                    .ok());
  }

  EvalOptions tight;
  tight.budget.max_steps = 8;
  EvalStats stats;
  auto directed = db->Query("? path(src: 62, dst: X).", tight, &stats);
  ASSERT_TRUE(directed.ok()) << directed.status();
  EXPECT_EQ(directed->size(), 2u);
  EXPECT_TRUE(stats.goal_directed_fallback.empty())
      << stats.goal_directed_fallback;
  EXPECT_LE(stats.steps, 8u);

  EvalOptions whole = tight;
  whole.goal_directed = false;
  auto starved = db->Query("? path(src: 62, dst: X).", whole);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kDivergence);

  // The same separation under a fact ceiling: the cone stays under a
  // budget the full closure (64 + 2080 facts) breaches.
  EvalOptions cramped;
  cramped.budget.max_facts = 80;
  auto small = db->Query("? path(src: 62, dst: X).", cramped);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(small->size(), 2u);
  EvalOptions cramped_whole = cramped;
  cramped_whole.goal_directed = false;
  auto burst = db->Query("? path(src: 62, dst: X).", cramped_whole);
  ASSERT_FALSE(burst.ok());
  EXPECT_EQ(burst.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace logres
