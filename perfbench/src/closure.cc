// The closure probe: bulk whole-program fixpoint, the engine comparator.
//
// One flat positive recursive program (transitive closure — the only
// fragment all three engines share) over a seeded graph that mixes long
// chains (many semi-naive steps: the undo log's adversary) with
// scale-free components (many duplicate derivations: the interner's
// regime). The system path, Database::Materialize (core/eval), the ALGRES
// backend (Typecheck + AlgresBackend::Compile + Run) and the Datalog
// engine (datalog::Evaluate) each materialize it. The lineage_queries
// workload runs the probe untimed in every pause of its untraced run and
// timed per layer in its traced run; it is not a workload of its own, so
// the benchmark's runs stay long enough to be steady.
//
// Every answer of every engine is checked against a breadth-first search
// over the generated edges, so the three engines agree.

#include "closure.h"

#include <optional>
#include <string>

#include "bench.h"
#include "core/algres_backend.h"
#include "core/database.h"
#include "core/typecheck.h"
#include "datalog/datalog.h"
#include "graph.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace datalog = logres::datalog;

// Sized so one core/eval materialization takes a few milliseconds on a
// 2020s x86 core.
constexpr int64_t kChains = 4;
constexpr int64_t kChainLength = 18;
constexpr int64_t kComponents = 10;
constexpr int64_t kComponentSize = 14;
constexpr int64_t kAttach = 2;
constexpr char kProgram[] =
    "associations\n"
    "  E = (a: integer, b: integer);\n"
    "  TC = (a: integer, b: integer);\n"
    "rules\n"
    "  tc(a: X, b: Y) <- e(a: X, b: Y).\n"
    "  tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).\n";

struct Graph {
  int64_t nodes = 0;
  Pairs edges;
};

Graph MakeGraph(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Graph g;
  for (int64_t c = 0; c < kChains; ++c) {
    for (int64_t i = 0; i + 1 < kChainLength; ++i) {
      g.edges.emplace_back(g.nodes + i, g.nodes + i + 1);
    }
    g.nodes += kChainLength;
  }
  for (int64_t c = 0; c < kComponents; ++c) {
    AppendScaleFree(g.nodes, kComponentSize, kAttach, &rng, &g.edges);
    g.nodes += kComponentSize;
  }
  Relabel(g.nodes, &rng, &g.edges);
  return g;
}

logres::Database MakeDatabase(const Graph& g) {
  auto db = logres::Database::Create(kProgram);
  if (!db.ok()) throw SetupError{db.status().ToString()};
  for (const auto& [a, b] : g.edges) {
    logres::Status st = db->InsertTuple(
        "E", logres::Value::MakeTuple({{"a", logres::Value::Int(a)},
                                       {"b", logres::Value::Int(b)}}));
    if (!st.ok()) throw SetupError{st.ToString()};
  }
  return std::move(db).value();
}

datalog::Program MakeDatalogProgram(const Graph& g) {
  namespace dl = logres::datalog;
  dl::Program p;
  for (const auto& [a, b] : g.edges) {
    logres::Status st =
        p.AddFact("e", {dl::Constant::Int(a), dl::Constant::Int(b)});
    if (!st.ok()) throw SetupError{st.ToString()};
  }
  auto var = [](const char* name) { return dl::Term::Var(name); };
  dl::Rule base;
  base.head = dl::Literal{"tc", {var("X"), var("Y")}, false};
  base.body = {dl::Literal{"e", {var("X"), var("Y")}, false}};
  dl::Rule step;
  step.head = dl::Literal{"tc", {var("X"), var("Z")}, false};
  step.body = {dl::Literal{"tc", {var("X"), var("Y")}, false},
               dl::Literal{"e", {var("Y"), var("Z")}, false}};
  for (dl::Rule* rule : {&base, &step}) {
    logres::Status st = p.AddRule(*rule);
    if (!st.ok()) throw SetupError{st.ToString()};
  }
  return p;
}

Pairs InstancePairs(const logres::Instance& instance) {
  Pairs out;
  for (const logres::Value& t : instance.TuplesOf("TC")) {
    const logres::Value* a = t.FindFieldRef("a");
    const logres::Value* b = t.FindFieldRef("b");
    if (a == nullptr || b == nullptr || a->kind() != logres::ValueKind::kInt ||
        b->kind() != logres::ValueKind::kInt) {
      return {};  // reported as a mismatch against the oracle
    }
    out.emplace_back(a->int_value(), b->int_value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Pairs DatalogPairs(const datalog::Database& db) {
  Pairs out;
  auto it = db.find("tc");
  if (it == db.end()) return out;
  for (const datalog::Fact& f : it->second) {
    out.emplace_back(f[0].int_value(), f[1].int_value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The three engines' public entry points. Each returns the sorted
// closure, or nullopt with `error` set.
std::optional<Pairs> Failed(const logres::Status& st, std::string* error) {
  *error = st.ToString();
  return std::nullopt;
}

std::optional<Pairs> RunEval(const logres::Database& db, Tracer* tracer,
                             ClosureProbe::Samples* samples,
                             std::string* error) {
  Span span(tracer, kLayerEval, "Database::Materialize");
  const Clock::time_point start = Clock::now();
  auto instance = db.Materialize();  // num_threads = 1, the default
  if (samples) samples->materialize_us.push_back(MicrosSince(start));
  if (!instance.ok()) return Failed(instance.status(), error);
  return InstancePairs(*instance);
}

std::optional<Pairs> RunAlgres(const logres::Database& db, Tracer* tracer,
                               ClosureProbe::Samples* samples,
                               std::string* error) {
  std::optional<logres::Result<logres::CheckedProgram>> checked;
  {
    Span span(tracer, kLayerTypecheck, "Typecheck");
    const Clock::time_point start = Clock::now();
    checked.emplace(logres::Typecheck(db.schema(), db.functions(), db.rules()));
    if (samples) samples->typecheck_us.push_back(MicrosSince(start));
  }
  if (!checked->ok()) return Failed(checked->status(), error);
  std::optional<logres::Result<logres::AlgresBackend>> backend;
  {
    Span span(tracer, kLayerAlgresBackend, "AlgresBackend::Compile");
    const Clock::time_point start = Clock::now();
    backend.emplace(logres::AlgresBackend::Compile(db.schema(), **checked));
    if (samples) samples->compile_us.push_back(MicrosSince(start));
  }
  if (!backend->ok()) return Failed(backend->status(), error);
  Span span(tracer, kLayerAlgresBackend, "AlgresBackend::Run");
  const Clock::time_point start = Clock::now();
  auto instance = (*backend)->Run(db.edb());  // semi-naive, one thread
  if (samples) samples->run_s.push_back(SecondsSince(start));
  if (!instance.ok()) return Failed(instance.status(), error);
  return InstancePairs(*instance);
}

std::optional<Pairs> RunDatalog(const datalog::Program& program,
                                Tracer* tracer, ClosureProbe::Samples* samples,
                                std::string* error) {
  Span span(tracer, kLayerDatalog, "datalog::Evaluate");
  const Clock::time_point start = Clock::now();
  auto result = datalog::Evaluate(program, datalog::EvalOptions{});
  if (samples) samples->evaluate_s.push_back(SecondsSince(start));
  if (!result.ok()) return Failed(result.status(), error);
  return DatalogPairs(*result);
}

}  // namespace

ClosureProbe::ClosureProbe(uint64_t seed) {
  const Graph graph = MakeGraph(seed);
  oracle_ = Closure(graph.nodes, graph.edges);
  db_.emplace(MakeDatabase(graph));
  program_.emplace(MakeDatalogProgram(graph));
}

void ClosureProbe::Run(Tracer* tracer, RunResult* result) {
  Samples* samples = tracer != nullptr ? &samples_ : nullptr;
  auto check = [&](const char* engine, const std::optional<Pairs>& got,
                   const std::string& error) {
    ++result->attempted;
    if (!got.has_value()) {
      result->Fail(std::string(engine) + " failed: " + error);
    } else if (*got != oracle_) {
      result->Fail(std::string(engine) +
                   " closure differs from the BFS oracle (" +
                   std::to_string(got->size()) + " vs " +
                   std::to_string(oracle_.size()) + " pairs)");
    }
  };
  std::string error;
  check("core/eval", RunEval(*db_, tracer, samples, &error), error);
  check("ALGRES backend", RunAlgres(*db_, tracer, samples, &error), error);
  check("Datalog engine", RunDatalog(*program_, tracer, samples, &error),
        error);
}

void ClosureProbe::Report(RunResult* result) const {
  result->Set("eval.materialize_us", Median(samples_.materialize_us));
  result->Set("typecheck.us", Median(samples_.typecheck_us));
  result->Set("typecheck.rules", static_cast<double>(db_->rules().size()));
  result->Set("algres_backend.compile_us", Median(samples_.compile_us));
  result->Set("algres_backend.run_s", Median(samples_.run_s));
  result->Set("datalog.evaluate_s", Median(samples_.evaluate_s));
}

}  // namespace perfbench
