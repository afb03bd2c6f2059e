// The closure probe (see closure.cc): one transitive-closure program
// materialized by all three engines and checked against a breadth-first
// search over the generated edges.

#ifndef PERFBENCH_CLOSURE_H_
#define PERFBENCH_CLOSURE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "bench.h"
#include "core/database.h"
#include "datalog/datalog.h"
#include "graph.h"

namespace perfbench {

class Tracer;

class ClosureProbe {
 public:
  /// Per-layer timings, kept by traced calls of Run.
  struct Samples {
    std::vector<double> materialize_us, typecheck_us, compile_us, run_s,
        evaluate_s;
  };

  /// Generates the seeded graph and loads it into each engine's input.
  explicit ClosureProbe(uint64_t seed);

  /// Materializes the program with core/eval, the ALGRES backend and the
  /// Datalog engine, and checks each closure against the oracle (three
  /// operations toward `attempted`). With a tracer each call is a span of
  /// its layer and is timed.
  void Run(Tracer* tracer, RunResult* result);

  /// eval.materialize_us, typecheck.*, algres_backend.*, datalog.*.
  void Report(RunResult* result) const;

 private:
  Pairs oracle_;
  std::optional<logres::Database> db_;
  std::optional<logres::datalog::Program> program_;
  Samples samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLOSURE_H_
