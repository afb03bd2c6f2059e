// Compilation of LOGRES rules onto the ALGRES extended relational algebra.
//
// The paper's prototype runs LOGRES on top of ALGRES ("We plan to
// prototype LOGRES upon ALGRES ... Translation of the LOGRES data model
// into the relational one is described in [Ca90]", Sections 1 and 5).
// This module implements that translation for the *compilable fragment*:
//
//   * class and association predicates with labeled/positional arguments
//     over variables and constants (classes are represented as relations
//     with a distinguished $self oid column);
//   * nested tuple patterns over NF² cells, in bodies (compiled to path
//     selections/extensions) and heads (nested value construction);
//   * comparison literals, including equalities that *bind* a fresh
//     variable from arithmetic over bound ones;
//   * stratified negation, compiled to anti-joins with a stratum-wise
//     evaluation loop.
//
//   Outside the fragment — data functions, collection-valued builtins,
//   oid invention, deletion heads, unstratified negation — compilation
//   is rejected with NotImplemented; such programs run on the direct
//   Evaluator (whole-program inflationary semantics has no algebra
//   counterpart).
//
// Each rule body compiles to a select/rename/join/project pipeline; the
// program iterates to a fixpoint either naively (every step re-derives
// from the whole database) or semi-naively (joins are delta-restricted).
// The test suite cross-validates this backend against the direct
// Evaluator on the shared fragment; bench_engines compares their cost.

#ifndef LOGRES_CORE_ALGRES_BACKEND_H_
#define LOGRES_CORE_ALGRES_BACKEND_H_

#include <map>
#include <string>
#include <vector>

#include "algres/algebra.h"
#include "algres/relation.h"
#include "core/eval.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/typecheck.h"
#include "util/governor.h"
#include "util/status.h"

namespace logres {

/// \brief A database snapshot in relational form: one relation per
/// predicate. Class relations carry a leading "$self" oid column.
using RelationalDb = std::map<std::string, algres::Relation>;

/// \brief Converts the facts of \p instance into relations (classes get a
/// "$self" column followed by their effective fields).
Result<RelationalDb> InstanceToRelations(const Schema& schema,
                                         const Instance& instance);

/// \brief Converts relations back into an Instance.
Result<Instance> RelationsToInstance(const Schema& schema,
                                     const RelationalDb& db);

/// \brief Evaluation strategy of the compiled program.
enum class AlgresStrategy { kNaive, kSemiNaive };

/// \brief A LOGRES program compiled to ALGRES algebra.
class AlgresBackend {
 public:
  /// \brief Compiles \p program; NotImplemented if it leaves the flat
  /// positive fragment.
  static Result<AlgresBackend> Compile(const Schema& schema,
                                       const CheckedProgram& program);

  /// \brief Computes the fixpoint over \p edb. The budget shares its
  /// defaults (and its divergence/cancellation semantics) with the direct
  /// Evaluator's EvalOptions. \p intern_values scopes the hash-consing
  /// interner over the run, mirroring EvalOptions::intern_values (results
  /// identical either way).
  Result<Instance> Run(const Instance& edb,
                       AlgresStrategy strategy = AlgresStrategy::kSemiNaive,
                       const Budget& budget = {},
                       bool intern_values = true) const;

  /// \brief Relational entry point (used by benchmarks to skip instance
  /// conversion).
  Result<RelationalDb> RunRelational(
      RelationalDb db,
      AlgresStrategy strategy = AlgresStrategy::kSemiNaive,
      const Budget& budget = {}, bool intern_values = true) const;

  /// \brief Answers \p goal over (\p rules, \p edb) on this backend.
  /// When options.goal_directed is on, the magic-set rewrite
  /// (core/magic.h) is compiled instead of the whole program, so only
  /// the goal's demanded cone is materialized; the whole program is
  /// compiled when the rewrite refuses (reason recorded in
  /// stats->goal_directed_fallback) or its output leaves the compilable
  /// fragment. The strategy follows options.semi_naive; budget and
  /// interning map to Run's parameters.
  static Result<std::vector<Bindings>> QueryGoal(
      const Schema& effective_schema,
      const std::vector<FunctionDecl>& functions,
      const std::vector<Rule>& rules, const Instance& edb, const Goal& goal,
      const EvalOptions& options, EvalStats* stats = nullptr);

 private:
  struct CompiledLiteral {
    std::string predicate;                  // source relation
    // Column operations on the base relation:
    std::vector<std::pair<std::string, Value>> const_selects;  // col = v
    std::vector<std::pair<std::string, std::string>> var_projects;  // col->var
    // Nested access through tuple-valued cells (NF² patterns like
    // score: (home: H)): (column, field path, variable) bindings and
    // (column, field path, constant) selections.
    std::vector<std::tuple<std::string, std::vector<std::string>,
                           std::string>>
        path_projects;
    std::vector<std::tuple<std::string, std::vector<std::string>, Value>>
        path_selects;
  };
  struct CompiledCompare {
    CompareOp op;
    TermPtr lhs;
    TermPtr rhs;
    bool negated = false;
  };
  struct CompiledRule {
    std::string head_predicate;
    // Head columns: (output column, variable or constant).
    std::vector<std::pair<std::string, TermPtr>> head_columns;
    std::vector<CompiledLiteral> literals;
    // Negated predicate literals: compiled to anti-joins over the shared
    // variables (stratified programs only).
    std::vector<CompiledLiteral> negated_literals;
    std::vector<CompiledCompare> compares;
    int stratum = 0;
  };

  AlgresBackend(const Schema& schema) : schema_(&schema) {}

  // The rule's derived head rows. The joins poll `governor` every 1024
  // rows, so an interrupt lands inside one large join.
  Result<algres::Relation> EvalRule(const CompiledRule& rule,
                                    const RelationalDb& db,
                                    const RelationalDb* delta,
                                    size_t delta_index,
                                    const ResourceGovernor* governor) const;

  Result<bool> RunStratum(const std::vector<const CompiledRule*>& rules,
                          RelationalDb* db, AlgresStrategy strategy,
                          ResourceGovernor* governor) const;

  const Schema* schema_;
  std::vector<CompiledRule> rules_;
  int max_stratum_ = 0;
  std::map<std::string, std::vector<std::string>> pred_columns_;
};

}  // namespace logres

#endif  // LOGRES_CORE_ALGRES_BACKEND_H_
