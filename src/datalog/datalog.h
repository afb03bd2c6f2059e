// A conventional flat Datalog engine — the baseline LOGRES is compared
// against.
//
// The paper positions LOGRES against "preceding proposals like LDL or
// NAIL!" (Section 3.2): flat, value-based Datalog with stratified negation
// and no objects, no complex terms, no invented values. This module
// implements exactly that comparator: first-order terms are constants or
// variables over a scalar universe, programs are evaluated bottom-up either
// naively or semi-naively, and negation is supported when the program is
// stratified.
//
// It has two roles, both whole-program: the comparator the benchmarks
// (B1/B2) run the same recursive workloads through, to measure what the
// typed object-oriented machinery costs, and the oracle the test suite
// cross-checks the LOGRES engines against on the flat fragment. It has no
// goal-directed mode: a query evaluates the whole program and filters
// (Evaluate, then Query). Demand rewriting belongs to the LOGRES engines
// alone.

#ifndef LOGRES_DATALOG_DATALOG_H_
#define LOGRES_DATALOG_DATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "util/governor.h"
#include "util/status.h"

namespace logres::datalog {

using logres::Budget;
using logres::Result;
using logres::Status;

/// \brief A scalar constant: integer or symbol (interned string).
class Constant {
 public:
  Constant() : rep_(int64_t{0}) {}
  static Constant Int(int64_t i) { return Constant(rep_type(i)); }
  static Constant Sym(std::string s) {
    return Constant(rep_type(std::move(s)));
  }

  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  int64_t int_value() const { return std::get<int64_t>(rep_); }
  const std::string& sym_value() const { return std::get<std::string>(rep_); }

  std::string ToString() const;

  auto operator<=>(const Constant&) const = default;

 private:
  using rep_type = std::variant<int64_t, std::string>;
  explicit Constant(rep_type rep) : rep_(std::move(rep)) {}
  rep_type rep_;
};

/// \brief Hash functor for Constant, for the engine's hash-indexed access
/// paths (ints and symbols hash into one key space).
struct ConstantHash {
  size_t operator()(const Constant& c) const {
    if (c.is_int()) {
      return std::hash<int64_t>()(c.int_value()) ^ 0x9e3779b97f4a7c15ull;
    }
    return std::hash<std::string>()(c.sym_value());
  }
};

/// \brief A term: a constant or a variable (identified by name).
class Term {
 public:
  static Term Var(std::string name) {
    Term t;
    t.var_ = std::move(name);
    return t;
  }
  static Term Const(Constant c) {
    Term t;
    t.const_ = std::move(c);
    return t;
  }
  static Term Int(int64_t i) { return Const(Constant::Int(i)); }
  static Term Sym(std::string s) { return Const(Constant::Sym(std::move(s))); }

  bool is_var() const { return var_.has_value(); }
  const std::string& var_name() const { return *var_; }
  const Constant& constant() const { return *const_; }

  std::string ToString() const;

 private:
  std::optional<std::string> var_;
  std::optional<Constant> const_;
};

/// \brief A literal: possibly negated predicate over terms.
struct Literal {
  std::string predicate;
  std::vector<Term> terms;
  bool negated = false;

  std::string ToString() const;
};

/// \brief A Horn rule with stratified negation: head :- body.
struct Rule {
  Literal head;  // must be positive
  std::vector<Literal> body;

  std::string ToString() const;
};

/// \brief A ground fact.
using Fact = std::vector<Constant>;

/// \brief A Datalog program: rules plus an extensional database.
class Program {
 public:
  /// \brief Adds a rule; rejects negated heads and unsafe rules (a head or
  /// negated-body variable that never occurs in a positive body literal).
  Status AddRule(Rule rule);

  /// \brief Adds a ground fact for \p predicate.
  Status AddFact(const std::string& predicate, Fact fact);

  const std::vector<Rule>& rules() const { return rules_; }
  const std::map<std::string, std::set<Fact>>& edb() const { return edb_; }

 private:
  std::vector<Rule> rules_;
  std::map<std::string, std::set<Fact>> edb_;
  std::map<std::string, size_t> arity_;
};

/// \brief All derived facts, keyed by predicate.
using Database = std::map<std::string, std::set<Fact>>;

enum class EvalStrategy { kNaive, kSemiNaive };

/// \brief Evaluation controls for the flat engine, mirroring the direct
/// evaluator's contract.
struct EvalOptions {
  EvalStrategy strategy = EvalStrategy::kSemiNaive;
  /// Shared budget semantics with the other engines: step exhaustion is
  /// kDivergence (one step = one fixpoint round), deadline or fact-count
  /// breach is kResourceExhausted, cancellation is kCancelled.
  Budget budget;
};

/// \brief Computes the minimal model (perfect model when negation occurs).
///
/// Negation requires the program to be stratified; otherwise an
/// Inconsistent status is returned. Strata are evaluated bottom-up, each
/// with the requested strategy.
Result<Database> Evaluate(const Program& program, const EvalOptions& options);

/// \brief Back-compat entry point: strategy only, default budget, serial.
Result<Database> Evaluate(const Program& program,
                          EvalStrategy strategy = EvalStrategy::kSemiNaive);

/// \brief Answers a single (possibly non-ground) query literal against a
/// materialized database: returns the matching facts.
Result<std::set<Fact>> Query(const Database& db, const Literal& query);

/// \brief Computes the predicate-dependency strata. Exposed for tests.
/// Returns, for each predicate, its stratum index; error if not stratified.
Result<std::map<std::string, int>> Stratify(const Program& program);

}  // namespace logres::datalog

#endif  // LOGRES_DATALOG_DATALOG_H_
