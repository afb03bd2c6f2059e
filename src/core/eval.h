// The LOGRES evaluator: deterministic inflationary fixpoint semantics
// (paper Section 3 and Appendix B).
//
// Given a set of extensional facts E (an Instance) and an analyzed program
// R, the evaluator computes the sequence F0 = E, F1, F2, ... where each
// step applies the one-step inflationary operator:
//
//   VD(R, F)  — the valuation domain: all (rule, body valuation) pairs
//               whose body is satisfied by F and whose head is *not yet*
//               satisfiable in F (Definition 7);
//   eta       — the valuation map: head variables bound from the body;
//               an unbound head self variable receives an *invented oid*,
//               unique per valuated body, memoized across steps so "once a
//               rule has been fired for a certain substitution ... that
//               rule cannot generate any more oids for the same
//               substitution" (Definition 8);
//   Delta+/Delta- — facts derived by positive / negated heads;
//   F' = ((F ⊕ Δ+) − Δ−) ⊕ (F ∩ Δ+ ∩ Δ−)   with ⊕ the non-commutative
//               composition that lets new o-values supersede old ones for
//               the same oid.
//
// Iteration stops at Fk = Fk+1; divergence is caught by a step budget
// (termination "is not guaranteed, and it is not even decidable").
//
// Modes:
//  * kStratified (default): strata from the type checker are evaluated
//    bottom-up, each to its inflationary fixpoint — the perfect model on
//    stratified programs ("if we use inflationary semantics within each
//    stratum ... this yields the perfect model semantics"). Falls back to
//    whole-program inflationary when the program is not stratified, as
//    Section 3.1 prescribes.
//  * kWholeInflationary: all rules in a single fixpoint.
//  * kNonInflationary: replacement semantics — each step rebuilds the
//    instance from E plus the facts derived from the previous step (the
//    second, non-inflationary language the paper mentions; termination is
//    entirely the program's responsibility).
//
// Within a stratum whose rules are positive, invention-free, and
// data-function-free, a semi-naive delta evaluation is used (at least one
// body predicate literal must match a newly derived fact); this is an
// optimization only — results are identical, as the test suite checks.

#ifndef LOGRES_CORE_EVAL_H_
#define LOGRES_CORE_EVAL_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/builtin.h"
#include "core/instance.h"
#include "core/modes.h"
#include "core/schema.h"
#include "core/typecheck.h"
#include "core/undo_log.h"
#include "util/governor.h"
#include "util/status.h"

namespace logres {

struct EvalOptions {
  EvalMode mode = EvalMode::kStratified;
  /// Resource limits and cancellation, shared with the ALGRES backend:
  /// budget.max_steps bounds one-step applications (kDivergence),
  /// budget.timeout / budget.max_facts bound wall-clock and state growth
  /// (kResourceExhausted); budget.cancel (kCancelled) and the deadline
  /// are polled every step and every 1024 rule firings within a step.
  Budget budget;
  /// Evaluate denial rules (passive constraints) after the fixpoint and
  /// fail with ConstraintViolation when one fires.
  bool check_denials = true;
  /// Allow the semi-naive optimization on qualifying strata.
  bool semi_naive = true;
  /// Probe lazily built per-step hash indexes on association fields and
  /// class oids instead of scanning (ablation flag; results identical).
  bool use_indexes = true;
  /// Execute each rule body bound-first: positive predicate literals are
  /// reordered (within barrier-delimited runs; see ScheduleBody in
  /// eval.cc) so bound positions turn later literals into indexed probes
  /// (ablation flag; results identical).
  bool reorder_literals = true;
  /// When > 0 and the program is stratified, each stratum evaluates under
  /// its own Budget::Substratum(stratum_fraction) sub-budget instead of
  /// drawing from the shared budget, so a runaway stratum exhausts its
  /// slice (kDivergence, with the stratum in the error context) without
  /// starving later strata. 0 keeps the single shared governor.
  double stratum_fraction = 0;
  /// Route Value construction through the hash-consing interner
  /// (algres/interner.h) for the duration of the evaluation: one
  /// canonical node per structurally-distinct real-free value, equality
  /// by pointer compare. Results are byte-identical either way (the
  /// differential suites prove it); off is the plain-allocation
  /// reference path.
  bool intern_values = true;
  /// Goal-directed evaluation: when answering a goal with at least one
  /// bound (constant) argument, rewrite the program with magic sets
  /// (core/magic.h) so only the demanded cone is computed, instead of
  /// materializing the whole fixpoint and filtering. Answers are
  /// identical — the rewrite falls back to whole-program evaluation
  /// (recording EvalStats::goal_directed_fallback) whenever it cannot
  /// prove that, e.g. when the rewrite would lose stratification. Off is
  /// the whole-program reference path.
  bool goal_directed = true;
};

struct EvalStats {
  /// One-step applications consumed, as counted by the ResourceGovernor
  /// (its steps_used(); the number the step budget is charged against).
  size_t steps = 0;
  size_t rule_firings = 0;
  size_t invented_oids = 0;
  size_t deletions = 0;
  /// Facts in the evaluation's result instance (TotalFacts — what the
  /// max_facts budget is compared to).
  size_t facts = 0;
  /// Approximate byte footprint of the result instance (what the
  /// max_bytes budget is compared to). Computed only when a byte budget
  /// is set; 0 otherwise.
  size_t bytes = 0;
  /// Wall-clock time the evaluation consumed, in microseconds.
  int64_t elapsed_micros = 0;
  /// Interner observability (EvalOptions::intern_values; all 0 when
  /// interning was off): canonical nodes alive at the end of the run,
  /// constructions that found an existing node during the run, and bytes
  /// resident in live canonical nodes at the end of the run.
  size_t interner_nodes = 0;
  size_t interner_hits = 0;
  size_t interner_bytes = 0;
  /// Goal-directed (magic-set) observability, filled by the query paths
  /// when EvalOptions::goal_directed engaged the rewrite (all zero /
  /// empty otherwise): demand rules the rewrite added, magic-predicate
  /// tuples the evaluation derived (seeds included), and the size of the
  /// demanded cone relative to the extensional database —
  /// cone facts / edb facts, so values near (or above) 1 mean the goal
  /// was not selective and values near 0 mean the rewrite skipped most
  /// of the fixpoint. When the rewrite refused and evaluation fell back
  /// to the whole program, goal_directed_fallback holds the reason.
  size_t magic_rules = 0;
  size_t demand_facts = 0;
  double cone_fraction = 0;
  std::string goal_directed_fallback;
  /// Time spent enumerating/firing each rule, in microseconds, indexed by
  /// the rule's position in the analyzed program.
  std::vector<int64_t> rule_micros;
};

/// \brief Evaluates analyzed programs over instances.
class Evaluator {
 public:
  /// \p gen supplies invented oids; it must be the database's generator so
  /// invented oids never collide with existing ones.
  Evaluator(const Schema& schema, const CheckedProgram& program,
            OidGenerator* gen)
      : schema_(schema), program_(program), gen_(gen) {}

  /// \brief Computes the instance: the fixpoint of the program applied to
  /// \p edb, which the run takes over (callers that keep their instance
  /// pass a copy).
  Result<Instance> Run(Instance edb, const EvalOptions& options = {});

  const EvalStats& stats() const { return stats_; }

  /// \brief What the last successful Run inserted or rewrote relative to
  /// its input (Instance::CheckConsistent's touched mode).
  const TouchedItems& touched() const { return touched_; }

 private:
  friend class RuleFirer;

  const Schema& schema_;
  const CheckedProgram& program_;
  OidGenerator* gen_;
  EvalStats stats_;
  TouchedItems touched_;

  // Invented-oid memo: (rule index, serialized body valuation) -> oid.
  std::map<std::pair<size_t, std::string>, Oid> invention_memo_;

  // Interner baselines captured at Run entry, so stats and the byte
  // budget report this evaluation's share of the process-wide interner.
  uint64_t intern_hits_base_ = 0;
  uint64_t intern_bytes_base_ = 0;

  Result<bool> RunStratum(const std::vector<const CheckedRule*>& rules,
                          Instance* instance, const EvalOptions& options,
                          ResourceGovernor* governor);
  /// Enforces Budget::max_bytes against the larger of the instance's
  /// logical footprint and the interner residency this evaluation added.
  Status CheckByteBudget(const Instance& instance,
                         ResourceGovernor* governor) const;
  Status CheckDenials(const Instance& instance) const;
};

/// \brief Answers \p goal against a materialized \p instance: typechecks
/// the goal alone under (\p schema, \p functions) and returns every
/// binding of its variables (projected to named variables).
Result<std::vector<Bindings>> AnswerGoal(
    const Schema& schema, const std::vector<FunctionDecl>& functions,
    const Instance& instance, const Goal& goal);

/// \brief Grounds \p term under \p bindings against \p instance (exposed
/// for tests; data-function applications read their backing association).
Result<Value> EvalTerm(const Schema& schema, const CheckedProgram& program,
                       const Instance& instance, const TermPtr& term,
                       const Bindings& bindings);

/// \brief Matches pattern \p term against \p value, extending \p bindings.
/// Handles the oid coercions: a tuple variable bound to an object carries a
/// reserved "self" field; matching it against a bare oid compares oids.
Result<bool> MatchTerm(const Schema& schema, const CheckedProgram& program,
                       const Instance& instance, const TermPtr& term,
                       const Value& value, Bindings* bindings);

// kSelfLabel (the reserved tuple label carrying an object's oid when a
// tuple variable binds a whole object) lives in core/instance.h now, next
// to the index normalization that depends on it.

}  // namespace logres

#endif  // LOGRES_CORE_EVAL_H_
