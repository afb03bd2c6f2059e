// Goal-directed evaluation via magic-set rewriting (ROADMAP item 4).
//
// A module goal with constant arguments is a demand point: a query like
// `? tc(a: 0, b: X)` only needs the cone of facts reachable from the
// binding a = 0, while the evaluators compute the whole fixpoint — O(edb)
// work where O(answer) suffices. MagicRewriteForGoal derives a bound/free
// *adornment* for every derived predicate reachable from the goal
// (bound = argument positions whose values flow from the goal's constants
// through the rules), then emits the classic demand transformation:
//
//   * one *magic predicate* $MAGIC$P per demanded predicate P, holding the
//     tuples of bound-field values P is demanded at;
//   * every rule for P gets the guard literal $MAGIC$P(bound fields) in
//     front of its body, so it only fires for demanded bindings;
//   * for each derived body literal Q of a rule for P, a *magic rule*
//     $MAGIC$Q(bound) <- $MAGIC$P(bound), prefix — where the prefix is the
//     body up to Q in the type checker's bound-first execution schedule
//     (the PR 4 SIP: sideways information passes left-to-right through the
//     scheduled body);
//   * the goal's constants seed $MAGIC$P as extensional facts.
//
// The rewritten program runs on the unmodified engines (the direct
// evaluator and the ALGRES backend). Both call the same pair around their
// run: SeedDemand builds the seeded input and StripToCone strips the magic
// predicates from the result, before anything user-visible sees it, and
// computes the cone statistics.
//
// The rewrite refuses (applied = false, with the reason recorded) whenever
// it cannot prove the cone equals the whole-program answer:
//   * the goal has no selective bound argument (nothing to demand);
//   * the program leaves the monotone association fragment: class heads
//     (o-value supersede and oid invention are not monotone under a
//     partial cone), deletion heads, denials, data functions, collection
//     builtins;
//   * a negated body literal has variables bound by no positive literal —
//     those range over the *active domain* (Section 2.1), which is smaller
//     in the cone than in the whole program;
//   * the rewritten program is no longer stratified. Magic rules copy
//     negated prefix literals, so rewriting a stratified program can
//     produce negation through a demand cycle; evaluating that would
//     silently change semantics, so it is detected (by re-running the
//     stratifier on the rewrite) and the whole-program path is used.
//
// Fallback is never an error: callers evaluate the original program and
// record the reason in EvalStats::goal_directed_fallback.

#ifndef LOGRES_CORE_MAGIC_H_
#define LOGRES_CORE_MAGIC_H_

#include <string>
#include <utility>
#include <vector>

#include "core/ast.h"
#include "core/eval.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/typecheck.h"

namespace logres {

/// \brief Reserved name prefix of magic (demand) associations, following
/// the "$FN$" convention for data-function backing associations.
inline constexpr char kMagicPrefix[] = "$MAGIC$";

/// \brief True for names of magic predicates (never user-declarable: '$'
/// is not an identifier character).
bool IsMagicName(const std::string& name);

/// \brief Outcome of the demand transformation.
struct MagicRewrite {
  /// True when the rewrite is sound and selective for this goal; false
  /// means callers must evaluate the whole program (reason below).
  bool applied = false;
  std::string fallback_reason;

  /// The effective schema augmented with the magic associations. Valid
  /// (and referenced by `checked`) only when applied.
  Schema schema;
  /// The rewritten source program: guarded rules in original order (rules
  /// whose head the goal never demands are dropped), then the magic rules.
  std::vector<Rule> rules;
  /// `rules` analyzed against `schema` (stratified by construction —
  /// a rewrite that loses stratification is reported as fallback).
  CheckedProgram checked;
  /// Demand seeds derived from the goal's constants, to insert into the
  /// evaluation's extensional database: (magic association, tuple).
  std::vector<std::pair<std::string, Value>> seeds;

  /// Canonical names of the magic associations, sorted.
  std::vector<std::string> magic_predicates;
  /// Demand rules added (guards on kept rules not counted).
  size_t magic_rule_count = 0;
  /// Original rules dropped as unreachable from the goal.
  size_t dropped_rules = 0;

  /// Human-readable rewrite plan (adornments, kept/guarded/magic rules,
  /// seeds) — surfaced by `explain`/the shell. Deterministic for a fixed
  /// (program, goal).
  std::string plan;
};

/// \brief Attempts the magic-set rewrite of (\p rules, \p goal) against
/// \p effective_schema (the database's schema with function backing
/// associations declared). Never fails: an unsupported program or goal
/// yields applied = false with the reason filled in.
MagicRewrite MagicRewriteForGoal(const Schema& effective_schema,
                                 const std::vector<FunctionDecl>& functions,
                                 const std::vector<Rule>& rules,
                                 const Goal& goal,
                                 const EvalOptions& options);

/// \brief The input of the rewritten program's evaluation: a copy of
/// \p edb with \p rewrite's demand seeds inserted.
Instance SeedDemand(const MagicRewrite& rewrite, const Instance& edb);

/// \brief Turns \p demanded, the fixpoint of the rewritten program over
/// SeedDemand(\p rewrite, \p edb), into the goal's cone: removes every
/// magic association, so dumps, diffs, and user-visible relations never
/// contain demand bookkeeping. When \p stats is non-null, fills its
/// magic-set fields — magic_rules, demand_facts (magic tuples, seeds
/// included), cone_fraction (cone facts / \p edb facts) — and facts
/// (the cone's).
void StripToCone(const MagicRewrite& rewrite, const Instance& edb,
                 Instance* demanded, EvalStats* stats);

}  // namespace logres

#endif  // LOGRES_CORE_MAGIC_H_
