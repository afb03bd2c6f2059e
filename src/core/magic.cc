#include "core/magic.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace logres {
namespace {

/// Demand pattern of one derived predicate: the set of fields whose
/// values flow from the goal. `full` means the predicate is demanded at
/// every binding (its rules run unguarded, no magic predicate exists).
/// Two occurrences demanding different field sets are weakened to the
/// intersection — one adornment per predicate keeps the rewrite linear
/// in the program and is always sound (weaker demand = larger cone).
struct Adornment {
  bool full = false;
  std::set<std::string> bound;
};

std::string MagicName(const std::string& pred) {
  return std::string(kMagicPrefix) + pred;
}

std::set<std::string> VarsOf(const Literal& lit) {
  std::vector<std::string> vars;
  lit.CollectVariables(&vars);
  return std::set<std::string>(vars.begin(), vars.end());
}

void AddVars(const Literal& lit, std::set<std::string>* bound) {
  std::vector<std::string> vars;
  lit.CollectVariables(&vars);
  bound->insert(vars.begin(), vars.end());
}

bool IsSubset(const std::set<std::string>& sub,
              const std::set<std::string>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

/// Labels of \p pred whose argument is a constant or an already-bound
/// variable — the demand this occurrence can absorb.
std::set<std::string> BoundLabels(const ResolvedPredicate& pred,
                                  const std::set<std::string>& bound_vars) {
  std::set<std::string> out;
  for (const auto& [label, term] : pred.fields) {
    if (term->kind() == TermKind::kConstant) {
      out.insert(label);
    } else if (term->kind() == TermKind::kVariable &&
               bound_vars.count(term->name()) > 0) {
      out.insert(label);
    }
  }
  return out;
}

/// Intersection-weakening merge; true when the adornment changed.
bool MergeDemand(std::map<std::string, Adornment>* adorn,
                 const std::string& pred,
                 const std::set<std::string>& occurrence_bound) {
  auto it = adorn->find(pred);
  if (it == adorn->end()) {
    Adornment a;
    if (occurrence_bound.empty()) {
      a.full = true;
    } else {
      a.bound = occurrence_bound;
    }
    adorn->emplace(pred, std::move(a));
    return true;
  }
  Adornment& a = it->second;
  if (a.full) return false;
  std::set<std::string> inter;
  std::set_intersection(a.bound.begin(), a.bound.end(),
                        occurrence_bound.begin(), occurrence_bound.end(),
                        std::inserter(inter, inter.begin()));
  if (inter == a.bound) return false;
  if (inter.empty()) {
    a.full = true;
    a.bound.clear();
  } else {
    a.bound = std::move(inter);
  }
  return true;
}

/// The magic literal for \p occurrence demanded at \p a: the occurrence's
/// terms for the adorned labels, in the predicate's declared field order
/// (which is also the magic association's field order).
Literal MagicLiteral(const std::string& pred, const Adornment& a,
                     const ResolvedPredicate& occurrence,
                     const std::vector<std::string>& field_order) {
  std::vector<Arg> args;
  for (const std::string& label : field_order) {
    if (a.bound.count(label) == 0) continue;
    for (const auto& [occ_label, term] : occurrence.fields) {
      if (occ_label == label) {
        args.push_back(Arg{label, term, /*is_self=*/false});
        break;
      }
    }
  }
  return Literal::Predicate(MagicName(pred), std::move(args));
}

}  // namespace

bool IsMagicName(const std::string& name) {
  return name.rfind(kMagicPrefix, 0) == 0;
}

Instance SeedDemand(const MagicRewrite& rewrite, const Instance& edb) {
  Instance seeded = edb;
  for (const auto& [assoc, tuple] : rewrite.seeds) {
    seeded.InsertTuple(assoc, tuple);
  }
  return seeded;
}

void StripToCone(const MagicRewrite& rewrite, const Instance& edb,
                 Instance* demanded, EvalStats* stats) {
  std::vector<std::string> magic;
  size_t demand_facts = 0;
  for (const auto& [name, tuples] : demanded->associations()) {
    if (!IsMagicName(name)) continue;
    magic.push_back(name);
    demand_facts += tuples.size();
  }
  for (const std::string& name : magic) demanded->DropAssociation(name);
  if (stats == nullptr) return;
  stats->magic_rules = rewrite.magic_rule_count;
  stats->demand_facts = demand_facts;
  stats->facts = demanded->TotalFacts();
  stats->cone_fraction =
      edb.TotalFacts() == 0
          ? 0.0
          : static_cast<double>(stats->facts) / edb.TotalFacts();
}

MagicRewrite MagicRewriteForGoal(const Schema& effective_schema,
                                 const std::vector<FunctionDecl>& functions,
                                 const std::vector<Rule>& rules,
                                 const Goal& goal,
                                 const EvalOptions& options) {
  MagicRewrite mr;
  auto fallback = [](std::string reason) -> MagicRewrite {
    MagicRewrite out;
    out.applied = false;
    out.fallback_reason = std::move(reason);
    out.plan = "goal-directed: fallback to whole-program evaluation (" +
               out.fallback_reason + ")";
    return out;
  };

  if (options.mode != EvalMode::kStratified) {
    return fallback("goal-directed evaluation requires stratified mode");
  }
  if (!functions.empty()) {
    return fallback("data functions present");
  }
  if (goal.literals.empty()) {
    return fallback("empty goal");
  }

  Result<CheckedProgram> checked_or =
      Typecheck(effective_schema, functions, rules);
  if (!checked_or.ok()) {
    return fallback(StrCat("program analysis failed: ",
                           checked_or.status().message()));
  }
  CheckedProgram checked = std::move(checked_or).value();
  if (!checked.stratified) {
    return fallback("program is not stratified");
  }

  // The goal is analyzed as a headless rule, exactly like
  // Evaluator::AnswerGoal will evaluate it over the cone — in particular
  // with the same bound-first body schedule, so the sideways information
  // passes used below to seed demand are the ones the answer enumeration
  // will take.
  Rule goal_rule;
  goal_rule.body = goal.literals;
  Result<CheckedProgram> goal_or =
      Typecheck(effective_schema, functions, {goal_rule});
  if (!goal_or.ok()) {
    return fallback(
        StrCat("goal analysis failed: ", goal_or.status().message()));
  }
  const CheckedRule& checked_goal = goal_or.value().rules[0];

  // ---- Fragment gates -----------------------------------------------------
  // Everything here is a *proof obligation*, not a preference: each gate
  // names a construct whose whole-program semantics the demanded cone
  // cannot be proven to reproduce (see the header comment).
  for (const CheckedRule& rule : checked.rules) {
    if (rule.source.is_denial()) {
      return fallback("denial constraints present");
    }
    if (rule.head->negated()) {
      return fallback("deletion (negated) heads present");
    }
    if (rule.head->pred.has_value() && rule.head->pred->is_class) {
      return fallback("class-predicate heads present");
    }
    if (rule.invents_oid || rule.shares_head_oid) {
      return fallback("oid invention present");
    }
    if (rule.defines_function) {
      return fallback("data functions present");
    }
  }
  auto gate_body = [&](const std::vector<CheckedLiteral>& body,
                       const char* what) -> std::optional<std::string> {
    std::set<std::string> positive_vars;
    for (const CheckedLiteral& cl : body) {
      if (cl.kind() == LiteralKind::kBuiltin) {
        return StrCat("collection builtins present in ", what);
      }
      if (cl.kind() == LiteralKind::kPredicate && !cl.negated()) {
        AddVars(cl.source, &positive_vars);
      }
    }
    for (const CheckedLiteral& cl : body) {
      if (cl.kind() == LiteralKind::kPredicate && cl.negated() &&
          !IsSubset(VarsOf(cl.source), positive_vars)) {
        // An unbound variable in a negated literal enumerates the active
        // domain (eval.cc ForEachNegatedMatch) — which is smaller in the
        // cone than in the whole program, so the results could differ.
        return StrCat("negated literal ranges over the active domain in ",
                      what);
      }
    }
    return std::nullopt;
  };
  for (const CheckedRule& rule : checked.rules) {
    if (auto why = gate_body(rule.body, "a rule body")) return fallback(*why);
  }
  if (auto why = gate_body(checked_goal.body, "the goal")) {
    return fallback(*why);
  }

  // Derived (IDB) predicates and their declared field order.
  std::set<std::string> idb;
  for (const CheckedRule& rule : checked.rules) {
    idb.insert(rule.head->pred->name);
  }
  std::map<std::string, std::vector<std::string>> field_order;
  for (const std::string& pred : idb) {
    Result<std::vector<std::pair<std::string, Type>>> fields_or =
        effective_schema.EffectiveFields(pred);
    if (!fields_or.ok()) {
      return fallback(StrCat("cannot resolve fields of ", pred, ": ",
                             fields_or.status().message()));
    }
    std::vector<std::string>& order = field_order[pred];
    for (const auto& [label, type] : *fields_or) order.push_back(label);
  }
  // Demand can only be expressed over occurrences whose arguments are
  // plain constants/variables per labeled field; tuple variables or
  // constructed terms on a derived predicate defeat the guard/magic
  // literal construction.
  auto occurrence_simple = [&](const CheckedLiteral& cl) {
    if (!cl.pred.has_value() || idb.count(cl.pred->name) == 0) return true;
    if (cl.pred->tuple_var != nullptr || cl.pred->self_term != nullptr) {
      return false;
    }
    for (const auto& [label, term] : cl.pred->fields) {
      if (term->kind() != TermKind::kConstant &&
          term->kind() != TermKind::kVariable) {
        return false;
      }
    }
    return true;
  };
  for (const CheckedRule& rule : checked.rules) {
    if (!occurrence_simple(*rule.head)) {
      return fallback("complex arguments on a derived predicate");
    }
    for (const CheckedLiteral& cl : rule.body) {
      if (cl.kind() == LiteralKind::kPredicate && !occurrence_simple(cl)) {
        return fallback("complex arguments on a derived predicate");
      }
    }
  }
  for (const CheckedLiteral& cl : checked_goal.body) {
    if (cl.kind() == LiteralKind::kPredicate && !occurrence_simple(cl)) {
      return fallback("complex arguments on a derived predicate");
    }
  }

  // ---- Adornment fixpoint -------------------------------------------------
  // Walk each demanded rule in its scheduled body order, tracking which
  // variables are bound (head fields named by the adornment, then each
  // positive literal's variables — the PR 4 SIP), and fold every derived
  // occurrence's bound-label set into its predicate's adornment. Merges
  // only weaken (shrink or flip to full), so this terminates.
  std::map<std::string, Adornment> adorn;
  auto walk = [&](const CheckedRule& rule,
                  const Adornment* head_adorn) -> bool {
    bool changed = false;
    std::set<std::string> bound;
    if (head_adorn != nullptr && !head_adorn->full) {
      for (const auto& [label, term] : rule.head->pred->fields) {
        if (head_adorn->bound.count(label) > 0 &&
            term->kind() == TermKind::kVariable) {
          bound.insert(term->name());
        }
      }
    }
    for (const CheckedLiteral& cl : rule.body) {
      if (cl.kind() != LiteralKind::kPredicate) continue;
      const ResolvedPredicate& rp = *cl.pred;
      if (idb.count(rp.name) > 0) {
        changed |= MergeDemand(&adorn, rp.name, BoundLabels(rp, bound));
      }
      if (!cl.negated()) AddVars(cl.source, &bound);
    }
    return changed;
  };
  for (bool changed = true; changed;) {
    changed = walk(checked_goal, nullptr);
    for (const CheckedRule& rule : checked.rules) {
      auto it = adorn.find(rule.head->pred->name);
      if (it == adorn.end()) continue;
      Adornment head_adorn = it->second;  // copy: walk may reallocate
      changed |= walk(rule, &head_adorn);
    }
  }

  size_t kept = 0;
  for (const CheckedRule& rule : checked.rules) {
    if (adorn.count(rule.head->pred->name) > 0) ++kept;
  }
  size_t dropped = checked.rules.size() - kept;
  bool any_magic = false;
  for (const auto& [pred, a] : adorn) any_magic |= !a.full;
  if (!any_magic && dropped == 0) {
    return fallback(
        "goal does not restrict evaluation "
        "(no bound argument reaches a derived predicate)");
  }

  // ---- Schema: declare the magic associations -----------------------------
  mr.schema = effective_schema;
  for (const auto& [pred, a] : adorn) {
    if (a.full) continue;
    Result<std::vector<std::pair<std::string, Type>>> fields_or =
        effective_schema.EffectiveFields(pred);
    std::vector<std::pair<std::string, Type>> magic_fields;
    for (const auto& [label, type] : *fields_or) {
      if (a.bound.count(label) > 0) magic_fields.emplace_back(label, type);
    }
    Status declared = mr.schema.DeclareAssociation(
        MagicName(pred), Type::Tuple(std::move(magic_fields)));
    if (!declared.ok()) {
      return fallback(StrCat("cannot declare magic association for ", pred,
                             ": ", declared.message()));
    }
    mr.magic_predicates.push_back(MagicName(pred));
  }

  // ---- Guarded rules, magic rules, seeds ----------------------------------
  std::set<std::string> rule_keys;  // dedupe magic rules by printed form
  std::set<std::pair<std::string, Value>> seed_set;
  std::vector<Rule> magic_rules;
  auto emit_demand = [&](const CheckedRule& rule,
                         const Adornment* head_adorn,
                         const std::optional<Literal>& guard) {
    std::set<std::string> bound;
    if (head_adorn != nullptr && !head_adorn->full) {
      for (const auto& [label, term] : rule.head->pred->fields) {
        if (head_adorn->bound.count(label) > 0 &&
            term->kind() == TermKind::kVariable) {
          bound.insert(term->name());
        }
      }
    }
    std::vector<Literal> prefix;
    for (const CheckedLiteral& cl : rule.body) {
      if (cl.kind() == LiteralKind::kCompare) {
        // A comparison whose variables are all bound sharpens demand;
        // one that would *bind* (e.g. X = 5 scheduled as an assignment)
        // is conservatively dropped from the prefix — weaker demand is
        // always sound.
        if (IsSubset(VarsOf(cl.source), bound)) prefix.push_back(cl.source);
        continue;
      }
      if (cl.kind() != LiteralKind::kPredicate) continue;
      const ResolvedPredicate& rp = *cl.pred;
      auto it = adorn.find(rp.name);
      if (it != adorn.end() && !it->second.full) {
        Literal magic_head =
            MagicLiteral(rp.name, it->second, rp, field_order[rp.name]);
        std::vector<Literal> body;
        if (guard.has_value()) body.push_back(*guard);
        body.insert(body.end(), prefix.begin(), prefix.end());
        if (body.empty()) {
          // Ground demand (every adorned argument is a constant): a seed
          // fact, not a rule.
          std::vector<std::pair<std::string, Value>> fields;
          for (const Arg& arg : magic_head.args) {
            fields.emplace_back(arg.label, arg.term->constant());
          }
          seed_set.emplace(MagicName(rp.name),
                           Value::MakeTuple(std::move(fields)));
        } else {
          Rule m;
          m.head = magic_head;
          m.body = std::move(body);
          bool tautology = m.body.size() == 1 &&
                           m.body[0].ToString() == magic_head.ToString();
          if (!tautology && rule_keys.insert(m.ToString()).second) {
            magic_rules.push_back(std::move(m));
          }
        }
      }
      if (!cl.negated()) {
        AddVars(cl.source, &bound);
        prefix.push_back(cl.source);
      } else if (IsSubset(VarsOf(cl.source), bound)) {
        // Negated filters only join the prefix when their variables are
        // bound by the positive literals already in it, so the magic
        // rule stays safe under the scheduler.
        prefix.push_back(cl.source);
      }
    }
  };

  std::vector<Rule> guarded;
  emit_demand(checked_goal, nullptr, std::nullopt);
  for (const CheckedRule& rule : checked.rules) {
    auto it = adorn.find(rule.head->pred->name);
    if (it == adorn.end()) continue;
    const Adornment& a = it->second;
    Rule out = rule.source;
    std::optional<Literal> guard;
    if (!a.full) {
      std::set<std::string> head_labels;
      for (const auto& [label, term] : rule.head->pred->fields) {
        head_labels.insert(label);
      }
      if (!IsSubset(a.bound, head_labels)) {
        return fallback(
            StrCat("rule head for ", rule.head->pred->name,
                   " does not expose the demanded fields"));
      }
      guard = MagicLiteral(rule.head->pred->name, a, *rule.head->pred,
                           field_order[rule.head->pred->name]);
      out.body.insert(out.body.begin(), *guard);
    }
    guarded.push_back(std::move(out));
    emit_demand(rule, &a, guard);
  }

  mr.rules = std::move(guarded);
  mr.rules.insert(mr.rules.end(), magic_rules.begin(), magic_rules.end());
  mr.seeds.assign(seed_set.begin(), seed_set.end());
  mr.magic_rule_count = magic_rules.size();
  mr.dropped_rules = dropped;

  // ---- Stratification re-check --------------------------------------------
  // Magic rules copy negated prefix literals, so the rewrite of a
  // stratified program can contain negation through a new demand cycle.
  // Evaluating that would change semantics; detect it and fall back.
  Result<CheckedProgram> rewritten_or = Typecheck(mr.schema, {}, mr.rules);
  if (!rewritten_or.ok()) {
    return fallback(StrCat("rewritten program rejected: ",
                           rewritten_or.status().message()));
  }
  if (!rewritten_or->stratified) {
    return fallback("magic rewrite would lose stratification");
  }
  mr.checked = std::move(rewritten_or).value();
  mr.applied = true;

  std::ostringstream plan;
  plan << "goal-directed plan for: " << goal.ToString() << "\n";
  plan << "  adornments (bound fields per derived predicate; * = full):\n";
  for (const auto& [pred, a] : adorn) {
    plan << "    " << pred << "[";
    if (a.full) {
      plan << "*";
    } else {
      bool first = true;
      for (const std::string& label : a.bound) {
        if (!first) plan << ", ";
        plan << label;
        first = false;
      }
    }
    plan << "]\n";
  }
  plan << "  rules: " << (mr.rules.size() - mr.magic_rule_count) << " of "
       << checked.rules.size() << " kept (" << dropped << " dropped), "
       << mr.magic_rule_count << " magic rules, " << mr.seeds.size()
       << " seeds\n";
  plan << "  rewritten program:\n";
  for (const Rule& rule : mr.rules) {
    plan << "    " << rule.ToString() << "\n";
  }
  for (const auto& [assoc, tuple] : mr.seeds) {
    plan << "    seed " << assoc << " " << tuple.ToString() << "\n";
  }
  mr.plan = plan.str();
  return mr;
}

}  // namespace logres
