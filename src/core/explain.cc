#include "core/explain.h"

#include <set>

#include "core/magic.h"
#include "util/string_util.h"

namespace logres {

std::string InstanceDiff::ToString() const {
  std::string out;
  for (const std::string& fact : added) out += StrCat("+ ", fact, "\n");
  for (const std::string& fact : removed) out += StrCat("- ", fact, "\n");
  return out;
}

std::string ExplainProgram(const CheckedProgram& program) {
  std::string out;
  out += StrCat("program: ", program.rules.size(), " rule(s), ",
                program.functions.size(), " function(s), ",
                program.stratified
                    ? StrCat(program.max_stratum + 1, " stratum/strata")
                    : std::string("NOT stratified (whole-program "
                                  "inflationary evaluation)"),
                "\n");
  for (const CheckedRule& rule : program.rules) {
    out += StrCat("\nrule ", rule.index, ": ", rule.source.ToString(), "\n");
    if (program.stratified && rule.index < program.rule_strata.size()) {
      out += StrCat("  stratum: ", program.rule_strata[rule.index], "\n");
    }
    if (rule.head.has_value()) {
      const ResolvedPredicate& rp = *rule.head->pred;
      out += StrCat("  head: ", rp.is_class ? "class " : "association ",
                    rp.name);
      if (rule.head->negated()) out += " (deletion)";
      if (rule.invents_oid) out += " (invents oid)";
      if (rule.shares_head_oid) out += " (shares body oid)";
      if (rule.defines_function) {
        out += StrCat(" (defines function ", rule.function_name, ")");
      }
      out += "\n";
    } else {
      out += "  head: none (denial / passive constraint)\n";
    }
    if (!rule.body.empty()) {
      out += "  schedule:\n";
      for (size_t i = 0; i < rule.body.size(); ++i) {
        out += StrCat("    ", i + 1, ". ", rule.body[i].source.ToString(),
                      "\n");
      }
    }
    if (!rule.var_types.empty()) {
      out += "  variable types:\n";
      for (const auto& [var, type] : rule.var_types) {
        out += StrCat("    ", var, " : ", type.ToString(), "\n");
      }
    }
  }
  if (program.stratified && !program.strata.empty()) {
    out += "\nstrata:\n";
    for (const auto& [pred, stratum] : program.strata) {
      out += StrCat("  ", pred, " -> ", stratum, "\n");
    }
  }
  return out;
}

std::string DependencyGraphDot(const Schema& schema,
                               const CheckedProgram& program) {
  (void)schema;
  // Reconstruct edges the same way the stratifier sees them: through the
  // analyzed rules.
  std::set<std::string> nodes;
  std::set<std::tuple<std::string, std::string, bool>> edges;
  for (const CheckedRule& rule : program.rules) {
    if (!rule.head.has_value()) continue;
    const std::string& head = rule.head->pred->name;
    nodes.insert(head);
    for (const CheckedLiteral& lit : rule.body) {
      if (lit.pred.has_value()) {
        nodes.insert(lit.pred->name);
        edges.emplace(head, lit.pred->name, lit.negated());
      }
    }
    if (rule.head->negated()) edges.emplace(head, head, true);
  }
  std::string out = "digraph logres {\n  rankdir=BT;\n";
  for (const std::string& node : nodes) {
    out += StrCat("  \"", node, "\";\n");
  }
  for (const auto& [from, to, negative] : edges) {
    out += StrCat("  \"", from, "\" -> \"", to, "\"",
                  negative ? " [style=dashed, label=\"-\"]" : "", ";\n");
  }
  out += "}\n";
  return out;
}

InstanceDiff DiffInstances(const Instance& before, const Instance& after) {
  InstanceDiff diff;
  auto facts_of = [](const Instance& inst) {
    std::set<std::string> facts;
    for (const auto& [cls, oids] : inst.class_oids()) {
      for (Oid oid : oids) {
        auto v = inst.OValue(oid);
        facts.insert(StrCat(cls, " #", oid.id, " = ",
                            v.ok() ? v.value().ToString() : "?"));
      }
    }
    for (const auto& [assoc, tuples] : inst.associations()) {
      // Magic (demand) relations are evaluation scaffolding, never part
      // of the user-visible instance.
      if (IsMagicName(assoc)) continue;
      for (const Value& t : tuples) {
        facts.insert(StrCat(assoc, " ", t.ToString()));
      }
    }
    return facts;
  };
  std::set<std::string> b = facts_of(before);
  std::set<std::string> a = facts_of(after);
  for (const std::string& fact : a) {
    if (!b.count(fact)) diff.added.push_back(fact);
  }
  for (const std::string& fact : b) {
    if (!a.count(fact)) diff.removed.push_back(fact);
  }
  return diff;
}

std::string ExplainStats(const EvalStats& stats) {
  // Interner fields print only when interning was on (they are all 0
  // otherwise), like the optional bytes field.
  std::string interner;
  if (stats.interner_nodes != 0 || stats.interner_hits != 0 ||
      stats.interner_bytes != 0) {
    interner = StrCat(" interned_nodes=", stats.interner_nodes,
                      " interned_hits=", stats.interner_hits,
                      " interned_bytes=", stats.interner_bytes);
  }
  // Goal-directed fields print only when a query went through the
  // magic-set path (applied or explicitly fallen back).
  std::string goal_directed;
  if (!stats.goal_directed_fallback.empty()) {
    goal_directed =
        StrCat(" goal_directed=fallback (", stats.goal_directed_fallback, ")");
  } else if (stats.magic_rules != 0 || stats.demand_facts != 0 ||
             stats.cone_fraction != 0) {
    goal_directed = StrCat(" magic_rules=", stats.magic_rules,
                           " demand_facts=", stats.demand_facts,
                           " cone_fraction=", stats.cone_fraction);
  }
  return StrCat("steps=", stats.steps, " firings=", stats.rule_firings,
                " invented_oids=", stats.invented_oids,
                " deletions=", stats.deletions, " facts=", stats.facts,
                stats.bytes != 0 ? StrCat(" bytes=", stats.bytes) : "",
                " elapsed_us=", stats.elapsed_micros, interner,
                goal_directed);
}

}  // namespace logres
