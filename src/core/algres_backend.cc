#include "core/algres_backend.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>

#include "algres/interner.h"
#include "core/builtin.h"
#include "core/magic.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace logres {

using algres::Relation;
using algres::Row;

namespace {

constexpr const char* kSelfColumn = "$self";

Result<std::vector<std::string>> PredicateColumns(const Schema& schema,
                                                  const std::string& name) {
  LOGRES_ASSIGN_OR_RETURN(auto fields, schema.EffectiveFields(name));
  std::vector<std::string> columns;
  if (schema.IsClass(name)) columns.push_back(kSelfColumn);
  for (const auto& [label, type] : fields) {
    (void)type;
    columns.push_back(label);
  }
  return columns;
}

}  // namespace

Result<RelationalDb> InstanceToRelations(const Schema& schema,
                                         const Instance& instance) {
  RelationalDb db;
  for (const std::string& cls : schema.ClassNames()) {
    LOGRES_ASSIGN_OR_RETURN(auto columns, PredicateColumns(schema, cls));
    Relation rel(columns);
    LOGRES_ASSIGN_OR_RETURN(auto fields, schema.EffectiveFields(cls));
    for (Oid oid : instance.OidsOf(cls)) {
      LOGRES_ASSIGN_OR_RETURN(Value ovalue, instance.OValue(oid));
      Row row;
      row.push_back(Value::MakeOid(oid));
      for (const auto& [label, type] : fields) {
        (void)type;
        std::optional<Value> fv = ovalue.FindField(label);
        row.push_back(fv.has_value() ? *fv : Value::Nil());
      }
      LOGRES_RETURN_NOT_OK(rel.Insert(std::move(row)).status());
    }
    db.emplace(cls, std::move(rel));
  }
  for (const std::string& assoc : schema.AssociationNames()) {
    LOGRES_ASSIGN_OR_RETURN(auto columns, PredicateColumns(schema, assoc));
    Relation rel(columns);
    LOGRES_ASSIGN_OR_RETURN(auto fields, schema.EffectiveFields(assoc));
    for (const Value& tuple : instance.TuplesOf(assoc)) {
      Row row;
      for (const auto& [label, type] : fields) {
        (void)type;
        std::optional<Value> fv = tuple.FindField(label);
        row.push_back(fv.has_value() ? *fv : Value::Nil());
      }
      LOGRES_RETURN_NOT_OK(rel.Insert(std::move(row)).status());
    }
    db.emplace(assoc, std::move(rel));
  }
  return db;
}

Result<Instance> RelationsToInstance(const Schema& schema,
                                     const RelationalDb& db) {
  Instance instance;
  for (const auto& [name, rel] : db) {
    LOGRES_ASSIGN_OR_RETURN(auto fields, schema.EffectiveFields(name));
    if (schema.IsClass(name)) {
      LOGRES_ASSIGN_OR_RETURN(size_t self_idx, rel.ColumnIndex(kSelfColumn));
      for (const Row& row : rel) {
        if (row[self_idx].kind() != ValueKind::kOid) {
          return Status::ExecutionError(
              StrCat("non-oid in ", kSelfColumn, " of ", name));
        }
        std::vector<std::pair<std::string, Value>> tuple;
        for (const auto& [label, type] : fields) {
          (void)type;
          LOGRES_ASSIGN_OR_RETURN(size_t i, rel.ColumnIndex(label));
          tuple.emplace_back(label, row[i]);
        }
        LOGRES_RETURN_NOT_OK(
            instance.AdoptObject(schema, name, row[self_idx].oid_value(),
                                 Value::MakeTuple(std::move(tuple))));
      }
    } else {
      for (const Row& row : rel) {
        std::vector<std::pair<std::string, Value>> tuple;
        for (const auto& [label, type] : fields) {
          (void)type;
          LOGRES_ASSIGN_OR_RETURN(size_t i, rel.ColumnIndex(label));
          tuple.emplace_back(label, row[i]);
        }
        instance.InsertTuple(name, Value::MakeTuple(std::move(tuple)));
      }
    }
  }
  return instance;
}

Result<AlgresBackend> AlgresBackend::Compile(const Schema& schema,
                                             const CheckedProgram& program) {
  AlgresBackend backend(schema);
  if (!program.functions.empty()) {
    return Status::NotImplemented(
        "ALGRES backend: data functions are outside the flat fragment");
  }
  for (const CheckedRule& rule : program.rules) {
    if (!rule.head.has_value()) {
      return Status::NotImplemented(
          "ALGRES backend: denials are outside the flat fragment");
    }
    if (rule.head->negated() || rule.invents_oid) {
      return Status::NotImplemented(
          "ALGRES backend: deletions and oid invention are outside the "
          "flat fragment");
    }
    CompiledRule compiled;
    const ResolvedPredicate& hp = *rule.head->pred;
    compiled.head_predicate = hp.name;
    if (hp.tuple_var || hp.self_term) {
      return Status::NotImplemented(
          "ALGRES backend: head tuple/self variables are outside the flat "
          "fragment");
    }
    for (const auto& [label, term] : hp.fields) {
      // Variables, constants, and nested tuple constructions of those are
      // compilable; anything else (builtin results etc.) is not.
      std::function<bool(const TermPtr&)> compilable =
          [&](const TermPtr& t) -> bool {
        if (t->kind() == TermKind::kVariable ||
            t->kind() == TermKind::kConstant) {
          return true;
        }
        if (t->kind() != TermKind::kTupleTerm) return false;
        for (const Arg& a : t->args()) {
          if (a.is_self || a.label.empty() || !compilable(a.term)) {
            return false;
          }
        }
        return true;
      };
      if (!compilable(term)) {
        return Status::NotImplemented(
            StrCat("ALGRES backend: complex head term ", term->ToString()));
      }
      compiled.head_columns.emplace_back(label, term);
    }
    for (const CheckedLiteral& lit : rule.body) {
      if (lit.negated()) {
        // Stratified negation compiles to an anti-join; the stratum loop
        // in RunRelational guarantees the negated predicate is complete.
        if (lit.kind() != LiteralKind::kPredicate) {
          if (lit.kind() == LiteralKind::kCompare) {
            compiled.compares.push_back(CompiledCompare{
                lit.source.compare_op, lit.source.compare_lhs,
                lit.source.compare_rhs, /*negated=*/true});
            continue;
          }
          return Status::NotImplemented(
              "ALGRES backend: negated builtins are outside the flat "
              "fragment");
        }
        if (!program.stratified) {
          return Status::NotImplemented(
              "ALGRES backend: negation requires a stratified program");
        }
      }
      if (lit.kind() == LiteralKind::kCompare) {
        compiled.compares.push_back(CompiledCompare{
            lit.source.compare_op, lit.source.compare_lhs,
            lit.source.compare_rhs, lit.negated()});
        continue;
      }
      if (lit.kind() == LiteralKind::kBuiltin) {
        return Status::NotImplemented(
            StrCat("ALGRES backend: builtin ", lit.source.builtin,
                   " is outside the flat fragment"));
      }
      const ResolvedPredicate& rp = *lit.pred;
      if (rp.tuple_var) {
        return Status::NotImplemented(
            "ALGRES backend: tuple variables are outside the flat fragment");
      }
      CompiledLiteral cl;
      cl.predicate = rp.name;
      if (rp.self_term) {
        if (rp.self_term->kind() != TermKind::kVariable) {
          return Status::NotImplemented(
              "ALGRES backend: non-variable self term");
        }
        cl.var_projects.emplace_back(kSelfColumn, rp.self_term->name());
      }
      for (const auto& [label, term] : rp.fields) {
        if (term->kind() == TermKind::kConstant) {
          cl.const_selects.emplace_back(label, term->constant());
        } else if (term->kind() == TermKind::kVariable) {
          cl.var_projects.emplace_back(label, term->name());
        } else if (term->kind() == TermKind::kTupleTerm) {
          // NF² pattern: flatten into per-path bindings/selections.
          std::function<Status(const TermPtr&, std::vector<std::string>&)>
              flatten = [&](const TermPtr& t,
                            std::vector<std::string>& path) -> Status {
            for (const Arg& a : t->args()) {
              if (a.is_self || a.label.empty()) {
                return Status::NotImplemented(
                    "ALGRES backend: object patterns are outside the "
                    "flat fragment");
              }
              path.push_back(ToLower(a.label));
              if (a.term->kind() == TermKind::kConstant) {
                cl.path_selects.emplace_back(label, path,
                                             a.term->constant());
              } else if (a.term->kind() == TermKind::kVariable) {
                cl.path_projects.emplace_back(label, path,
                                              a.term->name());
              } else if (a.term->kind() == TermKind::kTupleTerm) {
                LOGRES_RETURN_NOT_OK(flatten(a.term, path));
              } else {
                return Status::NotImplemented(
                    StrCat("ALGRES backend: nested term ",
                           a.term->ToString()));
              }
              path.pop_back();
            }
            return Status::OK();
          };
          std::vector<std::string> path;
          LOGRES_RETURN_NOT_OK(flatten(term, path));
        } else {
          return Status::NotImplemented(
              StrCat("ALGRES backend: complex body term ",
                     term->ToString()));
        }
      }
      if (lit.negated()) {
        compiled.negated_literals.push_back(std::move(cl));
      } else {
        compiled.literals.push_back(std::move(cl));
      }
    }
    if (compiled.literals.empty() && !rule.source.body.empty()) {
      return Status::NotImplemented(
          "ALGRES backend: rules without predicate literals");
    }
    if (rule.index < program.rule_strata.size()) {
      compiled.stratum = program.rule_strata[rule.index];
      backend.max_stratum_ =
          std::max(backend.max_stratum_, compiled.stratum);
    }
    backend.rules_.push_back(std::move(compiled));
  }
  // Cache predicate headers.
  for (const std::string& name : schema.ClassNames()) {
    LOGRES_ASSIGN_OR_RETURN(auto cols, PredicateColumns(schema, name));
    backend.pred_columns_.emplace(name, std::move(cols));
  }
  for (const std::string& name : schema.AssociationNames()) {
    LOGRES_ASSIGN_OR_RETURN(auto cols, PredicateColumns(schema, name));
    backend.pred_columns_.emplace(name, std::move(cols));
  }
  return backend;
}

Result<Relation> AlgresBackend::EvalRule(const CompiledRule& rule,
                                         const RelationalDb& db,
                                         const RelationalDb* delta,
                                         size_t delta_index,
                                         const ResourceGovernor* governor)
    const {
  // Semi-naive early exit: when the delta literal's frontier relation is
  // empty, the whole join is empty — skip the per-literal select/project
  // pipeline over the full database (which dominates late fixpoint rounds,
  // where most predicates' frontiers are empty).
  if (delta != nullptr && delta_index < rule.literals.size()) {
    auto dit = delta->find(rule.literals[delta_index].predicate);
    if (dit == delta->end() || dit->second.size() == 0) {
      auto cols_it = pred_columns_.find(rule.head_predicate);
      if (cols_it == pred_columns_.end()) {
        return Status::NotFound(
            StrCat("no relation for head predicate ", rule.head_predicate));
      }
      return Relation(cols_it->second);
    }
  }

  // Build the binding relation: join of the compiled literals, columns
  // named after variables.
  std::optional<Relation> bindings;
  static const Relation kEmpty;
  for (size_t i = 0; i < rule.literals.size(); ++i) {
    const CompiledLiteral& lit = rule.literals[i];
    // Missing predicates (e.g. in a sparse delta) read as empty relations
    // with the predicate's proper header.
    auto lookup = [&](const RelationalDb& source_db) -> Relation {
      auto it = source_db.find(lit.predicate);
      if (it != source_db.end()) return it->second;
      auto cols = pred_columns_.find(lit.predicate);
      return cols == pred_columns_.end() ? kEmpty
                                         : Relation(cols->second);
    };
    Relation current = (delta != nullptr && i == delta_index)
                           ? lookup(*delta)
                           : lookup(db);
    // sigma: constant selections.
    for (const auto& [column, constant] : lit.const_selects) {
      LOGRES_ASSIGN_OR_RETURN(size_t idx, current.ColumnIndex(column));
      LOGRES_ASSIGN_OR_RETURN(
          current,
          algres::Select(current, [&, idx](const Row& row) -> Result<bool> {
            return row[idx] == constant;
          }));
    }
    // Nested-path access: walk tuple-valued cells.
    auto walk = [](const Value& cell,
                   const std::vector<std::string>& path) -> Value {
      Value v = cell;
      for (const std::string& label : path) {
        std::optional<Value> fv = v.FindField(label);
        if (!fv.has_value()) return Value::Nil();
        v = *fv;
      }
      return v;
    };
    for (const auto& [column, path, constant] : lit.path_selects) {
      LOGRES_ASSIGN_OR_RETURN(size_t idx, current.ColumnIndex(column));
      const auto& path_ref = path;
      const Value& const_ref = constant;
      LOGRES_ASSIGN_OR_RETURN(
          current,
          algres::Select(current, [&, idx](const Row& row) -> Result<bool> {
            return walk(row[idx], path_ref) == const_ref;
          }));
    }
    // Materialize each path binding as a derived column, then fold it
    // into the ordinary variable handling below.
    std::vector<std::pair<std::string, std::string>> all_projects =
        lit.var_projects;
    size_t path_counter = 0;
    for (const auto& [column, path, var] : lit.path_projects) {
      std::string derived = StrCat("$path$", path_counter++);
      LOGRES_ASSIGN_OR_RETURN(size_t idx, current.ColumnIndex(column));
      const auto& path_ref = path;
      LOGRES_ASSIGN_OR_RETURN(
          current,
          algres::Extend(current, derived,
                         [&, idx](const Row& row) -> Result<Value> {
                           return walk(row[idx], path_ref);
                         }));
      all_projects.emplace_back(derived, var);
    }
    // Repeated variables within one literal become intra-literal
    // selections; then project/rename columns to variable names.
    std::map<std::string, std::string> var_to_col;  // var -> first column
    std::vector<std::pair<size_t, size_t>> equal_cols;
    for (const auto& [column, var] : all_projects) {
      auto it = var_to_col.find(var);
      if (it == var_to_col.end()) {
        var_to_col.emplace(var, column);
      } else {
        LOGRES_ASSIGN_OR_RETURN(size_t a, current.ColumnIndex(it->second));
        LOGRES_ASSIGN_OR_RETURN(size_t b, current.ColumnIndex(column));
        equal_cols.emplace_back(a, b);
      }
    }
    if (!equal_cols.empty()) {
      LOGRES_ASSIGN_OR_RETURN(
          current,
          algres::Select(current, [&](const Row& row) -> Result<bool> {
            for (const auto& [a, b] : equal_cols) {
              if (!(row[a] == row[b])) return false;
            }
            return true;
          }));
    }
    std::vector<std::string> keep;
    std::vector<std::pair<std::string, std::string>> renames;
    for (const auto& [var, column] : var_to_col) {
      keep.push_back(column);
      renames.emplace_back(column, var);
    }
    LOGRES_ASSIGN_OR_RETURN(current, algres::Project(current, keep));
    LOGRES_ASSIGN_OR_RETURN(current, algres::Rename(current, renames));
    if (!bindings.has_value()) {
      bindings = std::move(current);
    } else {
      LOGRES_ASSIGN_OR_RETURN(bindings,
                              algres::NaturalJoin(*bindings, current,
                                                  governor));
    }
  }
  if (!bindings.has_value()) {
    // A fact rule: a single empty-schema row.
    Relation unit(std::vector<std::string>{});
    LOGRES_RETURN_NOT_OK(unit.Insert({}).status());
    bindings = std::move(unit);
  }

  // Anti-joins for stratified negation: drop binding rows whose shared
  // variables match some fact of the negated literal. Negated literals
  // always read the full database, never the delta.
  for (const CompiledLiteral& neg : rule.negated_literals) {
    auto it = db.find(neg.predicate);
    static const Relation kNoRows;
    const Relation& source = it == db.end() ? kNoRows : it->second;
    // Build (variable-named) rows of the negated literal.
    std::unordered_set<Row, algres::RowHash> neg_keys;
    std::vector<std::string> key_vars;
    {
      std::map<std::string, std::string> var_to_col;
      for (const auto& [column, var] : neg.var_projects) {
        if (!var_to_col.count(var)) var_to_col.emplace(var, column);
      }
      for (const auto& [var, column] : var_to_col) {
        (void)column;
        if (!bindings->HasColumn(var)) {
          return Status::NotImplemented(
              StrCat("ALGRES backend: variable ", var,
                     " of a negated literal is not bound by a positive "
                     "literal"));
        }
        key_vars.push_back(var);
      }
      for (const Row& row : source) {
        bool constants_ok = true;
        for (const auto& [column, constant] : neg.const_selects) {
          LOGRES_ASSIGN_OR_RETURN(size_t idx, source.ColumnIndex(column));
          if (!(row[idx] == constant)) {
            constants_ok = false;
            break;
          }
        }
        if (!constants_ok) continue;
        // Repeated variables inside the negated literal must agree.
        bool repeats_ok = true;
        std::map<std::string, Value> seen;
        for (const auto& [column, var] : neg.var_projects) {
          LOGRES_ASSIGN_OR_RETURN(size_t idx, source.ColumnIndex(column));
          auto [sit, inserted] = seen.emplace(var, row[idx]);
          if (!inserted && !(sit->second == row[idx])) {
            repeats_ok = false;
            break;
          }
        }
        if (!repeats_ok) continue;
        Row key;
        for (const std::string& var : key_vars) key.push_back(seen.at(var));
        neg_keys.insert(std::move(key));
      }
    }
    std::vector<size_t> key_idx;
    for (const std::string& var : key_vars) {
      LOGRES_ASSIGN_OR_RETURN(size_t idx, bindings->ColumnIndex(var));
      key_idx.push_back(idx);
    }
    LOGRES_ASSIGN_OR_RETURN(
        bindings,
        algres::Select(*bindings, [&](const Row& row) -> Result<bool> {
          Row key;
          key.reserve(key_idx.size());
          for (size_t idx : key_idx) key.push_back(row[idx]);
          return neg_keys.count(key) == 0;
        }));
  }

  // Comparison literals: a positive equality whose one side is a fresh
  // variable and whose other side is computable from existing columns
  // *binds* (an Extend); everything else selects.
  auto term_vars_bound = [&](const TermPtr& t) {
    std::vector<std::string> vars;
    t->CollectVariables(&vars);
    for (const std::string& v : vars) {
      if (!bindings->HasColumn(v)) return false;
    }
    return true;
  };
  for (const CompiledCompare& cmp : rule.compares) {
    if (cmp.op == CompareOp::kEq && !cmp.negated) {
      const TermPtr* fresh = nullptr;
      const TermPtr* expr = nullptr;
      if (cmp.lhs->kind() == TermKind::kVariable &&
          !bindings->HasColumn(cmp.lhs->name()) &&
          term_vars_bound(cmp.rhs)) {
        fresh = &cmp.lhs;
        expr = &cmp.rhs;
      } else if (cmp.rhs->kind() == TermKind::kVariable &&
                 !bindings->HasColumn(cmp.rhs->name()) &&
                 term_vars_bound(cmp.lhs)) {
        fresh = &cmp.rhs;
        expr = &cmp.lhs;
      }
      if (fresh != nullptr) {
        std::function<Result<Value>(const TermPtr&, const Row&)> eval =
            [&](const TermPtr& term, const Row& row) -> Result<Value> {
          switch (term->kind()) {
            case TermKind::kConstant:
              return term->constant();
            case TermKind::kVariable: {
              LOGRES_ASSIGN_OR_RETURN(
                  size_t idx, bindings->ColumnIndex(term->name()));
              return row[idx];
            }
            case TermKind::kArith: {
              LOGRES_ASSIGN_OR_RETURN(Value a, eval(term->lhs(), row));
              LOGRES_ASSIGN_OR_RETURN(Value b, eval(term->rhs(), row));
              return EvalArith(term->arith_op(), a, b);
            }
            default:
              return Status::NotImplemented(
                  StrCat("ALGRES backend: binding term ",
                         term->ToString()));
          }
        };
        LOGRES_ASSIGN_OR_RETURN(
            bindings,
            algres::Extend(*bindings, (*fresh)->name(),
                           [&](const Row& row) -> Result<Value> {
                             return eval(*expr, row);
                           }));
        continue;
      }
    }
    // Evaluate both sides per row through a tiny term interpreter over
    // variable columns.
    std::function<Result<Value>(const TermPtr&, const Row&)> eval =
        [&](const TermPtr& term, const Row& row) -> Result<Value> {
      switch (term->kind()) {
        case TermKind::kConstant:
          return term->constant();
        case TermKind::kVariable: {
          LOGRES_ASSIGN_OR_RETURN(size_t idx,
                                  bindings->ColumnIndex(term->name()));
          return row[idx];
        }
        case TermKind::kArith: {
          LOGRES_ASSIGN_OR_RETURN(Value a, eval(term->lhs(), row));
          LOGRES_ASSIGN_OR_RETURN(Value b, eval(term->rhs(), row));
          return EvalArith(term->arith_op(), a, b);
        }
        default:
          return Status::NotImplemented(
              StrCat("ALGRES backend: comparison term ", term->ToString()));
      }
    };
    LOGRES_ASSIGN_OR_RETURN(
        bindings,
        algres::Select(*bindings, [&](const Row& row) -> Result<bool> {
          LOGRES_ASSIGN_OR_RETURN(Value l, eval(cmp.lhs, row));
          LOGRES_ASSIGN_OR_RETURN(Value r, eval(cmp.rhs, row));
          bool holds;
          if (cmp.op == CompareOp::kEq) {
            holds = l == r;
          } else if (cmp.op == CompareOp::kNe) {
            holds = !(l == r);
          } else {
            LOGRES_ASSIGN_OR_RETURN(int c, CompareValues(l, r));
            switch (cmp.op) {
              case CompareOp::kLt: holds = c < 0; break;
              case CompareOp::kLe: holds = c <= 0; break;
              case CompareOp::kGt: holds = c > 0; break;
              case CompareOp::kGe: holds = c >= 0; break;
              default: holds = false; break;
            }
          }
          return cmp.negated ? !holds : holds;
        }));
  }

  // pi: head projection.
  auto cols_it = pred_columns_.find(rule.head_predicate);
  if (cols_it == pred_columns_.end()) {
    return Status::NotFound(
        StrCat("no relation for head predicate ", rule.head_predicate));
  }
  Relation out(cols_it->second);
  for (const Row& row : *bindings) {
    Row out_row;
    for (const std::string& column : cols_it->second) {
      const TermPtr* term = nullptr;
      for (const auto& [label, t] : rule.head_columns) {
        if (label == column) {
          term = &t;
          break;
        }
      }
      if (term == nullptr) {
        out_row.push_back(Value::Nil());
        continue;
      }
      std::function<Result<Value>(const TermPtr&)> build =
          [&](const TermPtr& t) -> Result<Value> {
        if (t->kind() == TermKind::kConstant) return t->constant();
        if (t->kind() == TermKind::kVariable) {
          LOGRES_ASSIGN_OR_RETURN(size_t idx,
                                  bindings->ColumnIndex(t->name()));
          return row[idx];
        }
        if (t->kind() == TermKind::kTupleTerm) {
          std::vector<std::pair<std::string, Value>> fields;
          for (const Arg& a : t->args()) {
            LOGRES_ASSIGN_OR_RETURN(Value v, build(a.term));
            fields.emplace_back(ToLower(a.label), std::move(v));
          }
          return Value::MakeTuple(std::move(fields));
        }
        return Status::NotImplemented("uncompilable head term");
      };
      LOGRES_ASSIGN_OR_RETURN(Value cell, build(*term));
      out_row.push_back(std::move(cell));
    }
    LOGRES_RETURN_NOT_OK(out.Insert(std::move(out_row)).status());
  }
  return out;
}

Result<bool> AlgresBackend::RunStratum(
    const std::vector<const CompiledRule*>& rules, RelationalDb* db,
    AlgresStrategy strategy, ResourceGovernor* governor) const {
  auto total_rows = [&db]() {
    size_t rows = 0;
    for (const auto& [name, rel] : *db) {
      (void)name;
      rows += rel.size();
    }
    return rows;
  };
  // Byte budget: the larger of the database's logical footprint (shared
  // subtrees counted per occurrence, the historical measure) and the
  // interner residency this run added (see Evaluator::CheckByteBudget).
  uint64_t intern_bytes_base = ValueInterner::stats().resident_bytes;
  auto check_growth = [&db, &total_rows, governor,
                       intern_bytes_base]() -> Status {
    LOGRES_RETURN_NOT_OK(governor->CheckFacts(total_rows()));
    if (governor->wants_bytes()) {
      size_t bytes = 0;
      for (const auto& [name, rel] : *db) {
        bytes += name.capacity();
        for (const Row& row : rel) {
          bytes += 32 + row.capacity() * sizeof(Value);
          for (const Value& v : row) bytes += v.ApproxBytes();
        }
      }
      uint64_t resident = ValueInterner::stats().resident_bytes;
      if (resident > intern_bytes_base) {
        bytes = std::max(bytes,
                         static_cast<size_t>(resident - intern_bytes_base));
      }
      LOGRES_RETURN_NOT_OK(governor->CheckBytes(bytes));
    }
    return Status::OK();
  };
  if (strategy == AlgresStrategy::kNaive) {
    for (;;) {
      LOGRES_RETURN_NOT_OK(governor->CheckStep());
      LOGRES_FAILPOINT("algres.step");
      bool changed = false;
      for (const CompiledRule* rule : rules) {
        LOGRES_ASSIGN_OR_RETURN(Relation derived,
                                EvalRule(*rule, *db, nullptr, 0, governor));
        Relation& target = db->at(rule->head_predicate);
        for (const Row& row : derived) {
          LOGRES_ASSIGN_OR_RETURN(bool inserted, target.Insert(row));
          changed |= inserted;
        }
      }
      if (!changed) return true;
      LOGRES_RETURN_NOT_OK(check_growth());
    }
  }

  // Semi-naive: delta starts as the whole database.
  RelationalDb delta = *db;
  for (;;) {
    LOGRES_RETURN_NOT_OK(governor->CheckStep());
    LOGRES_FAILPOINT("algres.step");
    RelationalDb next_delta;
    for (const CompiledRule* rule : rules) {
      size_t nlits = std::max<size_t>(rule->literals.size(), 1);
      for (size_t pos = 0; pos < nlits; ++pos) {
        LOGRES_ASSIGN_OR_RETURN(
            Relation derived,
            EvalRule(*rule, *db, rule->literals.empty() ? nullptr : &delta,
                     pos, governor));
        const Relation& target = db->at(rule->head_predicate);
        for (const Row& row : derived) {
          if (!target.Contains(row)) {
            auto [it, inserted] = next_delta.emplace(
                rule->head_predicate, Relation(target.columns()));
            (void)inserted;
            LOGRES_RETURN_NOT_OK(it->second.Insert(row).status());
          }
        }
        if (rule->literals.empty()) break;
      }
    }
    bool changed = false;
    for (auto& [name, rel] : next_delta) {
      Relation& target = db->at(name);
      for (const Row& row : rel) {
        LOGRES_ASSIGN_OR_RETURN(bool inserted, target.Insert(row));
        changed |= inserted;
      }
    }
    if (!changed) return true;
    LOGRES_RETURN_NOT_OK(check_growth());
    delta = std::move(next_delta);
  }
}

Result<RelationalDb> AlgresBackend::RunRelational(RelationalDb db,
                                                  AlgresStrategy strategy,
                                                  const Budget& budget,
                                                  bool intern_values) const {
  // Interning mode for the whole run, like Evaluator::Run (values built
  // before entry — the EDB conversion — intern lazily as rows churn).
  ScopedInternValues intern_scope(intern_values);
  // Make sure every predicate has a relation.
  for (const auto& [name, columns] : pred_columns_) {
    if (!db.count(name)) db.emplace(name, Relation(columns));
  }
  ResourceGovernor governor(budget);
  // Evaluate stratum by stratum so negated predicates are complete before
  // any rule reads them through an anti-join.
  for (int stratum = 0; stratum <= max_stratum_; ++stratum) {
    LOGRES_RETURN_NOT_OK(governor.CheckInterrupt());
    LOGRES_FAILPOINT("algres.stratum");
    std::vector<const CompiledRule*> stratum_rules;
    for (const CompiledRule& rule : rules_) {
      if (rule.stratum == stratum) stratum_rules.push_back(&rule);
    }
    if (stratum_rules.empty()) continue;
    LOGRES_ASSIGN_OR_RETURN(
        bool done, RunStratum(stratum_rules, &db, strategy, &governor));
    (void)done;
  }
  return db;
}

Result<Instance> AlgresBackend::Run(const Instance& edb,
                                    AlgresStrategy strategy,
                                    const Budget& budget,
                                    bool intern_values) const {
  // Scoped here as well so the instance<->relational conversions on both
  // sides of the fixpoint build canonical (or plain) values too.
  ScopedInternValues intern_scope(intern_values);
  LOGRES_ASSIGN_OR_RETURN(RelationalDb db,
                          InstanceToRelations(*schema_, edb));
  LOGRES_ASSIGN_OR_RETURN(db, RunRelational(std::move(db), strategy,
                                            budget, intern_values));
  return RelationsToInstance(*schema_, db);
}

Result<std::vector<Bindings>> AlgresBackend::QueryGoal(
    const Schema& effective_schema,
    const std::vector<FunctionDecl>& functions,
    const std::vector<Rule>& rules, const Instance& edb, const Goal& goal,
    const EvalOptions& options, EvalStats* stats) {
  AlgresStrategy strategy = options.semi_naive ? AlgresStrategy::kSemiNaive
                                               : AlgresStrategy::kNaive;
  std::string fallback_reason;
  if (options.goal_directed) {
    MagicRewrite mr = MagicRewriteForGoal(effective_schema, functions,
                                          rules, goal, options);
    if (mr.applied) {
      Result<AlgresBackend> backend = Compile(mr.schema, mr.checked);
      if (backend.ok()) {
        LOGRES_ASSIGN_OR_RETURN(
            Instance demanded,
            backend->Run(SeedDemand(mr, edb), strategy, options.budget,
                         options.intern_values));
        StripToCone(mr, edb, &demanded, stats);
        return AnswerGoal(effective_schema, functions, demanded, goal);
      }
      // The rewrite left this backend's compilable fragment — treat it
      // like any other refusal and answer whole-program.
      fallback_reason =
          StrCat("rewrite not compilable: ", backend.status().message());
    } else {
      fallback_reason = std::move(mr.fallback_reason);
    }
  }
  LOGRES_ASSIGN_OR_RETURN(CheckedProgram program,
                          Typecheck(effective_schema, functions, rules));
  LOGRES_ASSIGN_OR_RETURN(AlgresBackend backend,
                          Compile(effective_schema, program));
  LOGRES_ASSIGN_OR_RETURN(
      Instance instance,
      backend.Run(edb, strategy, options.budget, options.intern_values));
  if (stats != nullptr) {
    stats->facts = instance.TotalFacts();
    stats->goal_directed_fallback = std::move(fallback_reason);
  }
  return AnswerGoal(effective_schema, functions, instance, goal);
}

}  // namespace logres
