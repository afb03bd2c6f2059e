#include "core/eval.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "algres/interner.h"
#include "core/undo_log.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace logres {

namespace {

// ---------------------------------------------------------------------------
// Value unification with oid coercions

Value StripSelf(const Value& tuple) {
  if (tuple.kind() != ValueKind::kTuple) return tuple;
  std::vector<std::pair<std::string, Value>> fields;
  for (const auto& [label, v] : tuple.tuple_fields()) {
    if (label != kSelfLabel) fields.emplace_back(label, v);
  }
  return Value::MakeTuple(std::move(fields));
}

bool ValuesUnify(const Value& a, const Value& b) {
  if (a == b) return true;
  // A whole-object binding (tuple with the reserved self field) unifies
  // with the bare oid of the same object.
  if (a.kind() == ValueKind::kOid && b.kind() == ValueKind::kTuple) {
    std::optional<Value> self = b.FindField(kSelfLabel);
    return self.has_value() && *self == a;
  }
  if (b.kind() == ValueKind::kOid && a.kind() == ValueKind::kTuple) {
    std::optional<Value> self = a.FindField(kSelfLabel);
    return self.has_value() && *self == b;
  }
  // Two tuples where only one carries the self field: compare modulo self.
  if (a.kind() == ValueKind::kTuple && b.kind() == ValueKind::kTuple) {
    bool a_self = a.FindField(kSelfLabel).has_value();
    bool b_self = b.FindField(kSelfLabel).has_value();
    if (a_self != b_self) return StripSelf(a) == StripSelf(b);
    return false;
  }
  // Numeric cross-kind equality (3 == 3.0).
  if ((a.kind() == ValueKind::kInt && b.kind() == ValueKind::kReal) ||
      (a.kind() == ValueKind::kReal && b.kind() == ValueKind::kInt)) {
    auto c = CompareValues(a, b);
    return c.ok() && c.value() == 0;
  }
  return false;
}

std::string SerializeBindings(const Bindings& bindings) {
  std::string out;
  for (const auto& [var, value] : bindings) {
    out += var;
    out += '=';
    out += value.ToString();
    out += ';';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Deltas (Appendix B's Delta+ / Delta-)

struct ClassFact {
  std::string cls;
  Oid oid;
  Value ovalue;

  bool operator<(const ClassFact& other) const {
    if (cls != other.cls) return cls < other.cls;
    if (oid != other.oid) return oid < other.oid;
    return ovalue < other.ovalue;
  }
};

struct AssocFact {
  std::string assoc;
  Value tuple;

  bool operator<(const AssocFact& other) const {
    if (assoc != other.assoc) return assoc < other.assoc;
    return tuple < other.tuple;
  }
};

struct Delta {
  // Vectors preserve rule/firing order: the non-commutative ⊕ composition
  // lets later additions supersede earlier o-values for the same oid.
  std::vector<ClassFact> add_objects;
  std::vector<ClassFact> del_objects;
  std::vector<AssocFact> add_tuples;
  std::vector<AssocFact> del_tuples;
  // The distinct tuples of add_tuples per association: a head that many
  // valuations derive enters Δ+ once per step, so a step's memory grows
  // with distinct facts rather than with firings.
  std::unordered_map<std::string, std::unordered_set<Value, ValueHash>>
      added_tuples;

  void AddTuple(const std::string& assoc, Value tuple) {
    if (added_tuples[assoc].insert(tuple).second) {
      add_tuples.push_back(AssocFact{assoc, std::move(tuple)});
    }
  }
  bool AddsTuple(const AssocFact& fact) const {
    auto it = added_tuples.find(fact.assoc);
    return it != added_tuples.end() && it->second.count(fact.tuple) > 0;
  }

  bool empty() const {
    return add_objects.empty() && del_objects.empty() &&
           add_tuples.empty() && del_tuples.empty();
  }
};

constexpr size_t kNoDeltaPos = static_cast<size_t>(-1);

}  // namespace

// ---------------------------------------------------------------------------
// Term evaluation and matching

Result<Value> EvalTerm(const Schema& schema, const CheckedProgram& program,
                       const Instance& instance, const TermPtr& term,
                       const Bindings& bindings) {
  switch (term->kind()) {
    case TermKind::kConstant:
      return term->constant();
    case TermKind::kVariable:
    case TermKind::kSelfVariable: {
      auto it = bindings.find(term->name());
      if (it == bindings.end()) {
        return Status::ExecutionError(
            StrCat("unbound variable ", term->name()));
      }
      return it->second;
    }
    case TermKind::kTupleTerm: {
      std::vector<std::pair<std::string, Value>> fields;
      for (const Arg& arg : term->args()) {
        if (arg.is_self) {
          return Status::ExecutionError(
              "self marker inside a constructed tuple value");
        }
        LOGRES_ASSIGN_OR_RETURN(
            Value v,
            EvalTerm(schema, program, instance, arg.term, bindings));
        fields.emplace_back(ToLower(arg.label), std::move(v));
      }
      return Value::MakeTuple(std::move(fields));
    }
    case TermKind::kSetTerm:
    case TermKind::kMultisetTerm:
    case TermKind::kSequenceTerm: {
      std::vector<Value> elems;
      for (const TermPtr& e : term->elements()) {
        LOGRES_ASSIGN_OR_RETURN(
            Value v, EvalTerm(schema, program, instance, e, bindings));
        elems.push_back(std::move(v));
      }
      if (term->kind() == TermKind::kSetTerm) {
        return Value::MakeSet(std::move(elems));
      }
      if (term->kind() == TermKind::kMultisetTerm) {
        return Value::MakeMultiset(std::move(elems));
      }
      return Value::MakeSequence(std::move(elems));
    }
    case TermKind::kFunctionApp: {
      // F(a1..an) denotes the set {m | $fn$F(arg1: a1, ..., member: m)}
      // in the *current* state — data functions are materialized by their
      // backing association (Section 2.1).
      std::string fname = ToUpper(term->name());
      auto fit = program.functions.find(fname);
      if (fit == program.functions.end()) {
        return Status::NotFound(StrCat("unknown function ", fname));
      }
      const FunctionDecl& fn = fit->second;
      if (term->elements().size() != fn.arg_types.size()) {
        return Status::TypeError(
            StrCat("function ", fname, " expects ", fn.arg_types.size(),
                   " arguments"));
      }
      std::vector<Value> args;
      for (const TermPtr& a : term->elements()) {
        LOGRES_ASSIGN_OR_RETURN(
            Value v, EvalTerm(schema, program, instance, a, bindings));
        args.push_back(std::move(v));
      }
      std::vector<Value> members;
      for (const Value& tuple : instance.TuplesOf(fn.BackingAssociation())) {
        bool match = true;
        for (size_t i = 0; i < args.size() && match; ++i) {
          std::optional<Value> fv = tuple.FindField(StrCat("arg", i + 1));
          if (!fv.has_value() || !ValuesUnify(*fv, args[i])) match = false;
        }
        if (!match) continue;
        std::optional<Value> m = tuple.FindField("member");
        if (m.has_value()) members.push_back(*m);
      }
      return Value::MakeSet(std::move(members));
    }
    case TermKind::kArith: {
      LOGRES_ASSIGN_OR_RETURN(
          Value a,
          EvalTerm(schema, program, instance, term->lhs(), bindings));
      LOGRES_ASSIGN_OR_RETURN(
          Value b,
          EvalTerm(schema, program, instance, term->rhs(), bindings));
      return EvalArith(term->arith_op(), a, b);
    }
    case TermKind::kObjectPattern:
      return Status::ExecutionError("object pattern in value position");
  }
  return Status::ExecutionError("unreachable");
}

Result<bool> MatchTerm(const Schema& schema, const CheckedProgram& program,
                       const Instance& instance, const TermPtr& term,
                       const Value& value, Bindings* bindings) {
  switch (term->kind()) {
    case TermKind::kConstant:
      return ValuesUnify(term->constant(), value);
    case TermKind::kVariable:
    case TermKind::kSelfVariable: {
      auto it = bindings->find(term->name());
      if (it != bindings->end()) return ValuesUnify(it->second, value);
      bindings->emplace(term->name(), value);
      return true;
    }
    case TermKind::kTupleTerm:
    case TermKind::kObjectPattern: {
      if (value.kind() == ValueKind::kOid) {
        // Object pattern: dereference through the oid (Example 3.1,
        // school(dean: (self X))).
        auto ov = instance.OValue(value.oid_value());
        for (const Arg& arg : term->args()) {
          if (arg.is_self) {
            LOGRES_ASSIGN_OR_RETURN(
                bool ok, MatchTerm(schema, program, instance, arg.term,
                                   value, bindings));
            if (!ok) return false;
            continue;
          }
          if (!ov.ok()) return false;
          std::optional<Value> fv =
              ov.value().FindField(ToLower(arg.label));
          LOGRES_ASSIGN_OR_RETURN(
              bool ok,
              MatchTerm(schema, program, instance, arg.term,
                        fv.has_value() ? *fv : Value::Nil(), bindings));
          if (!ok) return false;
        }
        return true;
      }
      if (value.kind() == ValueKind::kTuple) {
        for (const Arg& arg : term->args()) {
          std::string label = arg.is_self ? kSelfLabel : ToLower(arg.label);
          if (label.empty()) return false;  // unlabeled pattern component
          std::optional<Value> fv = value.FindField(label);
          if (!fv.has_value()) return false;
          LOGRES_ASSIGN_OR_RETURN(
              bool ok, MatchTerm(schema, program, instance, arg.term, *fv,
                                 bindings));
          if (!ok) return false;
        }
        return true;
      }
      return false;
    }
    case TermKind::kSequenceTerm: {
      if (value.kind() != ValueKind::kSequence) return false;
      if (term->elements().size() != value.elements().size()) return false;
      for (size_t i = 0; i < term->elements().size(); ++i) {
        LOGRES_ASSIGN_OR_RETURN(
            bool ok, MatchTerm(schema, program, instance,
                               term->elements()[i], value.elements()[i],
                               bindings));
        if (!ok) return false;
      }
      return true;
    }
    case TermKind::kSetTerm:
    case TermKind::kMultisetTerm:
    case TermKind::kFunctionApp:
    case TermKind::kArith: {
      // Non-pattern terms: ground them and compare.
      LOGRES_ASSIGN_OR_RETURN(
          Value v, EvalTerm(schema, program, instance, term, *bindings));
      return ValuesUnify(v, value);
    }
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Literal enumeration

class JoinContext {
 public:
  JoinContext(const Schema& schema, const CheckedProgram& program,
              const Instance& instance, bool use_indexes = true)
      : schema_(schema),
        program_(program),
        instance_(instance),
        use_indexes_(use_indexes) {}

  Result<Value> Eval(const TermPtr& term, const Bindings& b) const {
    return EvalTerm(schema_, program_, instance_, term, b);
  }
  Result<bool> Match(const TermPtr& term, const Value& value,
                     Bindings* b) const {
    return MatchTerm(schema_, program_, instance_, term, value, b);
  }

  using Callback = std::function<Status(const Bindings&)>;

  /// Enumerates every extension of `b` satisfying `lit` against the
  /// instance. `restrict_to` narrows a positive predicate literal's fact
  /// source (semi-naive delta); pass nullptr for the full instance.
  Status ForEachMatch(const CheckedLiteral& lit, const Bindings& b,
                      const Instance* restrict_to,
                      const std::map<std::string, Type>& var_types,
                      const Callback& cb) const {
    switch (lit.kind()) {
      case LiteralKind::kPredicate:
        if (!lit.negated()) {
          return ForEachPredicateMatch(*lit.pred, b,
                                       restrict_to ? *restrict_to
                                                   : instance_,
                                       cb);
        }
        return ForEachNegatedMatch(lit, b, var_types, cb);
      case LiteralKind::kCompare:
        return ForEachCompareMatch(lit, b, cb);
      case LiteralKind::kBuiltin: {
        auto eval = [&, bptr = &b](const TermPtr& t) {
          return Eval(t, *bptr);
        };
        auto match = [&](const TermPtr& t, const Value& v, Bindings* out) {
          return Match(t, v, out);
        };
        LOGRES_ASSIGN_OR_RETURN(
            std::vector<Bindings> extensions,
            SolveBuiltin(lit.source, b, eval, match));
        if (lit.negated()) {
          if (extensions.empty()) return cb(b);
          return Status::OK();
        }
        for (const Bindings& e : extensions) {
          LOGRES_RETURN_NOT_OK(cb(e));
        }
        return Status::OK();
      }
    }
    return Status::OK();
  }

  /// The value a bound term probes an index with: whole-object bindings
  /// reduce to their oid (delegated to the instance, which owns the
  /// access paths). Copy-free: returns a reference into \p v.
  static const Value& NormalizeForIndex(const Value& v) {
    return Instance::NormalizeForIndex(v);
  }

  /// Positive predicate matching against `source`.
  Status ForEachPredicateMatch(const ResolvedPredicate& rp,
                               const Bindings& b, const Instance& source,
                               const Callback& cb) const {
    if (rp.is_class) {
      // A bound self term pins the oid: skip the scan.
      if (use_indexes_ && rp.self_term &&
          rp.self_term->kind() == TermKind::kVariable) {
        auto it = b.find(rp.self_term->name());
        if (it != b.end()) {
          const Value& probe = NormalizeForIndex(it->second);
          if (probe.kind() == ValueKind::kOid) {
            Oid oid = probe.oid_value();
            if (!source.OidsOf(rp.name).count(oid)) return Status::OK();
            return MatchClassObject(rp, b, oid, cb);
          }
        }
      }
      // A ground field narrows the class scan through a lazily built
      // field index (this is what keeps the Definition-7 invention check
      // from scanning the whole class per candidate valuation).
      if (use_indexes_ && &source == &instance_) {
        std::optional<std::pair<std::string, Value>> probe =
            GroundProbe(rp, b);
        if (probe.has_value()) {
          const auto& index = instance_.ClassIndex(rp.name, probe->first);
          auto range = index.equal_range(NormalizeForIndex(probe->second));
          for (auto it = range.first; it != range.second; ++it) {
            LOGRES_RETURN_NOT_OK(MatchClassObject(rp, b, it->second, cb));
          }
          return Status::OK();
        }
      }
      for (Oid oid : source.OidsOf(rp.name)) {
        Bindings b2 = b;
        Value oid_value = Value::MakeOid(oid);
        if (rp.self_term) {
          LOGRES_ASSIGN_OR_RETURN(bool ok,
                                  Match(rp.self_term, oid_value, &b2));
          if (!ok) continue;
        }
        // O-values live on the full instance even when enumeration is
        // delta-restricted.
        auto ov = instance_.OValue(oid);
        if (!ov.ok()) {
          auto ov2 = source.OValue(oid);
          if (!ov2.ok()) continue;
          ov = ov2;
        }
        bool ok = true;
        if (rp.tuple_var) {
          LOGRES_ASSIGN_OR_RETURN(
              Value with_self, ov.value().WithField(kSelfLabel, oid_value));
          LOGRES_ASSIGN_OR_RETURN(ok, Match(rp.tuple_var, with_self, &b2));
          if (!ok) continue;
        }
        for (const auto& [label, term] : rp.fields) {
          std::optional<Value> fv = ov.value().FindField(label);
          LOGRES_ASSIGN_OR_RETURN(
              ok, Match(term, fv.has_value() ? *fv : Value::Nil(), &b2));
          if (!ok) break;
        }
        if (!ok) continue;
        LOGRES_RETURN_NOT_OK(cb(b2));
      }
      return Status::OK();
    }
    // Associations: with a ground field available, probe a lazily built
    // hash index on (association, label) instead of scanning. Only the
    // full instance is indexed; semi-naive deltas are small scans.
    if (use_indexes_ && &source == &instance_) {
      std::optional<std::pair<std::string, Value>> probe =
          GroundProbe(rp, b);
      if (probe.has_value()) {
        const auto& index = instance_.AssocIndex(rp.name, probe->first);
        auto range = index.equal_range(NormalizeForIndex(probe->second));
        for (auto it = range.first; it != range.second; ++it) {
          LOGRES_RETURN_NOT_OK(MatchAssocTuple(rp, b, it->second, cb));
        }
        return Status::OK();
      }
    }
    for (const Value& tuple : source.TuplesOf(rp.name)) {
      LOGRES_RETURN_NOT_OK(MatchAssocTuple(rp, b, tuple, cb));
    }
    return Status::OK();
  }

  /// True iff some fact matches `rp` under (an extension of) `b`.
  Result<bool> ExistsMatch(const ResolvedPredicate& rp,
                           const Bindings& b) const {
    bool found = false;
    // A sentinel status short-circuits the enumeration on first match.
    Status st = ForEachPredicateMatch(
        rp, b, instance_, [&](const Bindings&) -> Status {
          found = true;
          return Status::ExecutionError("$found$");
        });
    if (!st.ok() && st.message() != "$found$") return st;
    return found;
  }

 private:
  Status MatchClassObject(const ResolvedPredicate& rp, const Bindings& b,
                          Oid oid, const Callback& cb) const {
    Bindings b2 = b;
    Value oid_value = Value::MakeOid(oid);
    if (rp.self_term) {
      LOGRES_ASSIGN_OR_RETURN(bool ok, Match(rp.self_term, oid_value, &b2));
      if (!ok) return Status::OK();
    }
    auto ov = instance_.OValue(oid);
    if (!ov.ok()) return Status::OK();
    bool ok = true;
    if (rp.tuple_var) {
      LOGRES_ASSIGN_OR_RETURN(
          Value with_self, ov.value().WithField(kSelfLabel, oid_value));
      LOGRES_ASSIGN_OR_RETURN(ok, Match(rp.tuple_var, with_self, &b2));
      if (!ok) return Status::OK();
    }
    for (const auto& [label, term] : rp.fields) {
      std::optional<Value> fv = ov.value().FindField(label);
      LOGRES_ASSIGN_OR_RETURN(
          ok, Match(term, fv.has_value() ? *fv : Value::Nil(), &b2));
      if (!ok) return Status::OK();
    }
    return cb(b2);
  }

  Status MatchAssocTuple(const ResolvedPredicate& rp, const Bindings& b,
                         const Value& tuple, const Callback& cb) const {
    Bindings b2 = b;
    bool ok = true;
    if (rp.tuple_var) {
      LOGRES_ASSIGN_OR_RETURN(ok, Match(rp.tuple_var, tuple, &b2));
      if (!ok) return Status::OK();
    }
    for (const auto& [label, term] : rp.fields) {
      std::optional<Value> fv = tuple.FindField(label);
      LOGRES_ASSIGN_OR_RETURN(
          ok, Match(term, fv.has_value() ? *fv : Value::Nil(), &b2));
      if (!ok) return Status::OK();
    }
    return cb(b2);
  }

  /// First field of `rp` whose term is ground under `b` (a constant or a
  /// bound variable), with its probe value. Only exactly-comparable kinds
  /// qualify — Match() performs coercions (3 unifies with 3.0) that an
  /// exact hash probe would miss, so reals and structured values fall
  /// back to the scan.
  std::optional<std::pair<std::string, Value>> GroundProbe(
      const ResolvedPredicate& rp, const Bindings& b) const {
    auto exact = [](const Value& v) {
      ValueKind k = NormalizeForIndex(v).kind();
      return k == ValueKind::kInt || k == ValueKind::kString ||
             k == ValueKind::kBool || k == ValueKind::kOid;
    };
    for (const auto& [label, term] : rp.fields) {
      if (term->kind() == TermKind::kConstant &&
          exact(term->constant())) {
        return std::make_pair(label, term->constant());
      }
      if (term->kind() == TermKind::kVariable) {
        auto it = b.find(term->name());
        if (it != b.end() && exact(it->second)) {
          return std::make_pair(label, it->second);
        }
      }
    }
    return std::nullopt;
  }

  Status ForEachNegatedMatch(const CheckedLiteral& lit, const Bindings& b,
                             const std::map<std::string, Type>& var_types,
                             const Callback& cb) const {
    // Unbound variables of a negated literal range over the active domain
    // (Section 2.1: "variables which are only present in negated literals
    // be restricted to their current active domain").
    std::vector<std::string> vars;
    lit.source.CollectVariables(&vars);
    std::vector<std::string> unbound;
    for (const std::string& v : vars) {
      if (!b.count(v) &&
          std::find(unbound.begin(), unbound.end(), v) == unbound.end()) {
        unbound.push_back(v);
      }
    }
    if (unbound.empty()) {
      LOGRES_ASSIGN_OR_RETURN(bool exists, ExistsMatch(*lit.pred, b));
      if (!exists) return cb(b);
      return Status::OK();
    }
    // Enumerate active-domain values for each unbound variable.
    std::vector<std::vector<Value>> domains;
    for (const std::string& v : unbound) {
      auto it = var_types.find(v);
      if (it == var_types.end()) {
        return Status::UnsafeRule(
            StrCat("cannot determine the active domain of ", v,
                   " in negated literal ", lit.source.ToString()));
      }
      domains.push_back(ActiveDomain(it->second));
    }
    std::function<Status(size_t, Bindings&)> recurse =
        [&](size_t idx, Bindings& current) -> Status {
      if (idx == unbound.size()) {
        LOGRES_ASSIGN_OR_RETURN(bool exists,
                                ExistsMatch(*lit.pred, current));
        if (!exists) return cb(current);
        return Status::OK();
      }
      for (const Value& v : domains[idx]) {
        current[unbound[idx]] = v;
        LOGRES_RETURN_NOT_OK(recurse(idx + 1, current));
      }
      current.erase(unbound[idx]);
      return Status::OK();
    };
    Bindings current = b;
    return recurse(0, current);
  }

  Status ForEachCompareMatch(const CheckedLiteral& lit, const Bindings& b,
                             const Callback& cb) const {
    const Literal& src = lit.source;
    auto side_bound = [&](const TermPtr& t) {
      std::vector<std::string> vars;
      t->CollectVariables(&vars);
      for (const std::string& v : vars) {
        if (!b.count(v)) return false;
      }
      return true;
    };
    bool lb = side_bound(src.compare_lhs);
    bool rb = side_bound(src.compare_rhs);
    if (src.compare_op == CompareOp::kEq && !src.negated && !(lb && rb)) {
      // Binding equality: ground one side, match the other as a pattern.
      const TermPtr& ground_side = lb ? src.compare_lhs : src.compare_rhs;
      const TermPtr& pattern_side = lb ? src.compare_rhs : src.compare_lhs;
      if (!lb && !rb) {
        return Status::UnsafeRule(
            StrCat("neither side of ", src.ToString(), " is bound"));
      }
      LOGRES_ASSIGN_OR_RETURN(Value v, Eval(ground_side, b));
      Bindings b2 = b;
      LOGRES_ASSIGN_OR_RETURN(bool ok, Match(pattern_side, v, &b2));
      if (ok) return cb(b2);
      return Status::OK();
    }
    LOGRES_ASSIGN_OR_RETURN(Value l, Eval(src.compare_lhs, b));
    LOGRES_ASSIGN_OR_RETURN(Value r, Eval(src.compare_rhs, b));
    bool holds;
    if (src.compare_op == CompareOp::kEq) {
      holds = ValuesUnify(l, r);
    } else if (src.compare_op == CompareOp::kNe) {
      holds = !ValuesUnify(l, r);
    } else {
      LOGRES_ASSIGN_OR_RETURN(int c, CompareValues(l, r));
      switch (src.compare_op) {
        case CompareOp::kLt: holds = c < 0; break;
        case CompareOp::kLe: holds = c <= 0; break;
        case CompareOp::kGt: holds = c > 0; break;
        case CompareOp::kGe: holds = c >= 0; break;
        default: holds = false; break;
      }
    }
    if (src.negated) holds = !holds;
    if (holds) return cb(b);
    return Status::OK();
  }

  /// Values of `type` present in the current state (the paper's active
  /// domain). For classes: the class's oids. Otherwise: every value of
  /// matching structure found anywhere in the instance.
  std::vector<Value> ActiveDomain(const Type& type) const {
    std::vector<Value> out;
    if (type.kind() == TypeKind::kNamed && schema_.IsClass(type.name())) {
      for (Oid oid : instance_.OidsOf(type.name())) {
        out.push_back(Value::MakeOid(oid));
      }
      return out;
    }
    std::set<Value> seen;
    std::function<void(const Value&)> scan = [&](const Value& v) {
      if (StructurallyConforms(v, type)) seen.insert(v);
      if (v.kind() == ValueKind::kTuple) {
        for (const auto& [l, f] : v.tuple_fields()) {
          (void)l;
          scan(f);
        }
      } else if (v.is_collection()) {
        for (const Value& e : v.elements()) scan(e);
      }
    };
    for (const auto& [oid, ov] : instance_.ovalues()) {
      (void)oid;
      scan(ov);
    }
    for (const auto& [assoc, tuples] : instance_.associations()) {
      (void)assoc;
      for (const Value& t : tuples) scan(t);
    }
    out.assign(seen.begin(), seen.end());
    return out;
  }

  bool StructurallyConforms(const Value& v, const Type& type) const {
    switch (type.kind()) {
      case TypeKind::kInt: return v.kind() == ValueKind::kInt;
      case TypeKind::kString: return v.kind() == ValueKind::kString;
      case TypeKind::kBool: return v.kind() == ValueKind::kBool;
      case TypeKind::kReal: return v.kind() == ValueKind::kReal;
      case TypeKind::kNamed: {
        if (schema_.IsClass(type.name())) {
          return v.kind() == ValueKind::kOid &&
                 instance_.HasObject(type.name(), v.oid_value());
        }
        auto rhs = schema_.TypeOf(type.name());
        return rhs.ok() && StructurallyConforms(v, rhs.value());
      }
      case TypeKind::kTuple: {
        if (v.kind() != ValueKind::kTuple) return false;
        for (const auto& [label, ftype] : type.fields()) {
          std::optional<Value> fv = v.FindField(label);
          if (!fv.has_value() || !StructurallyConforms(*fv, ftype)) {
            return false;
          }
        }
        return true;
      }
      case TypeKind::kSet:
      case TypeKind::kMultiset:
      case TypeKind::kSequence: {
        ValueKind want = type.kind() == TypeKind::kSet
                             ? ValueKind::kSet
                             : (type.kind() == TypeKind::kMultiset
                                    ? ValueKind::kMultiset
                                    : ValueKind::kSequence);
        if (v.kind() != want) return false;
        for (const Value& e : v.elements()) {
          if (!StructurallyConforms(e, type.element())) return false;
        }
        return true;
      }
    }
    return false;
  }

  const Schema& schema_;
  const CheckedProgram& program_;
  const Instance& instance_;
  bool use_indexes_;
};

// ---------------------------------------------------------------------------
// Literal scheduling (sideways information passing)

// Variables that must already be bound for `term` to be *evaluated* (as
// opposed to pattern-matched): everything under a function application,
// arithmetic, or constructed-collection subterm.
void CollectEvalVars(const TermPtr& term, std::vector<std::string>* out) {
  switch (term->kind()) {
    case TermKind::kFunctionApp:
    case TermKind::kArith:
    case TermKind::kSetTerm:
    case TermKind::kMultisetTerm:
      term->CollectVariables(out);
      return;
    case TermKind::kTupleTerm:
    case TermKind::kObjectPattern:
      for (const Arg& a : term->args()) CollectEvalVars(a.term, out);
      return;
    case TermKind::kSequenceTerm:
      for (const TermPtr& e : term->elements()) CollectEvalVars(e, out);
      return;
    default:
      return;
  }
}

void AddLiteralVars(const CheckedLiteral& lit, std::set<std::string>* bound) {
  std::vector<std::string> vars;
  lit.source.CollectVariables(&vars);
  bound->insert(vars.begin(), vars.end());
}

// Bound-first execution order for a rule body: positive predicate
// literals within a maximal run (no compare/builtin/negated literal in
// between) are greedily reordered so the most-bound literal — and, under
// semi-naive evaluation, the delta-restricted literal — runs first and
// later literals become indexed probes. Non-positive literals are
// *barriers* that keep their original positions: comparisons and builtins
// can bind variables (so positives crossing them would see different
// bindings), and a negated literal's unbound variables range over the
// active domain — both observably depend on the set of bindings in force,
// which barrier-local reordering provably preserves (every run completes
// before the barrier either way). A positive literal carrying a term that
// must be *evaluated* (arithmetic, function application, constructed
// collection) is only eligible once those variables are bound, which the
// original order always permits.
std::vector<size_t> ScheduleBody(const CheckedRule& rule, size_t delta_pos) {
  std::vector<size_t> order;
  order.reserve(rule.body.size());
  std::set<std::string> bound;
  size_t i = 0;
  while (i < rule.body.size()) {
    const CheckedLiteral& lit = rule.body[i];
    bool positive_pred =
        lit.kind() == LiteralKind::kPredicate && !lit.negated();
    if (!positive_pred) {
      order.push_back(i);
      AddLiteralVars(lit, &bound);
      ++i;
      continue;
    }
    std::vector<size_t> run;
    while (i < rule.body.size() &&
           rule.body[i].kind() == LiteralKind::kPredicate &&
           !rule.body[i].negated()) {
      run.push_back(i);
      ++i;
    }
    while (!run.empty()) {
      size_t best = run.size();
      int best_score = -1;
      for (size_t k = 0; k < run.size(); ++k) {
        const ResolvedPredicate& rp = *rule.body[run[k]].pred;
        std::vector<std::string> eval_vars;
        bool eligible = true;
        for (const auto& [label, term] : rp.fields) {
          (void)label;
          eval_vars.clear();
          CollectEvalVars(term, &eval_vars);
          for (const std::string& v : eval_vars) {
            if (!bound.count(v)) {
              eligible = false;
              break;
            }
          }
          if (!eligible) break;
        }
        if (!eligible) continue;
        int score = 0;
        if (rp.self_term && rp.self_term->kind() == TermKind::kVariable &&
            bound.count(rp.self_term->name())) {
          score += 2;  // a bound self pins the oid outright
        }
        for (const auto& [label, term] : rp.fields) {
          (void)label;
          if (term->kind() == TermKind::kConstant) {
            score += 1;
          } else if (term->kind() == TermKind::kVariable &&
                     bound.count(term->name())) {
            score += 1;
          }
        }
        if (run[k] == delta_pos) score += 1000;  // small frontier first
        if (score > best_score) {
          best_score = score;
          best = k;
        }
      }
      // The earliest literal in original order is always eligible, so a
      // pick exists.
      if (best == run.size()) best = 0;
      order.push_back(run[best]);
      AddLiteralVars(rule.body[run[best]], &bound);
      run.erase(run.begin() + best);
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// Rule firing

// Enumerates all body valuations of `rule` against `instance`. With
// `delta`, at least one positive predicate literal is drawn from `delta`
// (semi-naive). With `reorder`, literals execute in the ScheduleBody
// order instead of source order (results identical; see ScheduleBody).
Status EnumerateBody(const JoinContext& ctx, const CheckedRule& rule,
                     const Instance* delta,
                     const JoinContext::Callback& cb, bool reorder = true) {
  std::vector<size_t> positive_preds;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (rule.body[i].kind() == LiteralKind::kPredicate &&
        !rule.body[i].negated()) {
      positive_preds.push_back(i);
    }
  }

  std::vector<size_t> order;
  std::function<Status(size_t, const Bindings&, size_t)> join =
      [&](size_t k, const Bindings& b, size_t delta_pos) -> Status {
    if (k == rule.body.size()) return cb(b);
    size_t idx = order.empty() ? k : order[k];
    const CheckedLiteral& lit = rule.body[idx];
    const Instance* restrict_to =
        (delta != nullptr && idx == delta_pos) ? delta : nullptr;
    return ctx.ForEachMatch(lit, b, restrict_to, rule.var_types,
                            [&](const Bindings& b2) -> Status {
                              return join(k + 1, b2, delta_pos);
                            });
  };

  if (delta == nullptr || positive_preds.empty()) {
    if (reorder) order = ScheduleBody(rule, kNoDeltaPos);
    return join(0, Bindings{}, kNoDeltaPos);
  }
  for (size_t pos : positive_preds) {
    order.clear();
    if (reorder) order = ScheduleBody(rule, pos);
    LOGRES_RETURN_NOT_OK(join(0, Bindings{}, pos));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// The Evaluator

namespace {

// Assembles a head fact's tuple value from the schema field list: head
// terms first, then the existing o-value's fields, then nil.
Value AssembleTuple(const std::vector<std::pair<std::string, Type>>& fields,
                    const std::map<std::string, Value>& provided,
                    const Value* existing) {
  std::vector<std::pair<std::string, Value>> tuple;
  for (const auto& [label, ftype] : fields) {
    (void)ftype;
    auto it = provided.find(label);
    if (it != provided.end()) {
      tuple.emplace_back(label, it->second);
      continue;
    }
    if (existing != nullptr) {
      std::optional<Value> fv = existing->FindField(label);
      if (fv.has_value()) {
        tuple.emplace_back(label, *fv);
        continue;
      }
    }
    tuple.emplace_back(label, Value::Nil());
  }
  return Value::MakeTuple(std::move(tuple));
}

class HeadFirer {
 public:
  HeadFirer(const Schema& schema, const CheckedProgram& program,
            const Instance& instance, OidGenerator* gen,
            std::map<std::pair<size_t, std::string>, Oid>* memo,
            EvalStats* stats)
      : schema_(schema),
        program_(program),
        instance_(instance),
        ctx_(schema, program, instance),
        gen_(gen),
        memo_(memo),
        stats_(stats) {}

  Status Fire(const CheckedRule& rule, const Bindings& b, Delta* delta) {
    if (!rule.head.has_value()) return Status::OK();  // denial: no effect
    const ResolvedPredicate& rp = *rule.head->pred;
    stats_->rule_firings++;

    if (rule.head->negated()) return FireDeletion(rule, rp, b, delta);

    // Valuation-domain condition (Definition 7): "no extension θ' of θ
    // with F ⊨ θ'(head)". For a ground head θ' = θ and the condition is
    // subsumed by set semantics (and must NOT suppress Δ+ — the
    // F ∩ Δ+ ∩ Δ− carve-out depends on re-derivable facts); its bite is
    // on heads with an existential (invented) oid, where it stops a rule
    // from inventing again once a matching object exists. The check is
    // therefore applied inside FireClassAddition just before invention.
    if (rp.is_class) return FireClassAddition(rule, rp, b, delta);
    return FireAssocAddition(rule, rp, b, delta);
  }

 private:
  // Grounds a head term; an unbound head variable of class type denotes
  // nil (valuation-map point (c), Definition 8).
  Result<Value> EvalHeadTerm(const TermPtr& term, const Bindings& b) {
    if ((term->kind() == TermKind::kVariable ||
         term->kind() == TermKind::kSelfVariable) &&
        !b.count(term->name())) {
      return Value::Nil();
    }
    return EvalTerm(schema_, program_, instance_, term, b);
  }

  // Builds the field map of the new fact: tuple-variable base (projected
  // onto the predicate's fields) overlaid with the labeled head terms.
  Result<std::map<std::string, Value>> BuildFields(
      const ResolvedPredicate& rp, const Bindings& b) {
    std::map<std::string, Value> out;
    LOGRES_ASSIGN_OR_RETURN(auto fields, schema_.EffectiveFields(rp.name));
    if (rp.tuple_var) {
      auto it = b.find(rp.tuple_var->name());
      if (it != b.end() && it->second.kind() == ValueKind::kTuple) {
        for (const auto& [flabel, ftype] : fields) {
          (void)ftype;
          std::optional<Value> fv = it->second.FindField(flabel);
          if (fv.has_value()) out[flabel] = *fv;
        }
      }
    }
    for (const auto& [label, term] : rp.fields) {
      LOGRES_ASSIGN_OR_RETURN(Value v, EvalHeadTerm(term, b));
      out[label] = std::move(v);
    }
    return out;
  }

  Status FireClassAddition(const CheckedRule& rule,
                           const ResolvedPredicate& rp, const Bindings& b,
                           Delta* delta) {
    LOGRES_ASSIGN_OR_RETURN(auto fields, schema_.EffectiveFields(rp.name));
    LOGRES_ASSIGN_OR_RETURN(auto provided, BuildFields(rp, b));

    // Determine the oid: shared from the body (generalization hierarchy,
    // Section 3.1 case b) or invented (Definition 8 point b).
    Oid oid;
    bool have_oid = false;
    if (rp.self_term) {
      auto it = b.find(rp.self_term->name());
      if (it != b.end()) {
        if (it->second.kind() == ValueKind::kOid) {
          oid = it->second.oid_value();
          have_oid = true;
        } else if (it->second.kind() == ValueKind::kTuple) {
          std::optional<Value> self = it->second.FindField(kSelfLabel);
          if (self.has_value() && self->kind() == ValueKind::kOid) {
            oid = self->oid_value();
            have_oid = true;
          }
        }
      }
    }
    if (!have_oid && rp.tuple_var) {
      auto it = b.find(rp.tuple_var->name());
      if (it != b.end()) {
        if (it->second.kind() == ValueKind::kOid) {
          oid = it->second.oid_value();
          have_oid = true;
        } else if (it->second.kind() == ValueKind::kTuple) {
          std::optional<Value> self = it->second.FindField(kSelfLabel);
          if (self.has_value() && self->kind() == ValueKind::kOid) {
            oid = self->oid_value();
            have_oid = true;
          }
        }
      }
    }
    if (!have_oid) {
      // Existential head oid: the Definition-7 condition applies — do not
      // invent when some existing object already satisfies the head under
      // these bindings.
      LOGRES_ASSIGN_OR_RETURN(bool satisfied, ctx_.ExistsMatch(rp, b));
      if (satisfied) return Status::OK();
      // Invented oid, memoized per (rule, body valuation): "once a rule
      // has been fired for a certain substitution and an oid has been
      // generated, that rule cannot generate any more oids for the same
      // substitution".
      auto key = std::make_pair(rule.index, SerializeBindings(b));
      auto it = memo_->find(key);
      if (it != memo_->end()) {
        oid = it->second;
      } else {
        oid = gen_->Next();
        memo_->emplace(std::move(key), oid);
        stats_->invented_oids++;
      }
    }

    const Value* existing = nullptr;
    Value existing_value;
    auto ov = instance_.OValue(oid);
    if (ov.ok()) {
      existing_value = ov.value();
      existing = &existing_value;
    }
    Value assembled = AssembleTuple(fields, provided, existing);
    delta->add_objects.push_back(ClassFact{rp.name, oid, assembled});
    return Status::OK();
  }

  Status FireAssocAddition(const CheckedRule& rule,
                           const ResolvedPredicate& rp, const Bindings& b,
                           Delta* delta) {
    (void)rule;
    LOGRES_ASSIGN_OR_RETURN(auto fields, schema_.EffectiveFields(rp.name));
    LOGRES_ASSIGN_OR_RETURN(auto provided, BuildFields(rp, b));
    delta->AddTuple(rp.name, AssembleTuple(fields, provided, nullptr));
    return Status::OK();
  }

  Status FireDeletion(const CheckedRule& rule, const ResolvedPredicate& rp,
                      const Bindings& b, Delta* delta) {
    // Δ− is built from the valuation map directly (Appendix B): a fully
    // determined head enters Δ− whether or not the fact is currently
    // present — the VAR' formula decides the net effect. A partially
    // specified head deletes every matching current fact.
    if (rp.is_class) {
      Oid oid;
      bool have_oid = false;
      auto extract_oid = [&](const TermPtr& term) {
        if (!term) return;
        auto it = b.find(term->name());
        if (it == b.end()) return;
        if (it->second.kind() == ValueKind::kOid) {
          oid = it->second.oid_value();
          have_oid = true;
        } else if (it->second.kind() == ValueKind::kTuple) {
          std::optional<Value> self = it->second.FindField(kSelfLabel);
          if (self.has_value() && self->kind() == ValueKind::kOid) {
            oid = self->oid_value();
            have_oid = true;
          }
        }
      };
      extract_oid(rp.self_term);
      if (!have_oid) extract_oid(rp.tuple_var);
      if (have_oid) {
        auto ov = instance_.OValue(oid);
        delta->del_objects.push_back(ClassFact{
            rp.name, oid, ov.ok() ? ov.value() : Value::Nil()});
        stats_->deletions++;
        return Status::OK();
      }
      // No oid in the bindings: delete every matching object.
      return ctx_.ForEachPredicateMatch(
          rp, b, instance_, [&](const Bindings& b2) -> Status {
            if (rp.self_term) {
              auto it = b2.find(rp.self_term->name());
              if (it != b2.end() &&
                  it->second.kind() == ValueKind::kOid) {
                Oid o = it->second.oid_value();
                auto ov = instance_.OValue(o);
                delta->del_objects.push_back(ClassFact{
                    rp.name, o, ov.ok() ? ov.value() : Value::Nil()});
                stats_->deletions++;
                return Status::OK();
              }
            }
            return Status::ExecutionError(
                StrCat("class deletion needs self or a tuple variable: ",
                       rule.source.ToString()));
          });
    }
    // Association deletion.
    LOGRES_ASSIGN_OR_RETURN(auto fields, schema_.EffectiveFields(rp.name));
    LOGRES_ASSIGN_OR_RETURN(auto provided, BuildFields(rp, b));
    // Exact tuple available: from the tuple variable or full field cover.
    if (rp.tuple_var) {
      auto it = b.find(rp.tuple_var->name());
      if (it != b.end() && it->second.kind() == ValueKind::kTuple) {
        Value base = StripSelf(it->second);
        // Overlay any explicitly given fields.
        for (const auto& [label, v] : provided) {
          LOGRES_ASSIGN_OR_RETURN(base, base.WithField(label, v));
        }
        delta->del_tuples.push_back(AssocFact{rp.name, std::move(base)});
        stats_->deletions++;
        return Status::OK();
      }
    }
    if (provided.size() == fields.size()) {
      delta->del_tuples.push_back(
          AssocFact{rp.name, AssembleTuple(fields, provided, nullptr)});
      stats_->deletions++;
      return Status::OK();
    }
    // Partial head: delete every current tuple matching the given fields.
    for (const Value& tuple : instance_.TuplesOf(rp.name)) {
      bool match = true;
      for (const auto& [label, v] : provided) {
        std::optional<Value> fv = tuple.FindField(label);
        if (!fv.has_value() || !ValuesUnify(*fv, v)) {
          match = false;
          break;
        }
      }
      if (match) {
        delta->del_tuples.push_back(AssocFact{rp.name, tuple});
        stats_->deletions++;
      }
    }
    return Status::OK();
  }

  const Schema& schema_;
  const CheckedProgram& program_;
  const Instance& instance_;
  JoinContext ctx_;
  OidGenerator* gen_;
  std::map<std::pair<size_t, std::string>, Oid>* memo_;
  EvalStats* stats_;
};

// In-place F ⊕ Δ+ for steps whose delta carries no deletions (the common
// case for recursive closure workloads): mutates F directly, recording
// every mutation into `undo`, and detects the fixpoint from the *net*
// effect instead of a full-instance comparison. `changed` is false exactly
// when F is unchanged: class membership can only grow, and an o-value
// rewritten and then restored within one step is not a change. Without
// deletions the pre-step queries reduce to the first-touch state read
// here directly, so no PreImageTracker is needed. Returns the
// newly-added sub-instance for semi-naive.
Result<Instance> ApplyDeltaInPlace(const Schema& schema, Instance* F,
                                   const Delta& delta, bool* changed,
                                   UndoLog* undo) {
  Instance added;
  // Pre-step o-values of every touched oid, for net-change detection.
  std::map<Oid, std::optional<Value>> first_seen;
  for (const ClassFact& fact : delta.add_objects) {
    bool was_present = F->HasObject(fact.cls, fact.oid);
    auto old_value = F->OValue(fact.oid);
    if (!was_present) *changed = true;
    first_seen.emplace(fact.oid,
                       old_value.ok()
                           ? std::optional<Value>(old_value.value())
                           : std::nullopt);
    LOGRES_RETURN_NOT_OK(
        F->AdoptObject(schema, fact.cls, fact.oid, fact.ovalue, undo));
    if (!was_present ||
        (old_value.ok() && !(old_value.value() == fact.ovalue))) {
      LOGRES_RETURN_NOT_OK(
          added.AdoptObject(schema, fact.cls, fact.oid, fact.ovalue));
    }
  }
  if (!*changed) {
    for (const auto& [oid, original] : first_seen) {
      auto now = F->OValue(oid);
      bool same = original.has_value() && now.ok() &&
                  original.value() == now.value();
      if (!same) {
        *changed = true;
        break;
      }
    }
  }
  for (const AssocFact& fact : delta.add_tuples) {
    if (F->InsertTuple(fact.assoc, fact.tuple, undo)) {
      added.InsertTuple(fact.assoc, fact.tuple);
      *changed = true;
    }
  }
  return added;
}

// In-place VAR' = ((F ⊕ Δ+) − Δ−) ⊕ (F ∩ Δ+ ∩ Δ−): mutates F directly,
// recording every elementary change into `undo`. The queries the algebra
// asks of the *pre-step* F — was the object present, what was its
// o-value, is the deleted fact in F ∩ Δ+ (the both-added-and-deleted
// carve-out) — are answered by a PreImageTracker over the records
// appended so far. On return `*diff` holds the canonical net difference
// vs the pre-apply state: empty exactly when the step left F unchanged
// (the fixpoint). Returns the newly-added sub-instance for semi-naive.
Result<Instance> ApplyDeltaUndo(const Schema& schema, Instance* F,
                                const Delta& delta, UndoLog* undo,
                                NetDiff* diff) {
  Instance added;  // facts new relative to the pre-apply state
  PreImageTracker pre(undo, undo->size());

  // F ⊕ Δ+ : additions; later o-values supersede earlier ones.
  for (const ClassFact& fact : delta.add_objects) {
    bool was_present = pre.Member(*F, fact.cls, fact.oid);
    std::optional<Value> old_value = pre.OValue(*F, fact.oid);
    LOGRES_RETURN_NOT_OK(
        F->AdoptObject(schema, fact.cls, fact.oid, fact.ovalue, undo));
    if (!was_present ||
        (old_value.has_value() && !(*old_value == fact.ovalue))) {
      LOGRES_RETURN_NOT_OK(
          added.AdoptObject(schema, fact.cls, fact.oid, fact.ovalue));
    }
  }
  for (const AssocFact& fact : delta.add_tuples) {
    if (F->InsertTuple(fact.assoc, fact.tuple, undo)) {
      added.InsertTuple(fact.assoc, fact.tuple);
    }
  }

  // − Δ−, except facts in F ∩ Δ+ ∩ Δ− which are re-added by the trailing
  // ⊕ (the paper's both-added-and-deleted carve-out). Membership in F is
  // the *pre-step* membership, per the tracker.
  auto in_add_objects = [&](const ClassFact& fact) {
    for (const ClassFact& a : delta.add_objects) {
      if (a.cls == fact.cls && a.oid == fact.oid &&
          a.ovalue == fact.ovalue) {
        return true;
      }
    }
    return false;
  };
  for (const ClassFact& fact : delta.del_objects) {
    bool keep = pre.Member(*F, fact.cls, fact.oid) && in_add_objects(fact);
    if (keep) continue;
    LOGRES_RETURN_NOT_OK(F->RemoveObject(schema, fact.cls, fact.oid, undo));
  }
  for (const AssocFact& fact : delta.del_tuples) {
    bool keep = pre.Tuple(*F, fact.assoc, fact.tuple) &&
                delta.AddsTuple(fact);
    if (keep) continue;
    F->EraseTuple(fact.assoc, fact.tuple, undo);
    added.EraseTuple(fact.assoc, fact.tuple);
  }

  *diff = pre.Diff(*F);
  return added;
}

// One fixpoint step's rule enumeration, producing `step_delta` in
// rule-then-valuation order (the order the non-commutative ⊕ and the
// invented-oid sequence depend on). The governor's cancellation and
// deadline are polled every 1024 firings, so an interrupt lands inside a
// long step rather than only at the next step boundary.
Status EvaluateStep(const Schema& schema, const CheckedProgram& program,
                    const std::vector<const CheckedRule*>& rules,
                    const Instance& instance, const Instance* restrict_to,
                    const EvalOptions& options,
                    const ResourceGovernor* governor, OidGenerator* gen,
                    std::map<std::pair<size_t, std::string>, Oid>* memo,
                    EvalStats* stats, Delta* step_delta) {
  HeadFirer firer(schema, program, instance, gen, memo, stats);
  JoinContext ctx(schema, program, instance, options.use_indexes);
  size_t fired = 0;
  for (const CheckedRule* rule : rules) {
    if (!rule->head.has_value()) continue;  // denials checked at the end
    auto start = std::chrono::steady_clock::now();
    LOGRES_RETURN_NOT_OK(EnumerateBody(
        ctx, *rule, restrict_to,
        [&](const Bindings& b) -> Status {
          if ((++fired & 1023u) == 0) {
            LOGRES_RETURN_NOT_OK(governor->CheckInterrupt());
          }
          return firer.Fire(*rule, b, step_delta);
        },
        options.reorder_literals));
    if (rule->index < stats->rule_micros.size()) {
      stats->rule_micros[rule->index] +=
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
    }
  }
  return Status::OK();
}

bool StratumQualifiesForSemiNaive(
    const std::vector<const CheckedRule*>& rules) {
  for (const CheckedRule* rule : rules) {
    if (!rule->head.has_value()) return false;
    if (rule->head->negated()) return false;
    if (rule->invents_oid) return false;
    for (const CheckedLiteral& lit : rule->body) {
      if (lit.negated()) return false;
      // Data-function applications aggregate over the growing state;
      // delta restriction would miss regrown sets.
      std::function<bool(const TermPtr&)> has_fn =
          [&](const TermPtr& t) -> bool {
        if (t->kind() == TermKind::kFunctionApp) return true;
        for (const TermPtr& e : t->elements()) {
          if (has_fn(e)) return true;
        }
        for (const Arg& a : t->args()) {
          if (has_fn(a.term)) return true;
        }
        return false;
      };
      if (lit.kind() == LiteralKind::kBuiltin) {
        for (const TermPtr& t : lit.source.builtin_args) {
          if (has_fn(t)) return false;
        }
      } else if (lit.kind() == LiteralKind::kCompare) {
        if (has_fn(lit.source.compare_lhs) ||
            has_fn(lit.source.compare_rhs)) {
          return false;
        }
      } else if (lit.pred.has_value()) {
        for (const auto& [label, t] : lit.pred->fields) {
          (void)label;
          if (has_fn(t)) return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

Result<bool> Evaluator::RunStratum(
    const std::vector<const CheckedRule*>& rules, Instance* instance,
    const EvalOptions& options, ResourceGovernor* governor) {
  bool semi_naive =
      options.semi_naive && StratumQualifiesForSemiNaive(rules);

  // Each step mutates the one live instance under a per-step undo log: no
  // whole-instance copy, no whole-instance comparison. An empty net
  // change is the fixpoint, and at that point the instance holds F
  // unchanged — nothing to roll back.
  std::optional<Instance> delta;  // semi-naive frontier
  UndoLog undo;
  for (;;) {
    LOGRES_RETURN_NOT_OK(governor->CheckStep());
    LOGRES_FAILPOINT("eval.step");
    stats_.steps++;

    Delta step_delta;
    const Instance* restrict_to =
        (semi_naive && delta.has_value()) ? &*delta : nullptr;
    LOGRES_RETURN_NOT_OK(EvaluateStep(schema_, program_, rules, *instance,
                                      restrict_to, options, governor, gen_,
                                      &invention_memo_, &stats_,
                                      &step_delta));

    undo.Clear();
    LOGRES_FAILPOINT("eval.undo.apply");
    Instance added;
    if (step_delta.del_objects.empty() && step_delta.del_tuples.empty()) {
      // Deletion-free step: the pre-image queries a deleting delta would
      // need collapse into ApplyDeltaInPlace's first-touch reads.
      bool changed = false;
      LOGRES_ASSIGN_OR_RETURN(
          added,
          ApplyDeltaInPlace(schema_, instance, step_delta, &changed, &undo));
      touched_.Add(undo);
      if (!changed) return true;
    } else {
      NetDiff net;
      LOGRES_ASSIGN_OR_RETURN(
          added, ApplyDeltaUndo(schema_, instance, step_delta, &undo, &net));
      touched_.Add(undo);
      if (net.Empty()) return true;
    }
    LOGRES_RETURN_NOT_OK(governor->CheckFacts(instance->TotalFacts()));
    LOGRES_RETURN_NOT_OK(CheckByteBudget(*instance, governor));
    delta = std::move(added);
  }
}

Result<Instance> Evaluator::Run(Instance instance,
                                const EvalOptions& options) {
  stats_ = EvalStats{};
  touched_ = TouchedItems{};
  invention_memo_.clear();
  // Interning mode for the whole evaluation (see EvalOptions): every
  // Value built from here on is canonical (on) or fresh (off). Baselines
  // are captured so stats and the byte budget report this run's share of
  // the process-wide interner.
  ScopedInternValues intern_scope(options.intern_values);
  intern_hits_base_ = ValueInterner::stats().hits;
  intern_bytes_base_ = ValueInterner::stats().resident_bytes;
  ResourceGovernor governor(options.budget);
  auto started = std::chrono::steady_clock::now();
  // Steps consumed by per-stratum sub-governors (stratum_fraction mode),
  // which the shared governor never sees.
  size_t substratum_steps = 0;
  stats_.rule_micros.assign(program_.rules.size(), 0);

  if (options.mode == EvalMode::kNonInflationary) {
    // Replacement semantics: F_{i+1} = E ⊕ Δ+(F_i) − Δ−(F_i). Instead of
    // rebuilding a fresh copy of E per step, the live instance is *rolled
    // back* to E by reverse-replaying the step's undo log (the
    // non-inflationary retraction), then the new delta is applied in
    // place. Termination: F_i and F_{i+1} are both E plus their logs' net
    // diffs, and two instances grown from the same base are equal iff
    // their canonical diffs are equal — so comparing diffs decides
    // F_{i+1} == F_i without retaining F_i.
    std::vector<const CheckedRule*> all;
    for (const CheckedRule& rule : program_.rules) {
      all.push_back(&rule);
    }
    UndoLog undo;
    NetDiff prev;  // F_0 = E: the empty diff
    for (;;) {
      LOGRES_RETURN_NOT_OK(governor.CheckStep());
      LOGRES_FAILPOINT("eval.step");
      stats_.steps++;
      Delta step_delta;
      LOGRES_RETURN_NOT_OK(EvaluateStep(
          schema_, program_, all, instance, /*restrict_to=*/nullptr, options,
          &governor, gen_, &invention_memo_, &stats_, &step_delta));
      LOGRES_FAILPOINT("eval.undo.rollback");
      instance.RollbackTo(&undo, 0);  // F_i -> E
      LOGRES_FAILPOINT("eval.undo.apply");
      NetDiff net;
      LOGRES_ASSIGN_OR_RETURN(
          Instance added,
          ApplyDeltaUndo(schema_, &instance, step_delta, &undo, &net));
      (void)added;
      if (net == prev) break;
      prev = std::move(net);
      LOGRES_RETURN_NOT_OK(governor.CheckFacts(instance.TotalFacts()));
      LOGRES_RETURN_NOT_OK(CheckByteBudget(instance, &governor));
    }
    // Each step restarted from E, so the last step's log alone is the
    // result's change relative to E.
    touched_.Add(undo);
  } else if (options.mode == EvalMode::kStratified &&
             program_.stratified) {
    // With stratum_fraction set, each stratum runs under its own
    // sub-governor carved from the shared budget, so one runaway stratum
    // exhausts its slice instead of the budget later strata rely on.
    for (int s = 0; s <= program_.max_stratum; ++s) {
      LOGRES_RETURN_NOT_OK(governor.CheckInterrupt());
      LOGRES_FAILPOINT("eval.stratum");
      std::vector<const CheckedRule*> stratum_rules;
      for (size_t i = 0; i < program_.rules.size(); ++i) {
        if (program_.rules[i].head.has_value() &&
            program_.rule_strata[i] == s) {
          stratum_rules.push_back(&program_.rules[i]);
        }
      }
      if (stratum_rules.empty()) continue;
      if (options.stratum_fraction > 0) {
        ResourceGovernor sub(
            options.budget.Substratum(options.stratum_fraction));
        Result<bool> done =
            RunStratum(stratum_rules, &instance, options, &sub);
        substratum_steps += sub.steps_used();
        if (!done.ok()) {
          return done.status().WithContext(StrCat("stratum ", s));
        }
      } else {
        LOGRES_ASSIGN_OR_RETURN(
            bool done,
            RunStratum(stratum_rules, &instance, options, &governor));
        (void)done;
      }
    }
  } else {
    // Whole-program inflationary fixpoint (also the fallback for
    // unstratified programs, Section 3.1).
    std::vector<const CheckedRule*> all;
    for (const CheckedRule& rule : program_.rules) {
      all.push_back(&rule);
    }
    LOGRES_ASSIGN_OR_RETURN(
        bool done, RunStratum(all, &instance, options, &governor));
    (void)done;
  }

  if (options.check_denials) {
    LOGRES_RETURN_NOT_OK(CheckDenials(instance));
  }
  // Surface what the governor actually charged, plus the fact count and
  // wall-clock time, so callers (module application, the journal) can
  // report the resources a successful evaluation consumed.
  stats_.steps = governor.steps_used() + substratum_steps;
  stats_.facts = instance.TotalFacts();
  if (governor.wants_bytes()) stats_.bytes = instance.ApproxBytes();
  if (options.intern_values) {
    ValueInternerStats is = ValueInterner::stats();
    stats_.interner_nodes = is.live_nodes;
    stats_.interner_hits = is.hits - intern_hits_base_;
    stats_.interner_bytes = is.resident_bytes;
  }
  stats_.elapsed_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - started)
                              .count();
  return instance;
}

Status Evaluator::CheckByteBudget(const Instance& instance,
                                  ResourceGovernor* governor) const {
  if (!governor->wants_bytes()) return Status::OK();
  // The budget bounds the larger of the instance's logical footprint
  // (ApproxBytes counts shared subtrees at every occurrence — the
  // historical measure, kept so byte-budget behavior matches the
  // non-interned path) and the memory this evaluation actually grew the
  // interner by (deduplicated canonical nodes resident beyond the
  // Run-entry baseline).
  size_t bytes = instance.ApproxBytes();
  uint64_t resident = ValueInterner::stats().resident_bytes;
  if (resident > intern_bytes_base_) {
    bytes = std::max(bytes, static_cast<size_t>(resident - intern_bytes_base_));
  }
  return governor->CheckBytes(bytes);
}

Status Evaluator::CheckDenials(const Instance& instance) const {
  JoinContext ctx(schema_, program_, instance);
  for (const CheckedRule& rule : program_.rules) {
    if (rule.head.has_value()) continue;
    bool violated = false;
    Status st = EnumerateBody(ctx, rule, nullptr,
                              [&](const Bindings&) -> Status {
                                violated = true;
                                return Status::ExecutionError("$found$");
                              });
    if (!st.ok() && st.message() != "$found$") return st;
    if (violated) {
      return Status::ConstraintViolation(
          StrCat("denial violated: ", rule.source.ToString()));
    }
  }
  return Status::OK();
}

Result<std::vector<Bindings>> AnswerGoal(
    const Schema& schema, const std::vector<FunctionDecl>& functions,
    const Instance& instance, const Goal& goal) {
  // A goal is checked like a denial body, but its satisfying bindings are
  // the answer.
  Rule query;
  query.body = goal.literals;
  LOGRES_ASSIGN_OR_RETURN(CheckedProgram checked,
                          Typecheck(schema, functions, {query}));
  JoinContext ctx(schema, checked, instance);
  std::set<std::string> goal_vars;
  for (const Literal& lit : goal.literals) {
    std::vector<std::string> vars;
    lit.CollectVariables(&vars);
    goal_vars.insert(vars.begin(), vars.end());
  }
  std::set<Bindings> unique;
  LOGRES_RETURN_NOT_OK(EnumerateBody(
      ctx, checked.rules.front(), nullptr,
      [&](const Bindings& b) -> Status {
        Bindings projected;
        for (const std::string& v : goal_vars) {
          auto it = b.find(v);
          if (it != b.end()) projected.emplace(v, it->second);
        }
        unique.insert(std::move(projected));
        return Status::OK();
      }));
  return std::vector<Bindings>(unique.begin(), unique.end());
}

}  // namespace logres
