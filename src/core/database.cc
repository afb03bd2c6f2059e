#include "core/database.h"

#include <algorithm>
#include <optional>

#include "core/magic.h"
#include "core/typecheck.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace logres {

namespace {

// Rules compare by their printed form (used by the RDD* modes).
bool SameRule(const Rule& a, const Rule& b) {
  return a.ToString() == b.ToString();
}

std::vector<Rule> SubtractRules(const std::vector<Rule>& base,
                                const std::vector<Rule>& removed) {
  std::vector<Rule> out;
  for (const Rule& rule : base) {
    bool drop = std::any_of(
        removed.begin(), removed.end(),
        [&](const Rule& r) { return SameRule(rule, r); });
    if (!drop) out.push_back(rule);
  }
  return out;
}

std::vector<FunctionDecl> MergeFunctions(
    const std::vector<FunctionDecl>& a,
    const std::vector<FunctionDecl>& b) {
  std::vector<FunctionDecl> out = a;
  for (const FunctionDecl& fn : b) {
    bool dup = std::any_of(out.begin(), out.end(),
                           [&](const FunctionDecl& f) {
                             return ToUpper(f.name) == ToUpper(fn.name);
                           });
    if (!dup) out.push_back(fn);
  }
  return out;
}

// Folds the stats of a second evaluation phase into `into`: counters
// accumulate, the fact count reflects the final (second) instance.
void AccumulateStats(EvalStats* into, const EvalStats& second) {
  into->steps += second.steps;
  into->rule_firings += second.rule_firings;
  into->invented_oids += second.invented_oids;
  into->deletions += second.deletions;
  into->facts = second.facts;
  into->elapsed_micros += second.elapsed_micros;
}

}  // namespace

Result<Database> Database::Create(const std::string& source) {
  LOGRES_ASSIGN_OR_RETURN(ParsedUnit unit, logres::Parse(source));
  Database db;
  db.schema_ = std::move(unit.schema);
  db.functions_ = std::move(unit.functions);
  db.rules_ = std::move(unit.rules);
  for (ParsedModule& m : unit.modules) {
    db.modules_.push_back(Module::FromParsed(std::move(m)));
  }
  if (!unit.goals.empty()) {
    return Status::InvalidArgument(
        "top-level goals are not part of a database definition; put them "
        "in a module or use Query()");
  }
  // Validate S0 (with function backing associations).
  LOGRES_ASSIGN_OR_RETURN(Schema effective,
                          db.EffectiveSchema(db.schema_, db.functions_));
  (void)effective;
  return db;
}

Result<Schema> Database::EffectiveSchema(
    const Schema& base, const std::vector<FunctionDecl>& functions) const {
  Schema schema = base;
  for (const FunctionDecl& fn : functions) {
    FunctionDecl canonical = fn;
    canonical.name = ToUpper(fn.name);
    LOGRES_RETURN_NOT_OK(DeclareBackingAssociation(&schema, canonical));
  }
  LOGRES_RETURN_NOT_OK(schema.Validate());
  return schema;
}

Result<Oid> Database::InsertObject(const std::string& cls, Value ovalue) {
  std::string name = ToUpper(cls);
  if (!schema_.IsClass(name)) {
    return Status::NotFound(StrCat("'", cls, "' is not a class"));
  }
  verified_schema_.reset();
  // The host may name oids the generator has not issued yet; skip past
  // them so invented oids never collide and the state stays loadable.
  gen_.FastForward(MaxOidIn(ovalue));
  return edb_.CreateObject(schema_, name, std::move(ovalue), &gen_,
                           ActiveUndo());
}

Status Database::InsertTuple(const std::string& assoc, Value tuple) {
  std::string name = ToUpper(assoc);
  if (!schema_.IsAssociation(name)) {
    return Status::NotFound(StrCat("'", assoc, "' is not an association"));
  }
  verified_schema_.reset();
  gen_.FastForward(MaxOidIn(tuple));
  edb_.InsertTuple(name, std::move(tuple), ActiveUndo());
  return Status::OK();
}

Result<Instance> Database::Evaluate(
    const Schema& schema, const std::vector<FunctionDecl>& functions,
    const std::vector<Rule>& rules, const Instance& edb,
    const EvalOptions& options, EvalStats* stats,
    Schema* checked_under) const {
  LOGRES_ASSIGN_OR_RETURN(Schema effective,
                          EffectiveSchema(schema, functions));
  LOGRES_ASSIGN_OR_RETURN(CheckedProgram program,
                          Typecheck(effective, functions, rules));
  Evaluator evaluator(effective, program, &gen_);
  LOGRES_ASSIGN_OR_RETURN(Instance instance,
                          evaluator.Run(edb, options));
  LOGRES_RETURN_NOT_OK(
      CheckRunResult(edb, effective, instance, evaluator.touched()));
  if (stats != nullptr) *stats = evaluator.stats();
  if (checked_under != nullptr) *checked_under = std::move(effective);
  return instance;
}

Status Database::CheckRunResult(const Instance& base, const Schema& schema,
                                const Instance& result,
                                const TouchedItems& touched) const {
  if (&base != &edb_ || touched.erased) return result.CheckConsistent(schema);
  if (!verified_schema_.has_value() ||
      !schema.ExtendsWithAssociations(*verified_schema_)) {
    verified_schema_.reset();
    if (edb_.CheckConsistent(schema).ok()) verified_schema_ = schema;
  }
  if (!verified_schema_.has_value()) return result.CheckConsistent(schema);
  return result.CheckConsistent(schema, &touched);
}

Result<Instance> Database::Materialize(const EvalOptions& options) const {
  return Evaluate(schema_, functions_, rules_, edb_, options, nullptr);
}

Result<std::optional<std::vector<Bindings>>> Database::QueryGoalDirected(
    const Schema& schema, const std::vector<FunctionDecl>& functions,
    const std::vector<Rule>& rules, const Instance& edb, const Goal& goal,
    const EvalOptions& options, EvalStats* stats, Instance* cone) const {
  LOGRES_ASSIGN_OR_RETURN(Schema effective,
                          EffectiveSchema(schema, functions));
  MagicRewrite mr =
      MagicRewriteForGoal(effective, functions, rules, goal, options);
  if (!mr.applied) {
    if (stats != nullptr) stats->goal_directed_fallback = mr.fallback_reason;
    return std::optional<std::vector<Bindings>>();
  }
  Evaluator evaluator(mr.schema, mr.checked, &gen_);
  LOGRES_ASSIGN_OR_RETURN(Instance demanded,
                          evaluator.Run(SeedDemand(mr, edb), options));
  EvalStats run_stats = evaluator.stats();
  StripToCone(mr, edb, &demanded, &run_stats);
  // The seeds live in magic relations, stripped above, so `edb` is the
  // base the touched items are relative to.
  LOGRES_RETURN_NOT_OK(
      CheckRunResult(edb, effective, demanded, evaluator.touched()));
  LOGRES_ASSIGN_OR_RETURN(auto answer,
                          AnswerGoal(effective, functions, demanded, goal));
  if (stats != nullptr) *stats = std::move(run_stats);
  if (cone != nullptr) *cone = std::move(demanded);
  return std::optional(std::move(answer));
}

Result<std::vector<Bindings>> Database::Query(
    const Goal& goal, const EvalOptions& options) const {
  return Query(goal, options, nullptr);
}

Result<std::vector<Bindings>> Database::Query(const Goal& goal,
                                              const EvalOptions& options,
                                              EvalStats* stats) const {
  std::string fallback_reason;
  if (options.goal_directed) {
    EvalStats gd_stats;
    LOGRES_ASSIGN_OR_RETURN(
        auto attempted,
        QueryGoalDirected(schema_, functions_, rules_, edb_, goal, options,
                          &gd_stats, nullptr));
    if (attempted.has_value()) {
      if (stats != nullptr) *stats = std::move(gd_stats);
      return *std::move(attempted);
    }
    fallback_reason = std::move(gd_stats.goal_directed_fallback);
  }
  EvalStats whole_stats;
  Schema effective;
  LOGRES_ASSIGN_OR_RETURN(Instance instance,
                          Evaluate(schema_, functions_, rules_, edb_, options,
                                   &whole_stats, &effective));
  if (stats != nullptr) {
    *stats = std::move(whole_stats);
    stats->goal_directed_fallback = std::move(fallback_reason);
  }
  return AnswerGoal(effective, functions_, instance, goal);
}

Result<std::vector<Bindings>> Database::Query(
    const std::string& goal_text, const EvalOptions& options) const {
  return Query(goal_text, options, nullptr);
}

Result<std::vector<Bindings>> Database::Query(
    const std::string& goal_text, const EvalOptions& options,
    EvalStats* stats) const {
  LOGRES_ASSIGN_OR_RETURN(Goal goal, ParseGoal(goal_text));
  return Query(goal, options, stats);
}

Result<ModuleResult> Database::Apply(const Module& module,
                                     const EvalOptions& options) {
  return Apply(module,
               module.default_mode.value_or(ApplicationMode::kRIDI),
               options);
}

Result<ModuleResult> Database::ApplyByName(const std::string& name,
                                           const EvalOptions& options) {
  for (const Module& m : modules_) {
    if (m.name == ToLower(name)) return Apply(m, options);
  }
  return Status::NotFound(StrCat("no registered module named '", name, "'"));
}

Result<ModuleResult> Database::ApplySource(const std::string& source,
                                           ApplicationMode mode,
                                           const EvalOptions& options) {
  LOGRES_ASSIGN_OR_RETURN(Module module, Module::Parse(source));
  return Apply(module, mode, options);
}

Database::Snapshot::Snapshot(Snapshot&& other) noexcept
    : db_(other.db_),
      undo_base_(other.undo_base_),
      schema_(std::move(other.schema_)),
      rules_(std::move(other.rules_)),
      functions_(std::move(other.functions_)) {
  other.db_ = nullptr;
}

Database::Snapshot& Database::Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    db_ = other.db_;
    undo_base_ = other.undo_base_;
    schema_ = std::move(other.schema_);
    rules_ = std::move(other.rules_);
    functions_ = std::move(other.functions_);
    other.db_ = nullptr;
  }
  return *this;
}

Database::Snapshot::~Snapshot() { Release(); }

void Database::Snapshot::Release() {
  if (db_ == nullptr) return;
  db_->ReleaseSnapshotMark(undo_base_);
  db_ = nullptr;
}

Database::Database(const Database& other)
    : schema_(other.schema_),
      rules_(other.rules_),
      functions_(other.functions_),
      edb_(other.edb_),
      modules_(other.modules_),
      gen_(other.gen_) {}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  rules_ = other.rules_;
  functions_ = other.functions_;
  edb_ = other.edb_;
  modules_ = other.modules_;
  gen_ = other.gen_;
  verified_schema_.reset();
  edb_undo_.Clear();
  snapshot_bases_.clear();
  return *this;
}

Database::Snapshot Database::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.db_ = this;
  snapshot.undo_base_ = edb_undo_.size();
  snapshot.schema_ = schema_;
  snapshot.rules_ = rules_;
  snapshot.functions_ = functions_;
  snapshot_bases_.push_back(snapshot.undo_base_);
  return snapshot;
}

void Database::ReleaseSnapshotMark(size_t base) const {
  for (auto it = snapshot_bases_.rbegin(); it != snapshot_bases_.rend();
       ++it) {
    if (*it == base) {
      snapshot_bases_.erase(std::next(it).base());
      break;
    }
  }
  if (snapshot_bases_.empty()) edb_undo_.Clear();
}

void Database::RestoreSnapshot(Snapshot snapshot) {
  verified_schema_.reset();
  edb_.RollbackTo(&edb_undo_, snapshot.undo_base_);
  schema_ = std::move(snapshot.schema_);
  rules_ = std::move(snapshot.rules_);
  functions_ = std::move(snapshot.functions_);
  // `snapshot` goes out of scope here and releases its mark.
}

void Database::ReplaceEdb(Instance next) {
  if (UndoLog* undo = ActiveUndo()) {
    undo->InstanceReplaced(
        std::make_unique<Instance>(std::move(edb_)));
  }
  verified_schema_.reset();
  edb_ = std::move(next);
}

Result<ModuleResult> Database::Apply(const Module& module,
                                     ApplicationMode mode,
                                     const EvalOptions& options) {
  // Module application is a transaction over the state triple: any
  // failure anywhere in ApplyInPlace — including one injected by a
  // failpoint at a step/stratum/builtin boundary — restores the
  // pre-application snapshot before the error surfaces.
  Snapshot snapshot = TakeSnapshot();
  Result<ModuleResult> result = ApplyInPlace(module, mode, options);
  if (!result.ok()) {
    RestoreSnapshot(std::move(snapshot));
    return result.status();
  }
  return result;
}

Result<ModuleResult> Database::ApplyInPlace(const Module& module,
                                            ApplicationMode mode,
                                            const EvalOptions& caller_options) {
  // Modules are parametric in their rule semantics (Section 1): a
  // declared `semantics` clause selects the evaluation mode; everything
  // else (budget, indexes, ...) stays with the caller.
  EvalOptions options = caller_options;
  if (module.semantics.has_value()) options.mode = *module.semantics;
  if (module.goal.has_value() && !AllowsGoal(mode)) {
    return Status::InvalidArgument(
        StrCat("mode ", ApplicationModeName(mode),
               " forbids a goal (Section 4.1); module '", module.name,
               "' declares one"));
  }

  ModuleResult result;
  bool goal_answered = false;

  switch (mode) {
    case ApplicationMode::kRIDI:
    case ApplicationMode::kRADI: {
      // Query over R0 ∪ RM with S0 ∪ SM.
      Schema merged = schema_;
      LOGRES_RETURN_NOT_OK(merged.Merge(module.schema));
      std::vector<FunctionDecl> fns =
          MergeFunctions(functions_, module.functions);
      std::vector<Rule> rules = rules_;
      rules.insert(rules.end(), module.rules.begin(), module.rules.end());
      if (module.goal.has_value() && options.goal_directed) {
        // A selective goal evaluates only its demanded cone
        // (core/magic.h); result.instance is then that cone — the part
        // of the merged fixpoint the goal depends on — rather than the
        // whole instance. Falls back to the whole fixpoint whenever the
        // rewrite cannot prove equivalence.
        Instance cone;
        LOGRES_ASSIGN_OR_RETURN(
            auto attempted,
            QueryGoalDirected(merged, fns, rules, edb_, *module.goal,
                              options, &result.stats, &cone));
        if (attempted.has_value()) {
          result.instance = std::move(cone);
          result.goal_answer = *std::move(attempted);
          goal_answered = true;
        }
      }
      if (!goal_answered) {
        std::string fallback_reason =
            std::move(result.stats.goal_directed_fallback);
        LOGRES_ASSIGN_OR_RETURN(
            result.instance,
            Evaluate(merged, fns, rules, edb_, options, &result.stats));
        result.stats.goal_directed_fallback = std::move(fallback_reason);
      }
      if (mode == ApplicationMode::kRADI) {
        verified_schema_.reset();
        schema_ = std::move(merged);
        rules_ = std::move(rules);
        functions_ = std::move(fns);
      }
      break;
    }
    case ApplicationMode::kRDDI: {
      verified_schema_.reset();
      rules_ = SubtractRules(rules_, module.rules);
      for (const std::string& name : module.schema.DomainNames()) {
        LOGRES_RETURN_NOT_OK(schema_.Undeclare(name));
      }
      for (const std::string& name : module.schema.ClassNames()) {
        LOGRES_RETURN_NOT_OK(schema_.Undeclare(name));
      }
      for (const std::string& name : module.schema.AssociationNames()) {
        LOGRES_RETURN_NOT_OK(schema_.Undeclare(name));
      }
      LOGRES_ASSIGN_OR_RETURN(
          result.instance,
          Evaluate(schema_, functions_, rules_, edb_, options,
                   &result.stats));
      break;
    }
    case ApplicationMode::kRIDV:
    case ApplicationMode::kRADV: {
      // E1 = the result of applying the update rules RM to E0.
      Schema merged = schema_;
      LOGRES_RETURN_NOT_OK(merged.Merge(module.schema));
      std::vector<FunctionDecl> fns =
          MergeFunctions(functions_, module.functions);
      Schema e1_schema;
      LOGRES_ASSIGN_OR_RETURN(
          Instance e1, Evaluate(merged, fns, module.rules, edb_, options,
                                &result.stats, &e1_schema));
      ReplaceEdb(std::move(e1));
      schema_ = std::move(merged);
      functions_ = std::move(fns);
      // E1 passed the Definition 4 check under exactly the new (S, F).
      verified_schema_ = std::move(e1_schema);
      if (mode == ApplicationMode::kRADV) {
        rules_.insert(rules_.end(), module.rules.begin(),
                      module.rules.end());
      }
      // I1 = R1 applied to E1 must be consistent.
      EvalStats stats2;
      LOGRES_ASSIGN_OR_RETURN(
          result.instance,
          Evaluate(schema_, functions_, rules_, edb_, options, &stats2));
      AccumulateStats(&result.stats, stats2);
      break;
    }
    case ApplicationMode::kRDDV: {
      // E_M = the instance of (∅, R_M): facts derivable from the deleted
      // rules alone; E1 = E0 − E_M (associations by tuple equality,
      // classes by o-value equality, since invented oids differ).
      Instance empty;
      LOGRES_ASSIGN_OR_RETURN(
          Instance em, Evaluate(schema_, functions_, module.rules, empty,
                                options, &result.stats));
      verified_schema_.reset();
      for (const auto& [assoc, tuples] : em.associations()) {
        for (const Value& t : tuples) {
          edb_.EraseTuple(assoc, t, ActiveUndo());
        }
      }
      for (const auto& [cls, oids] : em.class_oids()) {
        for (Oid em_oid : oids) {
          auto em_value = em.OValue(em_oid);
          if (!em_value.ok()) continue;
          std::vector<Oid> to_remove;
          for (Oid oid : edb_.OidsOf(cls)) {
            auto v = edb_.OValue(oid);
            if (v.ok() && v.value() == em_value.value()) {
              to_remove.push_back(oid);
            }
          }
          for (Oid oid : to_remove) {
            LOGRES_RETURN_NOT_OK(
                edb_.RemoveObject(schema_, cls, oid, ActiveUndo()));
          }
        }
      }
      rules_ = SubtractRules(rules_, module.rules);
      for (const std::string& name : module.schema.DomainNames()) {
        LOGRES_RETURN_NOT_OK(schema_.Undeclare(name));
      }
      for (const std::string& name : module.schema.ClassNames()) {
        LOGRES_RETURN_NOT_OK(schema_.Undeclare(name));
      }
      for (const std::string& name : module.schema.AssociationNames()) {
        LOGRES_RETURN_NOT_OK(schema_.Undeclare(name));
      }
      EvalStats stats2;
      LOGRES_ASSIGN_OR_RETURN(
          result.instance,
          Evaluate(schema_, functions_, rules_, edb_, options, &stats2));
      AccumulateStats(&result.stats, stats2);
      break;
    }
  }

  // Goal answering over the whole-program instance (modes *DI only). The
  // goal is typed under the state's schema merged with the module's, so
  // in RDDI the declarations the module just removed still type it.
  if (module.goal.has_value() && !goal_answered) {
    Schema merged = schema_;
    LOGRES_RETURN_NOT_OK(merged.Merge(module.schema));
    std::vector<FunctionDecl> fns =
        MergeFunctions(functions_, module.functions);
    LOGRES_ASSIGN_OR_RETURN(Schema effective, EffectiveSchema(merged, fns));
    LOGRES_ASSIGN_OR_RETURN(
        result.goal_answer,
        AnswerGoal(effective, fns, result.instance, *module.goal));
  }

  // The last injection site before the transaction commits: a fault here
  // proves the rollback path restores a fully mutated state.
  LOGRES_FAILPOINT("db.apply.commit");
  return result;
}

}  // namespace logres
