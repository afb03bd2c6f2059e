// The LOGRES database: persistent states and module application
// (paper Sections 4.1-4.2).
//
// A database *state* is the triple (E, R, S): extensionally stored facts,
// persistent rules, and the schema. The database *instance* I is not
// stored — it is the result of applying R to E under the inflationary
// semantics ("a different interpretation of the EDB, which is not regarded
// as an instance of the database", Section 3.2). A predicate can be
// defined partly extensionally and partly intensionally.
//
// The evolution of the database is a sequence of module applications, each
// qualified by one of the six modes of modes.h. An application whose
// resulting instance is inconsistent (referential integrity, Definition 4
// conditions, or a violated denial) is *rejected*: the state is unchanged
// and an error is returned ("M is partial, as it is undefined over
// instances for which I1 is inconsistent").

#ifndef LOGRES_CORE_DATABASE_H_
#define LOGRES_CORE_DATABASE_H_

#include <optional>
#include <string>
#include <vector>

#include "core/eval.h"
#include "core/instance.h"
#include "core/module.h"
#include "core/schema.h"
#include "core/undo_log.h"
#include "util/status.h"

namespace logres {

/// \brief Outcome of a module application.
struct ModuleResult {
  /// The instance I1 of the resulting state (materialized).
  Instance instance;
  /// Goal bindings, when the module carried a goal (modes *DI only).
  std::optional<std::vector<Bindings>> goal_answer;
  EvalStats stats;
};

/// \brief A LOGRES database: owns the state (E, R, S) and an oid
/// generator, and applies modules to evolve it.
class Database {
 public:
  Database() = default;

  // Copies duplicate the state (E, R, S), modules, and the generator, but
  // never the rollback machinery: snapshots are bound to the object they
  // were taken from, so a copy starts with no outstanding snapshot marks
  // and an empty undo log. Nor do they copy the verified-E mark (DESIGN.md
  // §15): a copy's first evaluation checks all of E again. Copying (or
  // assigning over) a database while one of its own snapshots is
  // outstanding is not supported.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// \brief Creates a database from source text: schema sections define
  /// S0, rules sections define R0, and any `module` blocks are registered
  /// for ApplyByName.
  static Result<Database> Create(const std::string& source);

  // ---- State access --------------------------------------------------------
  const Schema& schema() const { return schema_; }
  const std::vector<Rule>& rules() const { return rules_; }
  const std::vector<FunctionDecl>& functions() const { return functions_; }
  const Instance& edb() const { return edb_; }
  /// \brief Direct write access to E (dump load, tests). Calling it
  /// clears the mark that E passed the Definition 4 check (DESIGN.md §15),
  /// so the next evaluation re-checks all of E; do not keep the pointer
  /// across an evaluation.
  Instance* mutable_edb() {
    verified_schema_.reset();
    return &edb_;
  }
  OidGenerator* oid_generator() { return &gen_; }

  /// \brief How many oids this database has issued so far.
  uint64_t oids_issued() const { return gen_.issued(); }

  /// \brief Modules registered at Create time, applicable by name.
  const std::vector<Module>& registered_modules() const { return modules_; }

  // ---- Transactions ---------------------------------------------------------
  /// \brief A rollback point over the state triple (E, R, S) plus declared
  /// functions. Schema, rules, and functions are saved by (small) copy;
  /// the EDB is *not* copied — while any snapshot is outstanding, every
  /// EDB mutation is recorded in the database's undo log, and restoring
  /// replays the log in reverse from the snapshot's mark (DESIGN.md §10).
  /// The restored state is byte-identical, exactly as the old deep-copy
  /// snapshot was. The oid generator is deliberately excluded: a rejected
  /// application may consume oids (they are never reused), but the state
  /// itself must restore byte-identically.
  ///
  /// Snapshots are move-only and release their log mark on destruction
  /// (the commit path). Nesting is supported (the journaled store wraps
  /// Apply's internal snapshot); windows must close LIFO. Writes through
  /// mutable_edb() while a snapshot is outstanding bypass the log and are
  /// therefore not rolled back — no in-tree caller does that. A Database
  /// must not be moved while one of its snapshots is outstanding.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&& other) noexcept;
    Snapshot& operator=(Snapshot&& other) noexcept;
    ~Snapshot();

   private:
    friend class Database;
    void Release();

    const Database* db_ = nullptr;  // non-null while the mark is held
    size_t undo_base_ = 0;
    Schema schema_;
    std::vector<Rule> rules_;
    std::vector<FunctionDecl> functions_;
  };

  /// \brief Captures the current state for a later RestoreSnapshot.
  Snapshot TakeSnapshot() const;

  /// \brief Restores a snapshot, discarding every state change made since
  /// it was taken. This is the rollback half of module application's
  /// all-or-nothing contract (Section 4.1: "M is partial ... the state is
  /// unchanged").
  void RestoreSnapshot(Snapshot snapshot);

  // ---- Direct EDB construction (host-language API) --------------------------
  // Both entry points advance the oid generator past every oid the stored
  // value names, so the state always dumps and loads (and a journaled
  // store created from it recovers). Like every oid the generator hands
  // out, the advance survives a snapshot rollback.

  /// \brief Creates an object in \p cls with \p ovalue; returns its oid.
  Result<Oid> InsertObject(const std::string& cls, Value ovalue);

  /// \brief Inserts a tuple into association \p assoc. Labels must match
  /// the association's effective fields.
  Status InsertTuple(const std::string& assoc, Value tuple);

  // ---- Evaluation -----------------------------------------------------------
  /// \brief Materializes the instance I of the current state (E, R, S).
  Result<Instance> Materialize(const EvalOptions& options = {}) const;

  /// \brief Answers \p goal. When EvalOptions::goal_directed is on and
  /// the goal has bound arguments, the program is rewritten with magic
  /// sets (core/magic.h) so only the goal's demanded cone is evaluated;
  /// otherwise (or when the rewrite falls back — see
  /// EvalStats::goal_directed_fallback) the whole instance is
  /// materialized and filtered. Answers are identical either way.
  Result<std::vector<Bindings>> Query(const Goal& goal,
                                      const EvalOptions& options = {}) const;

  /// \brief Query with evaluation observability: \p stats receives the
  /// run's counters, including the goal-directed ones (magic_rules,
  /// demand_facts, cone_fraction, goal_directed_fallback).
  Result<std::vector<Bindings>> Query(const Goal& goal,
                                      const EvalOptions& options,
                                      EvalStats* stats) const;

  /// \brief Parses and answers a goal ("? person(name: X)").
  Result<std::vector<Bindings>> Query(const std::string& goal_text,
                                      const EvalOptions& options = {}) const;

  /// \brief Parsing + stats overload of the above.
  Result<std::vector<Bindings>> Query(const std::string& goal_text,
                                      const EvalOptions& options,
                                      EvalStats* stats) const;

  // ---- Module application ----------------------------------------------------
  /// \brief Applies \p module under \p mode. On success the state is
  /// updated per the mode's definition (Section 4.1); on ANY failure —
  /// divergence, budget exhaustion, cancellation, builtin error,
  /// inconsistent resulting instance, injected fault — the state is
  /// rolled back to its pre-application snapshot and the error returned.
  Result<ModuleResult> Apply(const Module& module, ApplicationMode mode,
                             const EvalOptions& options = {});

  /// \brief Applies \p module under its default mode (RIDI if none).
  Result<ModuleResult> Apply(const Module& module,
                             const EvalOptions& options = {});

  /// \brief Applies a registered module by name.
  Result<ModuleResult> ApplyByName(const std::string& name,
                                   const EvalOptions& options = {});

  /// \brief Parses source as a module and applies it under \p mode.
  Result<ModuleResult> ApplySource(const std::string& source,
                                   ApplicationMode mode,
                                   const EvalOptions& options = {});

 private:
  // Builds the working schema: S plus backing associations for functions.
  Result<Schema> EffectiveSchema(
      const Schema& base, const std::vector<FunctionDecl>& functions) const;

  // Applies the module by mutating the state members directly; the public
  // Apply wraps it in TakeSnapshot/RestoreSnapshot for atomicity.
  Result<ModuleResult> ApplyInPlace(const Module& module,
                                    ApplicationMode mode,
                                    const EvalOptions& options);

  // Evaluates `rules` (plus functions) over `edb` under `schema`. The
  // result passed the Definition 4 check under the effective schema,
  // which is stored in `checked_under` when that is non-null.
  Result<Instance> Evaluate(const Schema& schema,
                            const std::vector<FunctionDecl>& functions,
                            const std::vector<Rule>& rules,
                            const Instance& edb, const EvalOptions& options,
                            EvalStats* stats,
                            Schema* checked_under = nullptr) const;

  // The Definition 4 check of `result`, the fixpoint of a run over `base`
  // that touched `touched` (DESIGN.md §15). Only the touched items are
  // checked when `base` is E, E is marked consistent under a schema that
  // `schema` extends with associations only, and the run erased nothing;
  // an unmarked E gets one full check first. Otherwise all of `result`.
  Status CheckRunResult(const Instance& base, const Schema& schema,
                        const Instance& result,
                        const TouchedItems& touched) const;

  // Attempts goal-directed (magic-set) evaluation of `goal` against
  // (`schema`, `functions`, `rules`, `edb`). Returns nullopt when the
  // rewrite refused (reason in stats->goal_directed_fallback) — the
  // caller then takes the whole-program path. Once the rewrite applies,
  // evaluation failures (budget exhaustion, cancellation, ...) propagate
  // as errors exactly like the whole-program path's. On success `stats`
  // holds the cone run's counters and `cone` (if non-null) the demanded
  // cone with magic relations stripped.
  Result<std::optional<std::vector<Bindings>>> QueryGoalDirected(
      const Schema& schema, const std::vector<FunctionDecl>& functions,
      const std::vector<Rule>& rules, const Instance& edb, const Goal& goal,
      const EvalOptions& options, EvalStats* stats, Instance* cone) const;

  // The EDB undo log to record mutations into while at least one snapshot
  // window is open; nullptr (don't record) otherwise, so the log never
  // grows without a rollback point to serve.
  UndoLog* ActiveUndo() const {
    return snapshot_bases_.empty() ? nullptr : &edb_undo_;
  }

  // Removes one outstanding mark at `base`; clears the log when the last
  // mark goes (nothing can roll back past a closed window).
  void ReleaseSnapshotMark(size_t base) const;

  // Replaces the whole EDB (the *DV modes), logging the old instance as a
  // single O(1) undo record when a snapshot is outstanding.
  void ReplaceEdb(Instance next);

  Schema schema_;
  std::vector<Rule> rules_;
  std::vector<FunctionDecl> functions_;
  Instance edb_;
  // The effective schema under which edb_ last passed the full Definition
  // 4 check; nullopt when unknown. Every write to edb_ and every schema
  // change clears it. Mutable: queries (const) set it. Per Database, like
  // the rest of the state (DESIGN.md §9).
  mutable std::optional<Schema> verified_schema_;
  std::vector<Module> modules_;
  // Mutable: module application consumes oids even when rejected.
  mutable OidGenerator gen_;
  // Mutable like the generator: TakeSnapshot() is conceptually const (the
  // state is unchanged) but registers its rollback mark here.
  mutable UndoLog edb_undo_;
  mutable std::vector<size_t> snapshot_bases_;
};

}  // namespace logres

#endif  // LOGRES_CORE_DATABASE_H_
