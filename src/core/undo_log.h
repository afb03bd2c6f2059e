// Undo logging for in-place delta application (DESIGN.md §10).
//
// The fixpoint loop used to copy the whole Instance once per step — the
// dominant serial cost at large instances. Instead, every elementary
// mutation of an Instance can append an UndoRecord describing exactly what
// changed; replaying the records in reverse (Instance::RollbackTo) restores
// the pre-mutation state byte for byte. "Byte for byte" includes the
// std::map key quirks that Instance::operator== observes: the historical
// mutators create empty pi/rho entries via operator[] (e.g. RemoveObject on
// a class with no members), and {cls: {}} differs from an absent key, so
// key creation is recorded and undone explicitly.
//
// The log also answers the two questions the delta-application algebra
// used to ask of the untouched pre-step instance F:
//   * PreImageTracker reconstructs, per touched item, its state before the
//     first record touched it (was_present / old o-value / tuple-present
//     carve-out queries), falling back to the live instance for untouched
//     items — F itself no longer needs to be retained.
//   * NetDiff is the canonical difference of the live instance relative to
//     the log's base state: two instances grown from the same base are
//     equal iff their NetDiffs are equal, which is how the fixpoint
//     termination test (`next == F`) survives losing the copy of F.
//
// The oid generator is deliberately outside the log, matching the
// Database::Snapshot contract: a rolled-back application may consume oids
// (they are never reused), but the state itself restores exactly.

#ifndef LOGRES_CORE_UNDO_LOG_H_
#define LOGRES_CORE_UNDO_LOG_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algres/value.h"

namespace logres {

class Instance;

/// \brief One elementary state change, with enough context to invert it.
///
/// Pre-images are held as Value handles — refcounted pointers to the very
/// nodes the instance held, canonical ones when the interner is on. A
/// rollback therefore re-inserts the same physical nodes it removed (no
/// reconstruction), so it can never resurrect a non-canonical duplicate
/// of a value the interner owns; it also keeps released-then-restored
/// nodes alive across the window by holding their refcount.
struct UndoRecord {
  enum class Kind {
    kClassKeyCreated,   // pi gained an (empty) entry for class `name`
    kOidInserted,       // `oid` entered pi(`name`)
    kOidErased,         // `oid` left pi(`name`)
    kOValueCreated,     // nu(`oid`) assigned for the first time
    kOValueSet,         // nu(`oid`) overwritten; `value` is the previous
    kOValueErased,      // nu(`oid`) dropped; `value` is the previous
    kAssocKeyCreated,   // rho gained an (empty) entry for association `name`
    kTupleInserted,     // `value` entered rho(`name`)
    kTupleErased,       // `value` left rho(`name`)
    kInstanceReplaced,  // wholesale replacement; `replaced` is the previous
  };

  Kind kind;
  std::string name;  // class or association, for the keyed kinds
  Oid oid;
  Value value;
  std::unique_ptr<Instance> replaced;

  // Out of line: Instance is incomplete here.
  UndoRecord(Kind kind, std::string name, Oid oid, Value value);
  explicit UndoRecord(std::unique_ptr<Instance> replaced);
  UndoRecord(UndoRecord&&) noexcept;
  UndoRecord& operator=(UndoRecord&&) noexcept;
  ~UndoRecord();
};

/// \brief An append-only sequence of UndoRecords. Instance mutators append
/// to it (when handed one); Instance::RollbackTo replays a suffix in
/// reverse and truncates it.
class UndoLog {
 public:
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const UndoRecord& operator[](size_t i) const { return records_[i]; }
  UndoRecord& operator[](size_t i) { return records_[i]; }

  void Clear() { records_.clear(); }

  /// \brief Drops every record at index >= \p n (used by RollbackTo after
  /// the suffix has been replayed).
  void Truncate(size_t n) {
    records_.erase(records_.begin() + static_cast<ptrdiff_t>(n),
                   records_.end());
  }

  void ClassKeyCreated(std::string cls);
  void OidInserted(std::string cls, Oid oid);
  void OidErased(std::string cls, Oid oid);
  void OValueCreated(Oid oid);
  void OValueSet(Oid oid, Value previous);
  void OValueErased(Oid oid, Value previous);
  void AssocKeyCreated(std::string assoc);
  void TupleInserted(std::string assoc, Value tuple);
  void TupleErased(std::string assoc, Value tuple);
  void InstanceReplaced(std::unique_ptr<Instance> previous);

 private:
  std::vector<UndoRecord> records_;
};

/// \brief The items an evaluation inserted or rewrote relative to the
/// instance it started from, gathered from the undo records each step
/// writes: what Instance::CheckConsistent needs to re-check after the run
/// when the starting instance was already consistent (DESIGN.md §15).
/// Erased tuples need no re-check (dropping a tuple cannot break Definition
/// 4); an erased oid or o-value can leave dangling references anywhere, so
/// it only sets `erased`, which asks for the full check.
struct TouchedItems {
  /// Oids that entered some class or whose o-value was created or set.
  std::set<Oid> oids;
  /// association -> tuples inserted into it, in log order (some may be
  /// gone again, some listed twice).
  std::map<std::string, std::vector<Value>> tuples;
  /// pi/rho keys created (possibly left empty).
  std::set<std::string> class_keys;
  std::set<std::string> assoc_keys;
  /// Some oid left a class, an o-value was dropped, or the instance was
  /// replaced wholesale.
  bool erased = false;

  /// \brief Folds in the records of \p log.
  void Add(const UndoLog& log);
};

/// \brief The canonical difference of an instance relative to the base
/// state its undo log started from. Only genuinely differing items appear
/// (a touched item whose current state equals its pre-image is omitted),
/// so two instances grown from the same base compare equal exactly when
/// their NetDiffs compare equal — the replacement for whole-instance
/// `operator==` against a retained copy.
struct NetDiff {
  /// (class, oid) -> present now (differs from the base).
  std::map<std::pair<std::string, Oid>, bool> members;
  /// oid -> current o-value, nullopt = absent now (differs from the base).
  std::map<Oid, std::optional<Value>> ovalues;
  /// (association, tuple) -> present now (differs from the base).
  std::map<std::pair<std::string, Value>, bool> tuples;
  /// pi/rho keys created since the base (possibly-empty entries; std::map
  /// equality distinguishes {key: {}} from an absent key). Forward
  /// mutators never remove keys, so creation is always a difference.
  std::set<std::string> class_keys;
  std::set<std::string> assoc_keys;

  bool operator==(const NetDiff&) const = default;

  bool Empty() const {
    return members.empty() && ovalues.empty() && tuples.empty() &&
           class_keys.empty() && assoc_keys.empty();
  }
};

/// \brief Lazily derives, from the records a log accumulates, the
/// *pre-image* of every touched item — its state in the base instance the
/// log started from. Queries fall back to the live instance for untouched
/// items, so `Member`/`OValue`/`Tuple` answer exactly what the retained
/// copy F used to answer while the live instance is mutated in place.
///
/// Valid only while the log grows monotonically past `base` (a rollback
/// below the tracker's cursor invalidates it) and only over elementary
/// records — kInstanceReplaced is not trackable item-wise.
class PreImageTracker {
 public:
  explicit PreImageTracker(const UndoLog* log, size_t base = 0)
      : log_(log), cursor_(base) {}

  /// \brief Was (cls, oid) a member in the base state?
  bool Member(const Instance& now, const std::string& cls, Oid oid);

  /// \brief nu(oid) in the base state; nullopt if it had no o-value.
  std::optional<Value> OValue(const Instance& now, Oid oid);

  /// \brief Was the tuple in rho(assoc) in the base state?
  bool Tuple(const Instance& now, const std::string& assoc,
             const Value& tuple);

  /// \brief The canonical difference of \p now vs the base state.
  NetDiff Diff(const Instance& now);

  /// \brief True iff \p now differs from the base state at all.
  bool Changed(const Instance& now) { return !Diff(now).Empty(); }

 private:
  // Consumes records appended since the last query, keeping the
  // first-touch pre-state of every item (later records describe mutations
  // of already-tracked state).
  void Sync();

  const UndoLog* log_;
  size_t cursor_;
  std::map<std::pair<std::string, Oid>, bool> members_;
  std::map<Oid, std::optional<Value>> ovalues_;
  std::map<std::pair<std::string, Value>, bool> tuples_;
  std::set<std::string> class_keys_;
  std::set<std::string> assoc_keys_;
};

}  // namespace logres

#endif  // LOGRES_CORE_UNDO_LOG_H_
