// LOGRES instances (paper Definitions 3-4).
//
// An instance of a schema (Sigma, isa) is a triple (pi, nu, rho):
//   pi  — the *oid assignment*: each class C gets a finite set of oids,
//         with pi(C) ⊆ pi(C') whenever C isa C' (Def. 4a) and oid sets of
//         different hierarchies disjoint (Def. 4b);
//   nu  — the *o-value assignment*: a partial function from oids to values,
//         unique per oid ("to each oid corresponds a unique o-value");
//   rho — the *association assignment*: each association gets a finite set
//         of tuples.
//
// Conformance and referential integrity (the conditions at the end of
// Def. 4) are checked by CheckConsistent(): every o-value must project
// into the class's type; a class component inside a class value may be a
// member oid of that class or nil; a class component inside an association
// tuple must be a member oid (nil forbidden, Section 2.1).

#ifndef LOGRES_CORE_INSTANCE_H_
#define LOGRES_CORE_INSTANCE_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algres/value.h"
#include "core/schema.h"
#include "util/status.h"

namespace logres {

class UndoLog;
struct TouchedItems;

/// \brief The reserved tuple label carrying an object's oid when a tuple
/// variable binds a whole object.
inline const char* kSelfLabel = "self";

/// \brief A materialized instance (pi, nu, rho) of a schema.
class Instance {
 public:
  Instance() = default;

  // Index caches are rebuilt on demand and never copied: copies are for
  // retained states (an evaluation's starting point, test baselines), and
  // dragging cold caches along would double the copy for nothing. The
  // fixpoint loop itself never copies per step — it mutates one instance
  // under an UndoLog, so caches survive across steps and are invalidated
  // per delta.
  Instance(const Instance& other)
      : class_oids_(other.class_oids_),
        ovalues_(other.ovalues_),
        associations_(other.associations_) {}
  Instance& operator=(const Instance& other) {
    if (this != &other) {
      class_oids_ = other.class_oids_;
      ovalues_ = other.ovalues_;
      associations_ = other.associations_;
      assoc_index_cache_.clear();
      class_index_cache_.clear();
    }
    return *this;
  }
  Instance(Instance&& other) noexcept = default;
  Instance& operator=(Instance&& other) noexcept = default;

  // ---- Objects (pi, nu) ---------------------------------------------------
  //
  // Every mutator optionally appends the elementary changes it performs to
  // \p undo, so RollbackTo can restore the pre-mutation state exactly —
  // including the empty pi/rho map entries the historical operator[] code
  // paths create, which Instance::operator== observes.

  /// \brief Creates a fresh object in class \p cls (and, per Def. 4a, in
  /// all its superclasses) with the given o-value. The oid comes from
  /// \p gen. No conformance check here (CheckConsistent validates states).
  Result<Oid> CreateObject(const Schema& schema, const std::string& cls,
                           Value ovalue, OidGenerator* gen,
                           UndoLog* undo = nullptr);

  /// \brief Adds an existing oid to class \p cls and its superclasses,
  /// overwriting the o-value (used by generalization-hierarchy rules where
  /// sub- and superclass share the oid).
  Status AdoptObject(const Schema& schema, const std::string& cls, Oid oid,
                     Value ovalue, UndoLog* undo = nullptr);

  /// \brief Removes \p oid from \p cls and all its *subclasses* (an object
  /// leaving a superclass cannot stay in a subclass). The o-value is kept
  /// while the oid is still a member of some class, dropped otherwise.
  Status RemoveObject(const Schema& schema, const std::string& cls, Oid oid,
                      UndoLog* undo = nullptr);

  /// \brief Oids of class \p cls (pi(C)).
  const std::set<Oid>& OidsOf(const std::string& cls) const;

  bool HasObject(const std::string& cls, Oid oid) const;

  /// \brief nu(oid); NotFound if unassigned.
  Result<Value> OValue(Oid oid) const;

  /// \brief Replaces nu(oid). Error if the oid is not live.
  Status SetOValue(Oid oid, Value ovalue, UndoLog* undo = nullptr);

  const std::map<std::string, std::set<Oid>>& class_oids() const {
    return class_oids_;
  }
  const std::map<Oid, Value>& ovalues() const { return ovalues_; }

  // ---- Associations (rho) -------------------------------------------------

  /// \brief Inserts a tuple into association \p assoc; true if new.
  bool InsertTuple(const std::string& assoc, Value tuple,
                   UndoLog* undo = nullptr);

  /// \brief Removes a tuple; true if it was present.
  bool EraseTuple(const std::string& assoc, const Value& tuple,
                  UndoLog* undo = nullptr);

  /// \brief rho(assoc): the tuples of an association.
  const std::set<Value>& TuplesOf(const std::string& assoc) const;

  const std::map<std::string, std::set<Value>>& associations() const {
    return associations_;
  }

  /// \brief Drops association \p assoc entirely — tuples *and* the
  /// relation entry, so dumps and operator== (which observe empty
  /// entries) cannot tell it was ever there. Used to strip magic
  /// (demand) relations from goal-directed evaluation results; not
  /// undo-logged. True if the entry existed.
  bool DropAssociation(const std::string& assoc);

  // ---- Indexed access paths -----------------------------------------------
  //
  // Lazily built hash indexes over association fields and class o-value
  // fields: the literal matcher probes these instead of scanning when a
  // predicate's bound positions are known. Any mutation of the underlying
  // store invalidates the affected indexes (association mutators drop that
  // association's entries; object mutators drop every class index).
  // References returned here are valid until the next mutation.

  /// \brief Hash multimap: normalized value of field \p label -> tuple,
  /// over rho(assoc).
  using ValueIndex = std::unordered_multimap<Value, Value, ValueHash>;
  const ValueIndex& AssocIndex(const std::string& assoc,
                               const std::string& label) const;

  /// \brief Hash multimap: normalized o-value field \p label -> oid, over
  /// pi(cls).
  using OidIndex = std::unordered_multimap<Value, Oid, ValueHash>;
  const OidIndex& ClassIndex(const std::string& cls,
                             const std::string& label) const;

  /// \brief The value a bound term probes an index with: whole-object
  /// bindings (tuples carrying the reserved self field) reduce to their
  /// oid. Returns a reference — either \p v itself or the self field
  /// inside its rep — so hot probe paths never copy; valid while \p v is.
  static const Value& NormalizeForIndex(const Value& v);

  // ---- Whole-instance operations ------------------------------------------

  /// \brief Replays \p log's records at index >= \p base in reverse,
  /// restoring the state this instance had when the log held \p base
  /// records, then truncates the log to \p base. Affected index caches are
  /// invalidated (object records drop the class caches, association
  /// records drop that association's entries), so cached access paths stay
  /// valid for the restored state.
  void RollbackTo(UndoLog* log, size_t base);

  /// \brief Total number of objects plus association tuples.
  size_t TotalFacts() const;

  /// \brief Approximate byte footprint of (pi, nu, rho): o-values and
  /// association tuples via Value::ApproxBytes plus container overhead.
  /// O(instance); callers gate on ResourceGovernor::wants_bytes().
  size_t ApproxBytes() const;

  /// \brief Definition 4 consistency: oid-set containment along isa,
  /// disjointness across hierarchies, o-value conformance, referential
  /// integrity of class components (nil allowed inside class values only).
  ///
  /// With \p touched, only the oids, tuples and keys it names are checked
  /// (DESIGN.md §15). That verdict equals the full one — same status, same
  /// message — when this instance grew from a base that passes the full
  /// check under \p schema, \p touched names everything the growth
  /// inserted or rewrote, and nothing was erased (!touched->erased).
  Status CheckConsistent(const Schema& schema,
                         const TouchedItems* touched = nullptr) const;

  /// \brief Structural equality.
  bool operator==(const Instance& other) const {
    return class_oids_ == other.class_oids_ && ovalues_ == other.ovalues_ &&
           associations_ == other.associations_;
  }

  /// \brief True when \p other is this instance under some oid bijection —
  /// the paper's determinacy notion ("determinate ... up to renaming of
  /// oids", Appendix B).
  bool IsomorphicTo(const Instance& other) const;

  std::string ToString() const;

 private:
  void InvalidateAssocIndexes(const std::string& assoc);

  // pi membership updates shared by AdoptObject/RemoveObject, preserving
  // the operator[] key-creation behavior and recording what changed.
  void InsertMember(const std::string& cls, Oid oid, UndoLog* undo);
  void EraseMember(const std::string& cls, Oid oid, UndoLog* undo);

  std::map<std::string, std::set<Oid>> class_oids_;
  std::map<Oid, Value> ovalues_;
  std::map<std::string, std::set<Value>> associations_;

  // Access-path caches (see "Indexed access paths" above). Mutable: they
  // are a view of the store, not part of instance identity — operator==
  // and dumps ignore them. std::map node stability keeps the returned
  // references valid while other keys are built.
  mutable std::map<std::pair<std::string, std::string>, ValueIndex>
      assoc_index_cache_;
  mutable std::map<std::pair<std::string, std::string>, OidIndex>
      class_index_cache_;
};

}  // namespace logres

#endif  // LOGRES_CORE_INSTANCE_H_
