// LOGRES schemas (paper Definition 2 and Section 2.1).
//
// A schema is a set of *type equations* LHS = RHS partitioned into domains,
// classes, and associations, plus an `isa` partial order over classes.
//
// Structural rules enforced here (all from Section 2.1 / Definition 2):
//  * domain RHSs may not reference classes or associations;
//  * association RHSs may reference only classes and domains (associations
//    cannot contain associations);
//  * class RHSs may reference classes (object sharing, via oids), domains,
//    and — as a structure-borrowing alias only — an association name
//    (Example 3.4's "IP = PAIR");
//  * `C1 isa C2` requires both to be classes with Sigma(C1) ≼ Sigma(C2);
//  * multiple inheritance only among classes sharing a common ancestor:
//    the universe of oids is partitioned into disjoint hierarchies, so
//    every class must have exactly one root ancestor;
//  * a renaming policy resolves label conflicts under multiple inheritance;
//  * domain equations must be acyclic (classes may be recursive: a class
//    component is an oid indirection, not an embedded value).
//
// Inheritance is modeled as in the paper's STUDENT example: inside a class
// RHS tuple, an *unlabeled* component naming a declared superclass is
// inlined ("we may regard BDATE and ADDRESS as properties of STUDENT");
// every other class-named component is an oid reference (object sharing).
// EffectiveFields() returns the flattened attribute list used for
// predicates and refinement.

#ifndef LOGRES_CORE_SCHEMA_H_
#define LOGRES_CORE_SCHEMA_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/type.h"
#include "util/status.h"

namespace logres {

/// \brief What a declared name denotes.
enum class DeclKind { kDomain, kClass, kAssociation };

const char* DeclKindName(DeclKind kind);

/// \brief One `sub isa super` declaration. `component_label`, when
/// non-empty, records the paper's labeled form "EMPL emp ISA PERSON":
/// the labeled *component* of sub is an object of super (object sharing
/// with an isa-style guarantee), not a subclass relation over sub itself.
struct IsaDecl {
  std::string sub;
  std::string super;
  std::string component_label;
};

/// \brief A LOGRES schema: named type equations + isa hierarchy.
class Schema {
 public:
  // ---- Construction -------------------------------------------------------
  Status DeclareDomain(const std::string& name, Type type);
  Status DeclareClass(const std::string& name, Type type);
  Status DeclareAssociation(const std::string& name, Type type);

  /// \brief Declares `sub isa super` (or the labeled component form).
  Status DeclareIsa(const std::string& sub, const std::string& super,
                    const std::string& component_label = "");

  /// \brief Renaming policy: when \p cls inherits a conflicting label from
  /// superclass \p super, the inherited field is exposed as \p new_label.
  Status DeclareInheritanceRename(const std::string& cls,
                                  const std::string& super,
                                  const std::string& old_label,
                                  const std::string& new_label);

  /// \brief Removes a declaration (used by RDD* module modes). Errors if
  /// other declarations still reference it.
  Status Undeclare(const std::string& name);

  /// \brief Full well-formedness check (see file comment). Also run
  /// incrementally by the Declare* methods where cheap.
  Status Validate() const;

  /// \brief Merges \p other into this schema (module application S0 ∪ S_M).
  /// Re-declaring an existing name with a different type is an error;
  /// an identical re-declaration is a no-op.
  Status Merge(const Schema& other);

  /// \brief True when this schema is \p base plus zero or more association
  /// declarations: same domains, classes, isa edges and renames, and every
  /// declaration of \p base unchanged. An instance consistent under
  /// \p base is then consistent under this schema too (Definition 4 only
  /// consults the declarations its facts use).
  bool ExtendsWithAssociations(const Schema& base) const;

  // ---- Lookup -------------------------------------------------------------
  bool Has(const std::string& name) const;
  bool IsDomain(const std::string& name) const;
  bool IsClass(const std::string& name) const;
  bool IsAssociation(const std::string& name) const;

  Result<DeclKind> KindOf(const std::string& name) const;
  Result<Type> TypeOf(const std::string& name) const;

  std::vector<std::string> DomainNames() const;
  std::vector<std::string> ClassNames() const;
  std::vector<std::string> AssociationNames() const;
  const std::vector<IsaDecl>& isa_decls() const { return isa_decls_; }

  /// \brief The renaming policy entries: (class, super, old label) ->
  /// exposed label.
  const std::map<std::tuple<std::string, std::string, std::string>,
                 std::string>&
  renames() const {
    return renames_;
  }

  // ---- isa hierarchy ------------------------------------------------------
  /// \brief Reflexive-transitive isa reachability (classes only).
  bool IsaReachable(const std::string& sub, const std::string& super) const;

  /// \brief Direct superclasses of \p cls.
  std::vector<std::string> DirectSuperclasses(const std::string& cls) const;

  /// \brief All (transitive, excluding self) superclasses.
  std::vector<std::string> AllSuperclasses(const std::string& cls) const;

  /// \brief All (transitive, excluding self) subclasses.
  std::vector<std::string> AllSubclasses(const std::string& cls) const;

  /// \brief The unique root of \p cls's generalization hierarchy.
  Result<std::string> RootOf(const std::string& cls) const;

  /// \brief True when the two classes belong to the same hierarchy — the
  /// precondition for their oid sets being allowed to intersect (Def. 4b).
  bool SameHierarchy(const std::string& c1, const std::string& c2) const;

  // ---- Refinement & effective structure -----------------------------------
  /// \brief The refinement relation τ1 ≼ τ2 of Definition 2.
  Result<bool> IsRefinement(const Type& t1, const Type& t2) const;

  /// \brief Unification compatibility (Section 3.1): either refines the
  /// other.
  Result<bool> AreCompatible(const Type& t1, const Type& t2) const;

  /// \brief Flattened attribute list of a class or association: inherited
  /// superclass components inlined (with renaming policy applied), other
  /// class components kept as Named references (oid-valued), domains and
  /// association aliases expanded one level to a tuple.
  Result<std::vector<std::pair<std::string, Type>>> EffectiveFields(
      const std::string& name) const;

  /// \brief EffectiveFields wrapped back into a tuple type.
  Result<Type> PredicateTuple(const std::string& name) const;

  /// \brief Structurally expands \p type: domain names replaced by their
  /// (expanded) RHS; class names kept (they denote oid references);
  /// association names expanded like domains.
  Result<Type> Expand(const Type& type) const;

  std::string ToString() const;

 private:
  struct Decl {
    DeclKind kind;
    Type type;
  };

  Status Declare(const std::string& name, DeclKind kind, Type type);
  Status CheckDomainAcyclic(const std::string& name,
                            std::set<std::string>* in_progress) const;
  Result<bool> RefineImpl(const Type& t1, const Type& t2,
                          std::set<std::pair<std::string, std::string>>*
                              in_progress) const;

  std::map<std::string, Decl> decls_;
  std::vector<IsaDecl> isa_decls_;
  // (cls, super, old_label) -> new_label
  std::map<std::tuple<std::string, std::string, std::string>, std::string>
      renames_;
};

}  // namespace logres

#endif  // LOGRES_CORE_SCHEMA_H_
