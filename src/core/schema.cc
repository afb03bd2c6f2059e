#include "core/schema.h"

#include <algorithm>

#include "util/string_util.h"

namespace logres {

const char* DeclKindName(DeclKind kind) {
  switch (kind) {
    case DeclKind::kDomain: return "domain";
    case DeclKind::kClass: return "class";
    case DeclKind::kAssociation: return "association";
  }
  return "unknown";
}

Status Schema::Declare(const std::string& name, DeclKind kind, Type type) {
  if (name.empty()) {
    return Status::InvalidArgument("empty type name");
  }
  auto it = decls_.find(name);
  if (it != decls_.end()) {
    if (it->second.kind == kind && it->second.type == type) {
      return Status::OK();  // idempotent re-declaration
    }
    return Status::AlreadyExists(
        StrCat(DeclKindName(it->second.kind), " '", name,
               "' already declared"));
  }
  decls_.emplace(name, Decl{kind, std::move(type)});
  return Status::OK();
}

Status Schema::DeclareDomain(const std::string& name, Type type) {
  return Declare(name, DeclKind::kDomain, std::move(type));
}

Status Schema::DeclareClass(const std::string& name, Type type) {
  return Declare(name, DeclKind::kClass, std::move(type));
}

Status Schema::DeclareAssociation(const std::string& name, Type type) {
  return Declare(name, DeclKind::kAssociation, std::move(type));
}

Status Schema::DeclareIsa(const std::string& sub, const std::string& super,
                          const std::string& component_label) {
  for (const IsaDecl& d : isa_decls_) {
    if (d.sub == sub && d.super == super &&
        d.component_label == component_label) {
      return Status::OK();
    }
  }
  isa_decls_.push_back(IsaDecl{sub, super, component_label});
  return Status::OK();
}

Status Schema::DeclareInheritanceRename(const std::string& cls,
                                        const std::string& super,
                                        const std::string& old_label,
                                        const std::string& new_label) {
  auto key = std::make_tuple(cls, super, old_label);
  auto [it, inserted] = renames_.emplace(key, new_label);
  if (!inserted && it->second != new_label) {
    return Status::AlreadyExists(
        StrCat("conflicting rename for ", cls, "/", super, "/", old_label));
  }
  return Status::OK();
}

Status Schema::Undeclare(const std::string& name) {
  auto it = decls_.find(name);
  if (it == decls_.end()) {
    return Status::NotFound(StrCat("no declaration named '", name, "'"));
  }
  for (const auto& [other, decl] : decls_) {
    if (other == name) continue;
    auto refs = decl.type.ReferencedNames();
    if (std::find(refs.begin(), refs.end(), name) != refs.end()) {
      return Status::InvalidArgument(
          StrCat("cannot remove '", name, "': still referenced by '", other,
                 "'"));
    }
  }
  for (const IsaDecl& d : isa_decls_) {
    if (d.sub == name || d.super == name) {
      return Status::InvalidArgument(
          StrCat("cannot remove '", name, "': involved in isa declaration ",
                 d.sub, " isa ", d.super));
    }
  }
  decls_.erase(it);
  return Status::OK();
}

Status Schema::Merge(const Schema& other) {
  for (const auto& [name, decl] : other.decls_) {
    LOGRES_RETURN_NOT_OK(Declare(name, decl.kind, decl.type));
  }
  for (const IsaDecl& d : other.isa_decls_) {
    LOGRES_RETURN_NOT_OK(DeclareIsa(d.sub, d.super, d.component_label));
  }
  for (const auto& [key, new_label] : other.renames_) {
    LOGRES_RETURN_NOT_OK(DeclareInheritanceRename(
        std::get<0>(key), std::get<1>(key), std::get<2>(key), new_label));
  }
  return Status::OK();
}

bool Schema::ExtendsWithAssociations(const Schema& base) const {
  auto same_isa = [](const IsaDecl& a, const IsaDecl& b) {
    return a.sub == b.sub && a.super == b.super &&
           a.component_label == b.component_label;
  };
  if (!std::equal(isa_decls_.begin(), isa_decls_.end(),
                  base.isa_decls_.begin(), base.isa_decls_.end(),
                  same_isa) ||
      renames_ != base.renames_) {
    return false;
  }
  size_t shared = 0;
  for (const auto& [name, decl] : decls_) {
    auto it = base.decls_.find(name);
    if (it == base.decls_.end()) {
      if (decl.kind != DeclKind::kAssociation) return false;
      continue;
    }
    if (it->second.kind != decl.kind || it->second.type != decl.type) {
      return false;
    }
    ++shared;
  }
  return shared == base.decls_.size();
}

bool Schema::Has(const std::string& name) const {
  return decls_.count(name) > 0;
}

bool Schema::IsDomain(const std::string& name) const {
  auto it = decls_.find(name);
  return it != decls_.end() && it->second.kind == DeclKind::kDomain;
}

bool Schema::IsClass(const std::string& name) const {
  auto it = decls_.find(name);
  return it != decls_.end() && it->second.kind == DeclKind::kClass;
}

bool Schema::IsAssociation(const std::string& name) const {
  auto it = decls_.find(name);
  return it != decls_.end() && it->second.kind == DeclKind::kAssociation;
}

Result<DeclKind> Schema::KindOf(const std::string& name) const {
  auto it = decls_.find(name);
  if (it == decls_.end()) {
    return Status::NotFound(StrCat("no declaration named '", name, "'"));
  }
  return it->second.kind;
}

Result<Type> Schema::TypeOf(const std::string& name) const {
  auto it = decls_.find(name);
  if (it == decls_.end()) {
    return Status::NotFound(StrCat("no declaration named '", name, "'"));
  }
  return it->second.type;
}

std::vector<std::string> Schema::DomainNames() const {
  std::vector<std::string> out;
  for (const auto& [name, decl] : decls_) {
    if (decl.kind == DeclKind::kDomain) out.push_back(name);
  }
  return out;
}

std::vector<std::string> Schema::ClassNames() const {
  std::vector<std::string> out;
  for (const auto& [name, decl] : decls_) {
    if (decl.kind == DeclKind::kClass) out.push_back(name);
  }
  return out;
}

std::vector<std::string> Schema::AssociationNames() const {
  std::vector<std::string> out;
  for (const auto& [name, decl] : decls_) {
    if (decl.kind == DeclKind::kAssociation) out.push_back(name);
  }
  return out;
}

bool Schema::IsaReachable(const std::string& sub,
                          const std::string& super) const {
  if (sub == super) return true;
  std::set<std::string> visited{sub};
  std::vector<std::string> frontier{sub};
  while (!frontier.empty()) {
    std::string current = std::move(frontier.back());
    frontier.pop_back();
    for (const IsaDecl& d : isa_decls_) {
      if (d.sub != current || !d.component_label.empty()) continue;
      if (d.super == super) return true;
      if (visited.insert(d.super).second) frontier.push_back(d.super);
    }
  }
  return false;
}

std::vector<std::string> Schema::DirectSuperclasses(
    const std::string& cls) const {
  std::vector<std::string> out;
  for (const IsaDecl& d : isa_decls_) {
    if (d.sub == cls && d.component_label.empty()) out.push_back(d.super);
  }
  return out;
}

std::vector<std::string> Schema::AllSuperclasses(
    const std::string& cls) const {
  std::vector<std::string> out;
  std::set<std::string> visited{cls};
  std::vector<std::string> frontier{cls};
  while (!frontier.empty()) {
    std::string current = std::move(frontier.back());
    frontier.pop_back();
    for (const std::string& super : DirectSuperclasses(current)) {
      if (visited.insert(super).second) {
        out.push_back(super);
        frontier.push_back(super);
      }
    }
  }
  return out;
}

std::vector<std::string> Schema::AllSubclasses(const std::string& cls) const {
  std::vector<std::string> out;
  for (const auto& [name, decl] : decls_) {
    if (decl.kind != DeclKind::kClass || name == cls) continue;
    if (IsaReachable(name, cls)) out.push_back(name);
  }
  return out;
}

Result<std::string> Schema::RootOf(const std::string& cls) const {
  if (!IsClass(cls)) {
    return Status::NotFound(StrCat("'", cls, "' is not a class"));
  }
  std::set<std::string> roots;
  std::vector<std::string> all = AllSuperclasses(cls);
  all.push_back(cls);
  for (const std::string& c : all) {
    if (DirectSuperclasses(c).empty()) roots.insert(c);
  }
  if (roots.size() != 1) {
    return Status::SchemaError(
        StrCat("class '", cls, "' has ", roots.size(),
               " root ancestors; multiple inheritance requires a common "
               "ancestor (no universal class exists)"));
  }
  return *roots.begin();
}

bool Schema::SameHierarchy(const std::string& c1,
                           const std::string& c2) const {
  auto r1 = RootOf(c1);
  auto r2 = RootOf(c2);
  return r1.ok() && r2.ok() && r1.value() == r2.value();
}

Result<bool> Schema::IsRefinement(const Type& t1, const Type& t2) const {
  std::set<std::pair<std::string, std::string>> in_progress;
  return RefineImpl(t1, t2, &in_progress);
}

Result<bool> Schema::RefineImpl(
    const Type& t1, const Type& t2,
    std::set<std::pair<std::string, std::string>>* in_progress) const {
  // Condition 1: identical elementary types or identical names.
  if (t1 == t2) return true;

  // isa shortcut: two class names in the isa relation refine directly
  // (this is what `C1 isa C2 implies C1 ≼ C2` requires to be checkable).
  if (t1.kind() == TypeKind::kNamed && t2.kind() == TypeKind::kNamed) {
    if (IsClass(t1.name()) && IsClass(t2.name())) {
      if (IsaReachable(t1.name(), t2.name())) return true;
      // Coinductive guard for mutually recursive class structures.
      auto key = std::make_pair(t1.name(), t2.name());
      if (in_progress->count(key)) return true;
      in_progress->insert(key);
      LOGRES_ASSIGN_OR_RETURN(auto f1, EffectiveFields(t1.name()));
      LOGRES_ASSIGN_OR_RETURN(auto f2, EffectiveFields(t2.name()));
      LOGRES_ASSIGN_OR_RETURN(
          bool r, RefineImpl(Type::Tuple(std::move(f1)),
                             Type::Tuple(std::move(f2)), in_progress));
      in_progress->erase(key);
      return r;
    }
  }

  // Condition 2: t1 ∈ D ∪ C (or A): unfold the left side.
  if (t1.kind() == TypeKind::kNamed) {
    if (!Has(t1.name())) {
      return Status::NotFound(StrCat("unknown type name '", t1.name(), "'"));
    }
    if (IsClass(t1.name())) {
      LOGRES_ASSIGN_OR_RETURN(auto f1, EffectiveFields(t1.name()));
      return RefineImpl(Type::Tuple(std::move(f1)), t2, in_progress);
    }
    LOGRES_ASSIGN_OR_RETURN(Type rhs, TypeOf(t1.name()));
    return RefineImpl(rhs, t2, in_progress);
  }

  // Symmetric unfolding of a named right side (generalizes condition 3).
  if (t2.kind() == TypeKind::kNamed) {
    if (!Has(t2.name())) {
      return Status::NotFound(StrCat("unknown type name '", t2.name(), "'"));
    }
    if (IsClass(t2.name())) {
      // A non-named t1 can never refine a class: classes are oid-bearing.
      LOGRES_ASSIGN_OR_RETURN(auto f2, EffectiveFields(t2.name()));
      return RefineImpl(t1, Type::Tuple(std::move(f2)), in_progress);
    }
    LOGRES_ASSIGN_OR_RETURN(Type rhs, TypeOf(t2.name()));
    return RefineImpl(t1, rhs, in_progress);
  }

  if (t1.kind() != t2.kind()) return false;

  switch (t1.kind()) {
    case TypeKind::kTuple: {
      // Condition 4: every label of t2 appears in t1 with a refining type
      // (t1 may have extra fields: q <= p).
      for (const auto& [label2, type2] : t2.fields()) {
        bool found = false;
        for (const auto& [label1, type1] : t1.fields()) {
          if (label1 != label2) continue;
          LOGRES_ASSIGN_OR_RETURN(bool r,
                                  RefineImpl(type1, type2, in_progress));
          if (!r) return false;
          found = true;
          break;
        }
        if (!found) return false;
      }
      return true;
    }
    case TypeKind::kSet:
    case TypeKind::kMultiset:
    case TypeKind::kSequence:
      // Conditions 5-7.
      return RefineImpl(t1.element(), t2.element(), in_progress);
    default:
      return false;  // distinct elementary types
  }
}

Result<bool> Schema::AreCompatible(const Type& t1, const Type& t2) const {
  LOGRES_ASSIGN_OR_RETURN(bool a, IsRefinement(t1, t2));
  if (a) return true;
  return IsRefinement(t2, t1);
}

Result<std::vector<std::pair<std::string, Type>>> Schema::EffectiveFields(
    const std::string& name) const {
  LOGRES_ASSIGN_OR_RETURN(DeclKind kind, KindOf(name));
  if (kind == DeclKind::kDomain) {
    return Status::InvalidArgument(
        StrCat("domain '", name,
               "' cannot be used as a predicate (domains are not "
               "first-class citizens, Section 2.1)"));
  }
  LOGRES_ASSIGN_OR_RETURN(Type rhs, TypeOf(name));

  // Structure-borrowing alias: CLASS = ASSOCIATION or CLASS = CLASS2.
  if (rhs.kind() == TypeKind::kNamed) {
    return EffectiveFields(rhs.name());
  }
  if (rhs.kind() != TypeKind::kTuple) {
    // A non-tuple RHS (legal for e.g. unary associations) is exposed as a
    // single field labeled by the declaration name, lower-cased.
    std::vector<std::pair<std::string, Type>> out;
    out.emplace_back(ToLower(name), rhs);
    return out;
  }

  std::vector<std::pair<std::string, Type>> out;
  for (const auto& [label, ftype] : rhs.fields()) {
    // Inheritance inlining: an unlabeled superclass component of a class.
    // The parser labels unlabeled components with the lower-cased type
    // name, so "unlabeled PERSON" arrives as {"person", Named("PERSON")}.
    bool inherited = false;
    if (kind == DeclKind::kClass && ftype.kind() == TypeKind::kNamed &&
        IsClass(ftype.name()) && label == ToLower(ftype.name()) &&
        IsaReachable(name, ftype.name())) {
      inherited = true;
    }
    if (inherited) {
      LOGRES_ASSIGN_OR_RETURN(auto super_fields,
                              EffectiveFields(ftype.name()));
      for (auto& [slabel, stype] : super_fields) {
        std::string exposed = slabel;
        auto rn = renames_.find(std::make_tuple(name, ftype.name(), slabel));
        if (rn != renames_.end()) exposed = rn->second;
        // Diamond inheritance: the same attribute reaching the class twice
        // through a common ancestor is merged silently; a *conflicting*
        // attribute (same label, different type) needs the renaming
        // policy.
        bool duplicate = false;
        for (const auto& [existing, t] : out) {
          if (existing != exposed) continue;
          if (t == stype) {
            duplicate = true;
            break;
          }
          return Status::SchemaError(StrCat(
              "class '", name, "' inherits conflicting label '", exposed,
              "' from '", ftype.name(),
              "'; add a renaming declaration to resolve it"));
        }
        if (!duplicate) out.emplace_back(std::move(exposed), stype);
      }
    } else {
      for (const auto& [existing, t] : out) {
        (void)t;
        if (existing == label) {
          return Status::SchemaError(
              StrCat("duplicate label '", label, "' in '", name, "'"));
        }
      }
      out.emplace_back(label, ftype);
    }
  }
  return out;
}

Result<Type> Schema::PredicateTuple(const std::string& name) const {
  LOGRES_ASSIGN_OR_RETURN(auto fields, EffectiveFields(name));
  return Type::Tuple(std::move(fields));
}

Result<Type> Schema::Expand(const Type& type) const {
  switch (type.kind()) {
    case TypeKind::kNamed: {
      const std::string& name = type.name();
      LOGRES_ASSIGN_OR_RETURN(DeclKind kind, KindOf(name));
      if (kind == DeclKind::kClass) return type;  // oid reference
      LOGRES_ASSIGN_OR_RETURN(Type rhs, TypeOf(name));
      return Expand(rhs);
    }
    case TypeKind::kTuple: {
      std::vector<std::pair<std::string, Type>> fields;
      for (const auto& [label, t] : type.fields()) {
        LOGRES_ASSIGN_OR_RETURN(Type e, Expand(t));
        fields.emplace_back(label, std::move(e));
      }
      return Type::Tuple(std::move(fields));
    }
    case TypeKind::kSet: {
      LOGRES_ASSIGN_OR_RETURN(Type e, Expand(type.element()));
      return Type::Set(std::move(e));
    }
    case TypeKind::kMultiset: {
      LOGRES_ASSIGN_OR_RETURN(Type e, Expand(type.element()));
      return Type::Multiset(std::move(e));
    }
    case TypeKind::kSequence: {
      LOGRES_ASSIGN_OR_RETURN(Type e, Expand(type.element()));
      return Type::Sequence(std::move(e));
    }
    default:
      return type;
  }
}

Status Schema::CheckDomainAcyclic(const std::string& name,
                                  std::set<std::string>* in_progress) const {
  if (in_progress->count(name)) {
    return Status::SchemaError(
        StrCat("domain '", name, "' is recursively defined"));
  }
  in_progress->insert(name);
  LOGRES_ASSIGN_OR_RETURN(Type type, TypeOf(name));
  for (const std::string& ref : type.ReferencedNames()) {
    if (IsDomain(ref)) {
      LOGRES_RETURN_NOT_OK(CheckDomainAcyclic(ref, in_progress));
    }
  }
  in_progress->erase(name);
  return Status::OK();
}

Status Schema::Validate() const {
  for (const auto& [name, decl] : decls_) {
    // Every referenced name must be declared.
    for (const std::string& ref : decl.type.ReferencedNames()) {
      auto it = decls_.find(ref);
      if (it == decls_.end()) {
        return Status::SchemaError(
            StrCat("'", name, "' references undeclared name '", ref, "'"));
      }
      DeclKind ref_kind = it->second.kind;
      switch (decl.kind) {
        case DeclKind::kDomain:
          if (ref_kind != DeclKind::kDomain) {
            return Status::SchemaError(StrCat(
                "domain '", name, "' may not reference ",
                DeclKindName(ref_kind), " '", ref,
                "' (Definition 2: domain descriptors contain no classes)"));
          }
          break;
        case DeclKind::kAssociation:
          if (ref_kind == DeclKind::kAssociation) {
            return Status::SchemaError(
                StrCat("association '", name, "' may not contain ",
                       "association '", ref,
                       "' (associations cannot contain associations)"));
          }
          break;
        case DeclKind::kClass:
          if (ref_kind == DeclKind::kAssociation &&
              !(decl.type.kind() == TypeKind::kNamed &&
                decl.type.name() == ref)) {
            return Status::SchemaError(StrCat(
                "class '", name, "' may reference association '", ref,
                "' only as a whole-RHS structural alias (Example 3.4)"));
          }
          break;
      }
    }
  }

  // Domain equations must terminate.
  for (const auto& [name, decl] : decls_) {
    if (decl.kind != DeclKind::kDomain) continue;
    std::set<std::string> in_progress;
    LOGRES_RETURN_NOT_OK(CheckDomainAcyclic(name, &in_progress));
  }

  // isa declarations.
  for (const IsaDecl& d : isa_decls_) {
    if (!IsClass(d.sub)) {
      return Status::SchemaError(
          StrCat("isa subject '", d.sub, "' is not a class"));
    }
    if (!IsClass(d.super)) {
      return Status::SchemaError(
          StrCat("isa target '", d.super, "' is not a class"));
    }
    if (!d.component_label.empty()) {
      // Labeled form: the component must exist and be of (a refinement of)
      // the superclass.
      LOGRES_ASSIGN_OR_RETURN(Type t, PredicateTuple(d.sub));
      LOGRES_ASSIGN_OR_RETURN(Type ft, t.field(d.component_label));
      LOGRES_ASSIGN_OR_RETURN(bool ok,
                              IsRefinement(ft, Type::Named(d.super)));
      if (!ok) {
        return Status::SchemaError(
            StrCat("component '", d.component_label, "' of '", d.sub,
                   "' does not refine class '", d.super, "'"));
      }
      continue;
    }
    if (IsaReachable(d.super, d.sub) && d.super != d.sub) {
      return Status::SchemaError(
          StrCat("isa cycle between '", d.sub, "' and '", d.super, "'"));
    }
    // Compare effective structures directly: going through the class names
    // would trivially succeed via the isa edge being validated. The
    // renaming policy is honoured: a super field renamed in the subclass
    // is expected under its new name.
    LOGRES_ASSIGN_OR_RETURN(auto sub_fields, EffectiveFields(d.sub));
    LOGRES_ASSIGN_OR_RETURN(auto super_fields, EffectiveFields(d.super));
    for (auto& [label, type] : super_fields) {
      (void)type;
      auto rn = renames_.find(std::make_tuple(d.sub, d.super, label));
      if (rn != renames_.end()) label = rn->second;
    }
    LOGRES_ASSIGN_OR_RETURN(
        bool refines,
        IsRefinement(Type::Tuple(std::move(sub_fields)),
                     Type::Tuple(std::move(super_fields))));
    if (!refines) {
      return Status::SchemaError(
          StrCat("'", d.sub, " isa ", d.super, "' declared but Sigma(",
                 d.sub, ") does not refine Sigma(", d.super, ")"));
    }
  }

  // Every class must sit in exactly one hierarchy (single root).
  for (const auto& [name, decl] : decls_) {
    if (decl.kind != DeclKind::kClass) continue;
    LOGRES_ASSIGN_OR_RETURN(std::string root, RootOf(name));
    (void)root;
    // EffectiveFields also detects multiple-inheritance label conflicts.
    LOGRES_ASSIGN_OR_RETURN(auto fields, EffectiveFields(name));
    (void)fields;
  }

  // Associations must expose effective fields too (checks alias legality).
  for (const auto& [name, decl] : decls_) {
    if (decl.kind != DeclKind::kAssociation) continue;
    LOGRES_ASSIGN_OR_RETURN(auto fields, EffectiveFields(name));
    (void)fields;
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::string out;
  auto section = [&](DeclKind kind, const char* title) {
    bool any = false;
    for (const auto& [name, decl] : decls_) {
      if (decl.kind != kind) continue;
      if (!any) {
        out += title;
        out += "\n";
        any = true;
      }
      out += StrCat("  ", name, " = ", decl.type.ToString(), "\n");
    }
  };
  section(DeclKind::kDomain, "domains");
  section(DeclKind::kClass, "classes");
  section(DeclKind::kAssociation, "associations");
  for (const IsaDecl& d : isa_decls_) {
    out += StrCat("  ", d.sub, " ",
                  d.component_label.empty()
                      ? ""
                      : StrCat(d.component_label, " "),
                  "isa ", d.super, "\n");
  }
  return out;
}

}  // namespace logres
