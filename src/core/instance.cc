#include "core/instance.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/undo_log.h"
#include "util/string_util.h"

namespace logres {

namespace {

const std::set<Oid> kNoOids;
const std::set<Value> kNoTuples;

}  // namespace

Result<Oid> Instance::CreateObject(const Schema& schema,
                                   const std::string& cls, Value ovalue,
                                   OidGenerator* gen, UndoLog* undo) {
  if (!schema.IsClass(cls)) {
    return Status::NotFound(StrCat("'", cls, "' is not a class"));
  }
  // The generator is not covered by the log: rolled-back applications
  // consume oids (never reused), only the state restores.
  Oid oid = gen->Next();
  LOGRES_RETURN_NOT_OK(AdoptObject(schema, cls, oid, std::move(ovalue), undo));
  return oid;
}

void Instance::InsertMember(const std::string& cls, Oid oid, UndoLog* undo) {
  auto [it, key_created] = class_oids_.try_emplace(cls);
  if (key_created && undo != nullptr) undo->ClassKeyCreated(cls);
  if (it->second.insert(oid).second && undo != nullptr) {
    undo->OidInserted(cls, oid);
  }
}

void Instance::EraseMember(const std::string& cls, Oid oid, UndoLog* undo) {
  // Historically `class_oids_[cls].erase(oid)`: the operator[] creates an
  // empty entry when the class has none, and operator== sees that entry —
  // so the creation is deliberately kept and recorded.
  auto [it, key_created] = class_oids_.try_emplace(cls);
  if (key_created && undo != nullptr) undo->ClassKeyCreated(cls);
  if (it->second.erase(oid) > 0 && undo != nullptr) {
    undo->OidErased(cls, oid);
  }
}

Status Instance::AdoptObject(const Schema& schema, const std::string& cls,
                             Oid oid, Value ovalue, UndoLog* undo) {
  if (!schema.IsClass(cls)) {
    return Status::NotFound(StrCat("'", cls, "' is not a class"));
  }
  if (!oid.valid()) {
    return Status::InvalidArgument("cannot adopt the invalid oid 0");
  }
  class_index_cache_.clear();
  InsertMember(cls, oid, undo);
  for (const std::string& super : schema.AllSuperclasses(cls)) {
    InsertMember(super, oid, undo);
  }
  auto [it, created] = ovalues_.try_emplace(oid);
  if (undo != nullptr) {
    if (created) {
      undo->OValueCreated(oid);
    } else {
      undo->OValueSet(oid, std::move(it->second));
    }
  }
  it->second = std::move(ovalue);
  return Status::OK();
}

Status Instance::RemoveObject(const Schema& schema, const std::string& cls,
                              Oid oid, UndoLog* undo) {
  if (!schema.IsClass(cls)) {
    return Status::NotFound(StrCat("'", cls, "' is not a class"));
  }
  class_index_cache_.clear();
  EraseMember(cls, oid, undo);
  for (const std::string& sub : schema.AllSubclasses(cls)) {
    EraseMember(sub, oid, undo);
  }
  bool live = false;
  for (const auto& [c, oids] : class_oids_) {
    (void)c;
    if (oids.count(oid)) {
      live = true;
      break;
    }
  }
  if (!live) {
    auto it = ovalues_.find(oid);
    if (it != ovalues_.end()) {
      if (undo != nullptr) undo->OValueErased(oid, std::move(it->second));
      ovalues_.erase(it);
    }
  }
  return Status::OK();
}

const std::set<Oid>& Instance::OidsOf(const std::string& cls) const {
  auto it = class_oids_.find(cls);
  return it == class_oids_.end() ? kNoOids : it->second;
}

bool Instance::HasObject(const std::string& cls, Oid oid) const {
  return OidsOf(cls).count(oid) > 0;
}

Result<Value> Instance::OValue(Oid oid) const {
  auto it = ovalues_.find(oid);
  if (it == ovalues_.end()) {
    return Status::NotFound(StrCat("oid #", oid.id, " has no o-value"));
  }
  return it->second;
}

Status Instance::SetOValue(Oid oid, Value ovalue, UndoLog* undo) {
  auto it = ovalues_.find(oid);
  if (it == ovalues_.end()) {
    return Status::NotFound(StrCat("oid #", oid.id, " is not live"));
  }
  class_index_cache_.clear();
  if (undo != nullptr) undo->OValueSet(oid, std::move(it->second));
  it->second = std::move(ovalue);
  return Status::OK();
}

bool Instance::InsertTuple(const std::string& assoc, Value tuple,
                           UndoLog* undo) {
  InvalidateAssocIndexes(assoc);
  auto [it, key_created] = associations_.try_emplace(assoc);
  if (key_created && undo != nullptr) undo->AssocKeyCreated(assoc);
  auto [pos, inserted] = it->second.insert(std::move(tuple));
  if (inserted && undo != nullptr) undo->TupleInserted(assoc, *pos);
  return inserted;
}

bool Instance::EraseTuple(const std::string& assoc, const Value& tuple,
                          UndoLog* undo) {
  auto it = associations_.find(assoc);
  if (it == associations_.end()) return false;
  InvalidateAssocIndexes(assoc);
  auto node = it->second.extract(tuple);
  if (node.empty()) return false;
  if (undo != nullptr) undo->TupleErased(assoc, std::move(node.value()));
  return true;
}

bool Instance::DropAssociation(const std::string& assoc) {
  auto it = associations_.find(assoc);
  if (it == associations_.end()) return false;
  InvalidateAssocIndexes(assoc);
  associations_.erase(it);
  return true;
}

void Instance::RollbackTo(UndoLog* log, size_t base) {
  for (size_t i = log->size(); i-- > base;) {
    UndoRecord& rec = (*log)[i];
    switch (rec.kind) {
      case UndoRecord::Kind::kClassKeyCreated:
        // Reverse replay has already undone every later insertion into
        // this entry, so it is empty again — exactly what the creation
        // produced.
        class_index_cache_.clear();
        class_oids_.erase(rec.name);
        break;
      case UndoRecord::Kind::kOidInserted: {
        class_index_cache_.clear();
        auto it = class_oids_.find(rec.name);
        if (it != class_oids_.end()) it->second.erase(rec.oid);
        break;
      }
      case UndoRecord::Kind::kOidErased:
        class_index_cache_.clear();
        class_oids_[rec.name].insert(rec.oid);
        break;
      case UndoRecord::Kind::kOValueCreated:
        class_index_cache_.clear();
        ovalues_.erase(rec.oid);
        break;
      case UndoRecord::Kind::kOValueSet:
      case UndoRecord::Kind::kOValueErased:
        class_index_cache_.clear();
        ovalues_[rec.oid] = std::move(rec.value);
        break;
      case UndoRecord::Kind::kAssocKeyCreated:
        InvalidateAssocIndexes(rec.name);
        associations_.erase(rec.name);
        break;
      case UndoRecord::Kind::kTupleInserted: {
        InvalidateAssocIndexes(rec.name);
        auto it = associations_.find(rec.name);
        if (it != associations_.end()) it->second.erase(rec.value);
        break;
      }
      case UndoRecord::Kind::kTupleErased:
        InvalidateAssocIndexes(rec.name);
        associations_[rec.name].insert(std::move(rec.value));
        break;
      case UndoRecord::Kind::kInstanceReplaced:
        *this = std::move(*rec.replaced);
        break;
    }
  }
  log->Truncate(base);
}

void Instance::InvalidateAssocIndexes(const std::string& assoc) {
  // Entries are keyed (association, label); the affected association's
  // labels form a contiguous key range.
  auto it = assoc_index_cache_.lower_bound({assoc, ""});
  while (it != assoc_index_cache_.end() && it->first.first == assoc) {
    it = assoc_index_cache_.erase(it);
  }
}

const Value& Instance::NormalizeForIndex(const Value& v) {
  if (v.kind() == ValueKind::kTuple) {
    const Value* self = v.FindFieldRef(kSelfLabel);
    if (self != nullptr && self->kind() == ValueKind::kOid) {
      return *self;
    }
  }
  return v;
}

const Instance::ValueIndex& Instance::AssocIndex(
    const std::string& assoc, const std::string& label) const {
  auto key = std::make_pair(assoc, label);
  auto it = assoc_index_cache_.find(key);
  if (it != assoc_index_cache_.end()) return it->second;
  ValueIndex index;
  const Value nil = Value::Nil();
  for (const Value& tuple : TuplesOf(assoc)) {
    const Value* fv = tuple.FindFieldRef(label);
    index.emplace(NormalizeForIndex(fv != nullptr ? *fv : nil), tuple);
  }
  return assoc_index_cache_.emplace(std::move(key), std::move(index))
      .first->second;
}

const Instance::OidIndex& Instance::ClassIndex(
    const std::string& cls, const std::string& label) const {
  auto key = std::make_pair(cls, label);
  auto it = class_index_cache_.find(key);
  if (it != class_index_cache_.end()) return it->second;
  OidIndex index;
  const Value nil = Value::Nil();
  for (Oid oid : OidsOf(cls)) {
    auto ov = OValue(oid);
    if (!ov.ok()) continue;
    const Value* fv = ov.value().FindFieldRef(label);
    index.emplace(NormalizeForIndex(fv != nullptr ? *fv : nil), oid);
  }
  return class_index_cache_.emplace(std::move(key), std::move(index))
      .first->second;
}

const std::set<Value>& Instance::TuplesOf(const std::string& assoc) const {
  auto it = associations_.find(assoc);
  return it == associations_.end() ? kNoTuples : it->second;
}

size_t Instance::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& [cls, oids] : class_oids_) {
    bytes += cls.capacity() + oids.size() * (sizeof(Oid) + 32);
  }
  for (const auto& [oid, value] : ovalues_) {
    (void)oid;
    bytes += sizeof(Oid) + 32 + value.ApproxBytes();
  }
  for (const auto& [assoc, tuples] : associations_) {
    bytes += assoc.capacity();
    for (const Value& tuple : tuples) {
      bytes += 32 + tuple.ApproxBytes();
    }
  }
  return bytes;
}

size_t Instance::TotalFacts() const {
  size_t n = 0;
  for (const auto& [cls, oids] : class_oids_) {
    (void)cls;
    n += oids.size();
  }
  for (const auto& [assoc, tuples] : associations_) {
    (void)assoc;
    n += tuples.size();
  }
  return n;
}

namespace {

// Where a value under check sits, e.g. "PERSON#3.address.city": one stack
// frame per nested tuple field, linked to its parent, rendered into the
// error message only when a check fails. The root names the class (with
// the object's oid) or the association the value belongs to.
struct ValuePath {
  const ValuePath* parent;
  const std::string& segment;  // root: class/association; else a label
  const Oid* oid = nullptr;    // root of an o-value: the object's oid

  std::string Render() const {
    if (parent != nullptr) return StrCat(parent->Render(), ".", segment);
    return oid != nullptr ? StrCat(segment, "#", oid->id) : segment;
  }
};

Status CheckValueConforms(const Instance& instance, const Schema& schema,
                          const Value& value, const Type& type,
                          bool allow_nil_refs, const ValuePath& path) {
  switch (type.kind()) {
    case TypeKind::kInt:
      if (value.kind() != ValueKind::kInt) break;
      return Status::OK();
    case TypeKind::kString:
      if (value.kind() != ValueKind::kString) break;
      return Status::OK();
    case TypeKind::kBool:
      if (value.kind() != ValueKind::kBool) break;
      return Status::OK();
    case TypeKind::kReal:
      if (value.kind() != ValueKind::kReal) break;
      return Status::OK();
    case TypeKind::kNamed: {
      const std::string& name = type.name();
      if (schema.IsClass(name)) {
        if (value.is_nil()) {
          if (allow_nil_refs) return Status::OK();
          return Status::ConstraintViolation(
              StrCat(path.Render(), ": nil oid for class '", name,
                     "' inside an association (associations must refer to "
                     "existing objects, Section 2.1)"));
        }
        if (value.kind() != ValueKind::kOid) break;
        if (!instance.HasObject(name, value.oid_value())) {
          return Status::ConstraintViolation(
              StrCat(path.Render(), ": oid ", value.ToString(),
                     " is not a member of class '", name,
                     "' (active referential integrity)"));
        }
        return Status::OK();
      }
      // Domain or association alias: check against its expansion.
      LOGRES_ASSIGN_OR_RETURN(Type rhs, schema.TypeOf(name));
      return CheckValueConforms(instance, schema, value, rhs, allow_nil_refs,
                                path);
    }
    case TypeKind::kTuple: {
      if (value.kind() != ValueKind::kTuple) break;
      // Projection conformance: every type field must be present and
      // conforming; extra value fields (e.g. subclass attributes) are fine.
      for (const auto& [label, ftype] : type.fields()) {
        const Value* fv = value.FindFieldRef(label);
        if (fv == nullptr) {
          return Status::ConstraintViolation(
              StrCat(path.Render(), ": value ", value.ToString(),
                     " lacks field '", label, "' of type ",
                     ftype.ToString()));
        }
        LOGRES_RETURN_NOT_OK(CheckValueConforms(instance, schema, *fv, ftype,
                                                allow_nil_refs,
                                                ValuePath{&path, label}));
      }
      return Status::OK();
    }
    case TypeKind::kSet:
    case TypeKind::kMultiset:
    case TypeKind::kSequence: {
      ValueKind expected = type.kind() == TypeKind::kSet ? ValueKind::kSet
                           : type.kind() == TypeKind::kMultiset
                               ? ValueKind::kMultiset
                               : ValueKind::kSequence;
      if (value.kind() != expected) break;
      for (const Value& e : value.elements()) {
        LOGRES_RETURN_NOT_OK(CheckValueConforms(
            instance, schema, e, type.element(), allow_nil_refs, path));
      }
      return Status::OK();
    }
  }
  return Status::ConstraintViolation(
      StrCat(path.Render(), ": value ", value.ToString(),
             " does not conform to ", type.ToString()));
}

// Calls `fn` on every oid of `oids` that `touched` names (all of them when
// `touched` is null), in oid order, stopping at the first error.
template <typename Fn>
Status ForEachChecked(const std::set<Oid>& oids, const TouchedItems* touched,
                      Fn fn) {
  if (touched == nullptr || oids.size() <= touched->oids.size()) {
    for (Oid oid : oids) {
      if (touched != nullptr && !touched->oids.count(oid)) continue;
      LOGRES_RETURN_NOT_OK(fn(oid));
    }
    return Status::OK();
  }
  for (Oid oid : touched->oids) {
    if (oids.count(oid)) LOGRES_RETURN_NOT_OK(fn(oid));
  }
  return Status::OK();
}

}  // namespace

Status Instance::CheckConsistent(const Schema& schema,
                                 const TouchedItems* touched) const {
  // Def. 4a: pi(C) ⊆ pi(C') along isa.
  for (const IsaDecl& d : schema.isa_decls()) {
    if (!d.component_label.empty()) continue;
    const std::set<Oid>& super = OidsOf(d.super);
    LOGRES_RETURN_NOT_OK(
        ForEachChecked(OidsOf(d.sub), touched, [&](Oid oid) -> Status {
          if (super.count(oid)) return Status::OK();
          return Status::Inconsistent(
              StrCat("oid #", oid.id, " in '", d.sub, "' but not in its "
                     "superclass '", d.super, "' (Definition 4a)"));
        }));
  }

  // Def. 4b: classes sharing an oid must share a hierarchy root. Each
  // oid's later classes (in name order) are compared with its first one;
  // the smallest offending oid is reported.
  std::vector<const std::string*> names;
  std::vector<std::optional<std::string>> roots;
  for (const auto& [cls, oids] : class_oids_) {
    (void)oids;
    Result<std::string> root = schema.RootOf(cls);
    names.push_back(&cls);
    roots.push_back(root.ok() ? std::optional(*std::move(root))
                              : std::nullopt);
  }
  auto same_hierarchy = [&](size_t a, size_t b) {
    return roots[a].has_value() && roots[b].has_value() &&
           *roots[a] == *roots[b];
  };
  struct Clash {
    Oid oid;
    size_t first, other;
  };
  std::optional<Clash> clash;
  if (touched == nullptr) {
    std::unordered_map<uint64_t, size_t> first_class;
    first_class.reserve(ovalues_.size());
    size_t i = 0;
    for (const auto& [cls, oids] : class_oids_) {
      (void)cls;
      for (Oid oid : oids) {
        auto [it, inserted] = first_class.try_emplace(oid.id, i);
        if (inserted || (clash.has_value() && !(oid < clash->oid))) continue;
        if (!same_hierarchy(it->second, i)) clash = Clash{oid, it->second, i};
      }
      ++i;
    }
  } else {
    for (Oid oid : touched->oids) {
      std::optional<size_t> first;
      size_t i = 0;
      for (const auto& [cls, oids] : class_oids_) {
        (void)cls;
        if (oids.count(oid)) {
          if (!first.has_value()) {
            first = i;
          } else if (!same_hierarchy(*first, i)) {
            clash = Clash{oid, *first, i};
            break;
          }
        }
        ++i;
      }
      if (clash.has_value()) break;
    }
  }
  if (clash.has_value()) {
    return Status::Inconsistent(
        StrCat("oid #", clash->oid.id, " belongs to '", *names[clash->first],
               "' and '", *names[clash->other],
               "' which have no common ancestor (Definition 4b)"));
  }

  // nu conformance: each live oid's value projects into every owning
  // class's type; every owning class's oid must have an o-value.
  for (const auto& [cls, oids] : class_oids_) {
    if (touched != nullptr && !touched->class_keys.count(cls) &&
        std::none_of(touched->oids.begin(), touched->oids.end(),
                     [&](Oid oid) { return oids.count(oid) > 0; })) {
      continue;
    }
    LOGRES_ASSIGN_OR_RETURN(Type tuple, schema.PredicateTuple(cls));
    LOGRES_RETURN_NOT_OK(
        ForEachChecked(oids, touched, [&](Oid oid) -> Status {
          auto it = ovalues_.find(oid);
          if (it == ovalues_.end()) {
            return Status::Inconsistent(
                StrCat("oid #", oid.id, " of class '", cls,
                       "' has no o-value"));
          }
          return CheckValueConforms(*this, schema, it->second, tuple,
                                    /*allow_nil_refs=*/true,
                                    ValuePath{nullptr, cls, &oid});
        }));
  }

  // rho conformance: tuples match the association type; class components
  // must reference existing objects (nil forbidden).
  for (const auto& [assoc, tuples] : associations_) {
    const std::vector<Value>* inserted = nullptr;
    if (touched != nullptr) {
      auto it = touched->tuples.find(assoc);
      if (it != touched->tuples.end()) {
        inserted = &it->second;
      } else if (!touched->assoc_keys.count(assoc)) {
        continue;
      }
    }
    if (!schema.IsAssociation(assoc)) {
      return Status::Inconsistent(
          StrCat("instance stores tuples for undeclared association '",
                 assoc, "'"));
    }
    LOGRES_ASSIGN_OR_RETURN(Type tuple_type, schema.PredicateTuple(assoc));
    const ValuePath path{nullptr, assoc};
    auto check = [&](const Value& tuple) {
      return CheckValueConforms(*this, schema, tuple, tuple_type,
                                /*allow_nil_refs=*/false, path);
    };
    if (touched == nullptr) {
      for (const Value& tuple : tuples) LOGRES_RETURN_NOT_OK(check(tuple));
      continue;
    }
    if (inserted == nullptr) continue;
    // Touched tuples come in insertion order; the full check would report
    // the smallest failing one.
    const Value* smallest = nullptr;
    Status failure;
    for (const Value& tuple : *inserted) {
      if (smallest != nullptr && !(tuple < *smallest)) continue;
      if (!tuples.count(tuple)) continue;  // erased again later in the run
      Status st = check(tuple);
      if (!st.ok()) {
        smallest = &tuple;
        failure = std::move(st);
      }
    }
    LOGRES_RETURN_NOT_OK(failure);
  }
  return Status::OK();
}

namespace {

// Rewrites every oid in `value` through `mapping`; oids without a mapping
// are left unchanged.
Value RewriteOids(const Value& value, const std::map<Oid, Oid>& mapping) {
  switch (value.kind()) {
    case ValueKind::kOid: {
      auto it = mapping.find(value.oid_value());
      return it == mapping.end() ? value : Value::MakeOid(it->second);
    }
    case ValueKind::kTuple: {
      std::vector<std::pair<std::string, Value>> fields;
      for (const auto& [label, v] : value.tuple_fields()) {
        fields.emplace_back(label, RewriteOids(v, mapping));
      }
      return Value::MakeTuple(std::move(fields));
    }
    case ValueKind::kSet:
    case ValueKind::kMultiset:
    case ValueKind::kSequence: {
      std::vector<Value> elems;
      for (const Value& e : value.elements()) {
        elems.push_back(RewriteOids(e, mapping));
      }
      if (value.kind() == ValueKind::kSet) {
        return Value::MakeSet(std::move(elems));
      }
      if (value.kind() == ValueKind::kMultiset) {
        return Value::MakeMultiset(std::move(elems));
      }
      return Value::MakeSequence(std::move(elems));
    }
    default:
      return value;
  }
}

// Computes a structural signature for each oid by color refinement: start
// from class memberships, then repeatedly fold in the o-value with nested
// oids replaced by their current colors.
std::map<Oid, size_t> RefineColors(const Instance& inst) {
  std::map<Oid, size_t> colors;
  for (const auto& [oid, v] : inst.ovalues()) {
    (void)v;
    colors[oid] = 0;
  }
  // Initial color: hash of owning class names.
  for (const auto& [cls, oids] : inst.class_oids()) {
    size_t h = std::hash<std::string>()(cls);
    for (Oid oid : oids) {
      HashCombine(&colors[oid], h);
    }
  }
  auto color_of_value = [&](const Value& v, auto&& self) -> size_t {
    switch (v.kind()) {
      case ValueKind::kOid: {
        auto it = colors.find(v.oid_value());
        return it == colors.end() ? 0x5eed : it->second;
      }
      case ValueKind::kTuple: {
        size_t h = 0x70u;
        for (const auto& [label, f] : v.tuple_fields()) {
          HashCombine(&h, std::hash<std::string>()(label));
          HashCombine(&h, self(f, self));
        }
        return h;
      }
      case ValueKind::kSet:
      case ValueKind::kMultiset:
      case ValueKind::kSequence: {
        size_t h = static_cast<size_t>(v.kind()) * 31;
        for (const Value& e : v.elements()) {
          HashCombine(&h, self(e, self));
        }
        return h;
      }
      default:
        return v.Hash();
    }
  };
  size_t n = colors.size();
  for (size_t round = 0; round < n + 1; ++round) {
    std::map<Oid, size_t> next;
    for (const auto& [oid, value] : inst.ovalues()) {
      size_t h = colors[oid];
      HashCombine(&h, color_of_value(value, color_of_value));
      next[oid] = h;
    }
    if (next == colors) break;
    colors = std::move(next);
  }
  return colors;
}

}  // namespace

bool Instance::IsomorphicTo(const Instance& other) const {
  if (*this == other) return true;
  if (ovalues_.size() != other.ovalues_.size()) return false;

  // Pair up oids by refined color, tie-breaking deterministically by oid
  // order; then verify the induced bijection actually maps one instance
  // onto the other (so the result is never a false positive).
  std::map<Oid, size_t> ca = RefineColors(*this);
  std::map<Oid, size_t> cb = RefineColors(other);
  std::multimap<size_t, Oid> by_color_a, by_color_b;
  for (const auto& [oid, c] : ca) by_color_a.emplace(c, oid);
  for (const auto& [oid, c] : cb) by_color_b.emplace(c, oid);

  std::map<Oid, Oid> mapping;  // this -> other
  auto ita = by_color_a.begin();
  auto itb = by_color_b.begin();
  while (ita != by_color_a.end() && itb != by_color_b.end()) {
    if (ita->first != itb->first) return false;
    mapping[ita->second] = itb->second;
    ++ita;
    ++itb;
  }
  if (ita != by_color_a.end() || itb != by_color_b.end()) return false;

  // Verify: rewrite this instance through the mapping and compare.
  Instance rewritten;
  for (const auto& [cls, oids] : class_oids_) {
    for (Oid oid : oids) {
      rewritten.class_oids_[cls].insert(mapping.at(oid));
    }
  }
  for (const auto& [oid, value] : ovalues_) {
    rewritten.ovalues_[mapping.at(oid)] = RewriteOids(value, mapping);
  }
  for (const auto& [assoc, tuples] : associations_) {
    for (const Value& t : tuples) {
      rewritten.associations_[assoc].insert(RewriteOids(t, mapping));
    }
  }
  return rewritten == other;
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [cls, oids] : class_oids_) {
    out += StrCat("class ", cls, ":\n");
    for (Oid oid : oids) {
      auto it = ovalues_.find(oid);
      out += StrCat("  #", oid.id, " = ",
                    it == ovalues_.end() ? "?" : it->second.ToString(),
                    "\n");
    }
  }
  for (const auto& [assoc, tuples] : associations_) {
    out += StrCat("association ", assoc, ":\n");
    for (const Value& t : tuples) {
      out += StrCat("  ", t.ToString(), "\n");
    }
  }
  return out;
}

}  // namespace logres
