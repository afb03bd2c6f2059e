// The ALGRES complex-value system.
//
// ALGRES (the substrate the LOGRES prototype runs on, paper Section 1 and 5)
// is a main-memory engine over *complex objects*: values freely nested with
// the tuple (...), set {...}, multiset [...] and sequence <...> constructors
// of paper Definition 1, over the elementary types integer, string (plus
// booleans and reals, which Definition 1 footnote 2 explicitly allows), the
// nil object identifier, and object identifiers themselves.
//
// Values are immutable reference-counted DAGs: copying a Value is O(1), and
// structurally equal subtrees may be shared. A total order and a hash are
// defined over all values so that sets and relations can deduplicate
// efficiently (set semantics is load-bearing in LOGRES: associations are
// duplicate-free, classes are keyed by oid).
//
// When interning is enabled (the default — see algres/interner.h),
// construction routes through a process-wide hash-consing table: leaf
// strings are interned once, composite nodes are hash-consed bottom-up,
// and structurally equal values share one canonical node, so equality
// collapses to a pointer comparison (real-free values) and Compare()
// short-circuits on shared subtrees.

#ifndef LOGRES_ALGRES_VALUE_H_
#define LOGRES_ALGRES_VALUE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace logres {

/// \brief A system-generated object identifier (paper Definition 3).
///
/// Oids are managed by the system and never visible to users. Oid 0 is
/// reserved and never allocated; the *nil* oid — a legal value for class
/// references inside class types (Section 2.1) — is represented by a
/// distinct Value kind, not by a reserved Oid.
struct Oid {
  uint64_t id = 0;

  bool valid() const { return id != 0; }
  friend bool operator==(Oid a, Oid b) { return a.id == b.id; }
  friend bool operator!=(Oid a, Oid b) { return a.id != b.id; }
  friend bool operator<(Oid a, Oid b) { return a.id < b.id; }
};

/// \brief Allocates fresh oids. One generator per database.
class OidGenerator {
 public:
  Oid Next() { return Oid{++counter_}; }
  uint64_t issued() const { return counter_; }

  /// \brief Advances the generator so that \p issued oids count as
  /// consumed (no-op if it is already past). Used when restoring a dump
  /// and when replaying a journal, where rejected applications may have
  /// consumed oids that were never written down individually.
  void FastForward(uint64_t issued) {
    if (issued > counter_) counter_ = issued;
  }

 private:
  uint64_t counter_ = 0;
};

/// \brief The runtime kind of a Value.
enum class ValueKind {
  kNil = 0,   // the nil oid
  kBool,
  kInt,
  kReal,
  kString,
  kOid,       // reference to an object
  kTuple,     // labeled record (L1: v1, ..., Lk: vk)
  kSet,       // {v1, ..., vn}, duplicate-free
  kMultiset,  // [v1, ..., vn], elements with occurrence counts
  kSequence,  // <v1, ..., vn>, ordered, duplicates allowed
};

/// \brief Human-readable kind name ("tuple", "set", ...).
const char* ValueKindName(ValueKind kind);

class Value;

/// \brief One labeled field of a tuple value.
struct Field {
  std::string label;
  // Value is incomplete here; the vector of Fields lives behind a
  // shared_ptr in ValueRep so the indirection is resolved at use sites.
};

/// \brief An immutable complex value.
///
/// Cheap to copy (shared_ptr to an immutable representation). Scalars are
/// stored inline in the rep; composites hold vectors of child Values.
/// Values are totally ordered (kind-major, then content-lexicographic) and
/// hashable, which gives relations their set semantics.
class Value {
 public:
  /// Default-constructed value is nil.
  Value();

  // ---- Constructors ------------------------------------------------------
  static Value Nil();
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Real(double d);
  static Value String(std::string s);
  static Value MakeOid(Oid oid);

  /// \brief Builds a tuple with the given labeled fields (order preserved).
  static Value MakeTuple(
      std::vector<std::pair<std::string, Value>> fields);

  /// \brief Builds a set: elements are sorted and deduplicated.
  static Value MakeSet(std::vector<Value> elements);

  /// \brief Builds a multiset: elements are sorted; duplicates kept as
  /// occurrence counts (paper Definition 3's "occurrence integer number").
  static Value MakeMultiset(std::vector<Value> elements);

  /// \brief Builds a sequence: order preserved exactly as given.
  static Value MakeSequence(std::vector<Value> elements);

  /// \brief The empty set.
  static Value EmptySet() { return MakeSet({}); }

  // ---- Inspection --------------------------------------------------------
  ValueKind kind() const;
  bool is_nil() const { return kind() == ValueKind::kNil; }
  bool is_scalar() const {
    ValueKind k = kind();
    return k == ValueKind::kNil || k == ValueKind::kBool ||
           k == ValueKind::kInt || k == ValueKind::kReal ||
           k == ValueKind::kString || k == ValueKind::kOid;
  }
  bool is_collection() const {
    ValueKind k = kind();
    return k == ValueKind::kSet || k == ValueKind::kMultiset ||
           k == ValueKind::kSequence;
  }

  /// Preconditions: kind() must match the accessor.
  bool bool_value() const;
  int64_t int_value() const;
  double real_value() const;
  const std::string& string_value() const;
  Oid oid_value() const;

  /// \brief Tuple fields in declaration order. Precondition: tuple.
  const std::vector<std::pair<std::string, Value>>& tuple_fields() const;

  /// \brief Looks up a tuple field by label; error if absent or not a tuple.
  Result<Value> field(const std::string& label) const;

  /// \brief Field lookup returning nullopt on absence (no error allocation).
  std::optional<Value> FindField(const std::string& label) const;

  /// \brief Field lookup by reference: a pointer into this tuple's rep
  /// (valid while any Value shares the rep), nullptr on absence or when
  /// this is not a tuple. The copy-free probe path for hot index lookups.
  const Value* FindFieldRef(const std::string& label) const;

  /// \brief Number of fields (tuple) or elements (collections).
  size_t size() const;

  /// \brief Elements of a set or sequence, multiset expansion with
  /// duplicates repeated. Precondition: collection.
  const std::vector<Value>& elements() const;

  // ---- Algebra over collections ------------------------------------------
  /// \brief True if \p element occurs in this set/multiset/sequence.
  bool Contains(const Value& element) const;

  /// \brief Occurrence count of \p element (0/1 for sets).
  size_t Count(const Value& element) const;

  /// \brief Set/multiset union, sequence concatenation.
  /// Error if kinds differ or are not collections.
  Result<Value> Union(const Value& other) const;

  /// \brief Set/multiset intersection. Error for sequences.
  Result<Value> Intersect(const Value& other) const;

  /// \brief Set/multiset difference. Error for sequences.
  Result<Value> Difference(const Value& other) const;

  /// \brief Returns a copy with \p element inserted (appended, for
  /// sequences). Error for scalars/tuples.
  Result<Value> Insert(const Value& element) const;

  /// \brief Returns a tuple equal to this one with field \p label replaced
  /// (or added at the end if absent).
  Result<Value> WithField(const std::string& label, Value value) const;

  // ---- Ordering / hashing / printing --------------------------------------
  /// \brief Total order: kind-major, then content. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// \brief Structural hash, memoized in the immutable rep at construction
  /// — reading it never recomputes. Equal values hash equal, so a hash
  /// mismatch proves inequality (the operator== fast path below).
  size_t Hash() const;

  /// \brief True when both values share one physical rep (O(1)); shared
  /// reps are structurally equal, but equal values need not share reps.
  bool SameRep(const Value& other) const { return rep_ == other.rep_; }

  /// \brief True when this value holds a canonical node owned by the
  /// ValueInterner. Canonical nodes are unique per bit-structurally-
  /// distinct value: two live interned values are bit-structurally equal
  /// iff they share the rep.
  bool is_interned() const;

  /// \brief Approximate heap footprint in bytes: the rep, string payload,
  /// and children, recursively. Structurally shared subtrees are counted
  /// at every occurrence (an upper bound — the byte *budget* wants the
  /// logical size, not the deduplicated one). O(size of the value).
  size_t ApproxBytes() const;

  /// \brief Paper-style rendering: (l1: v1, ...), {..}, [..], <..>,
  /// strings quoted, oids as #n, nil as "nil".
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    // Canonical nodes fast-path: shared rep is equality; two *different*
    // interned real-free reps are provably unequal (EqualSlow).
    if (a.rep_ == b.rep_) return true;
    return a.EqualSlow(b);
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }
  friend bool operator<=(const Value& a, const Value& b) {
    return a.Compare(b) <= 0;
  }
  friend bool operator>(const Value& a, const Value& b) {
    return a.Compare(b) > 0;
  }
  friend bool operator>=(const Value& a, const Value& b) {
    return a.Compare(b) >= 0;
  }

  /// Opaque immutable representation (defined in value.cc; public only so
  /// that file-local helpers there can name it).
  struct Rep;

 private:
  // File-local interner machinery in value.cc reads reps through this.
  friend struct ValueInternAccess;

  explicit Value(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  // Distinct-rep equality: interned-pointer fast path, then hash, then
  // Compare. Out of line because it reads Rep fields.
  bool EqualSlow(const Value& other) const;

  std::shared_ptr<const Rep> rep_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

/// \brief std::hash adapter so Values can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// \brief The largest oid id mentioned anywhere in \p value (0 when
/// none): how far an oid generator must have advanced before \p value can
/// be stored without a later invented oid colliding with it.
uint64_t MaxOidIn(const Value& value);

}  // namespace logres

#endif  // LOGRES_ALGRES_VALUE_H_
