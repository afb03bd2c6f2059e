#include "algres/value.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <mutex>
#include <shared_mutex>
#include <variant>

#include "algres/interner.h"
#include "util/string_util.h"

namespace logres {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNil: return "nil";
    case ValueKind::kBool: return "bool";
    case ValueKind::kInt: return "integer";
    case ValueKind::kReal: return "real";
    case ValueKind::kString: return "string";
    case ValueKind::kOid: return "oid";
    case ValueKind::kTuple: return "tuple";
    case ValueKind::kSet: return "set";
    case ValueKind::kMultiset: return "multiset";
    case ValueKind::kSequence: return "sequence";
  }
  return "unknown";
}

struct Value::Rep {
  ValueKind kind = ValueKind::kNil;
  // Canonical node owned by the ValueInterner (unique per structurally-
  // distinct value among live interned reps).
  bool interned = false;
  // No real number anywhere in this value. Only exact reps are interned:
  // for them structural identity and the total order's equivalence
  // coincide, so two distinct interned reps are provably unequal (the
  // operator== fast path) and sharing can never change semantics. Reals
  // break the coincidence (0.0 and -0.0 compare equal but print
  // differently; NaNs compare unequal to themselves), so real-containing
  // values always take the plain make_shared path.
  bool exact = true;
  // Scalar payloads.
  bool b = false;
  int64_t i = 0;
  double d = 0.0;
  std::string s;
  Oid oid;
  // Composite payloads. For kTuple, `fields` is used; for collections,
  // `elems` (sets: sorted+unique; multisets: sorted with duplicates;
  // sequences: in insertion order).
  std::vector<std::pair<std::string, Value>> fields;
  std::vector<Value> elems;
  // Cached hash (computed eagerly at construction; reps are immutable).
  size_t hash = 0;

  Rep() = default;
  Rep(const Rep&) = default;
  Rep(Rep&&) = default;
  Rep& operator=(const Rep&) = default;
  Rep& operator=(Rep&&) = default;
  // Unlinks interned nodes from their intern-table shard (defined after
  // the table machinery below). Keeping the unlink in the destructor —
  // rather than a custom shared_ptr deleter — lets canonical nodes use
  // the same single-allocation make_shared as the plain path.
  ~Rep();
};

// Named (not anonymous) so Value can befriend it: gives the file-local
// interner machinery access to reps without widening Value's public API.
struct ValueInternAccess {
  static const std::shared_ptr<const Value::Rep>& rep(const Value& v) {
    return v.rep_;
  }
};

namespace {

size_t HashRep(const Value::Rep& rep);

// ---- The hash-consing intern table (see algres/interner.h) -------------

std::atomic<bool> g_intern_enabled{true};

// Shallow footprint of one canonical node: its own payload, not its
// children (children are canonical nodes with their own entry), so the
// sum over live nodes is the deduplicated value-heap size.
size_t ShallowBytes(const Value::Rep& rep) {
  size_t bytes = sizeof(Value::Rep) + rep.s.capacity();
  bytes += rep.fields.capacity() * sizeof(std::pair<std::string, Value>);
  for (const auto& [label, child] : rep.fields) {
    (void)child;
    bytes += label.capacity();
  }
  bytes += rep.elems.capacity() * sizeof(Value);
  return bytes;
}

bool BitEqualValues(const Value& a, const Value& b);

// Structural equality between a candidate rep and a table resident. Both
// sides are exact (real-free — MakeRep only interns exact reps), so this
// coincides with the total order's equivalence; the kReal branch is kept
// defensively and compares by bit pattern.
bool RepEquals(const Value::Rep& a, const Value::Rep& b) {
  if (a.kind != b.kind || a.hash != b.hash) return false;
  switch (a.kind) {
    case ValueKind::kNil:
      return true;
    case ValueKind::kBool:
      return a.b == b.b;
    case ValueKind::kInt:
      return a.i == b.i;
    case ValueKind::kReal:
      return std::bit_cast<uint64_t>(a.d) == std::bit_cast<uint64_t>(b.d);
    case ValueKind::kString:
      return a.s == b.s;
    case ValueKind::kOid:
      return a.oid == b.oid;
    case ValueKind::kTuple: {
      if (a.fields.size() != b.fields.size()) return false;
      for (size_t i = 0; i < a.fields.size(); ++i) {
        if (a.fields[i].first != b.fields[i].first) return false;
        if (!BitEqualValues(a.fields[i].second, b.fields[i].second)) {
          return false;
        }
      }
      return true;
    }
    case ValueKind::kSet:
    case ValueKind::kMultiset:
    case ValueKind::kSequence: {
      if (a.elems.size() != b.elems.size()) return false;
      for (size_t i = 0; i < a.elems.size(); ++i) {
        if (!BitEqualValues(a.elems[i], b.elems[i])) return false;
      }
      return true;
    }
  }
  return false;
}

// Equality on child Values during a table probe. Children of both the
// candidate and the resident are live, so two interned children are equal
// iff they share the node; mixed/plain children fall back to a structural
// walk.
bool BitEqualValues(const Value& a, const Value& b) {
  if (a.SameRep(b)) return true;
  const auto& ra = ValueInternAccess::rep(a);
  const auto& rb = ValueInternAccess::rep(b);
  if (ra->interned && rb->interned) return false;
  return RepEquals(*ra, *rb);
}

// True when no real number occurs anywhere in the value. Children carry
// their own memoized exact bit, so this is O(width), not O(size).
bool RepExact(const Value::Rep& rep) {
  switch (rep.kind) {
    case ValueKind::kReal:
      return false;
    case ValueKind::kTuple:
      for (const auto& [label, child] : rep.fields) {
        (void)label;
        if (!ValueInternAccess::rep(child)->exact) return false;
      }
      return true;
    case ValueKind::kSet:
    case ValueKind::kMultiset:
    case ValueKind::kSequence:
      for (const Value& child : rep.elems) {
        if (!ValueInternAccess::rep(child)->exact) return false;
      }
      return true;
    default:
      return true;
  }
}

// One shard of the intern table: an open-addressed, linear-probe slot
// array sized to a power of two. A node-based map would pay a heap node
// plus a chain of dependent cache misses per operation — and on
// duplicate-free workloads *every* construction is a miss+insert and
// every death an erase — so the flat layout (one short scan, zero
// allocations amortized) is what keeps the interner's overhead small on
// workloads it cannot help.
struct InternShard {
  struct Slot {
    size_t hash = 0;
    const Value::Rep* rep = nullptr;  // nullptr marks an empty slot
    std::weak_ptr<const Value::Rep> weak;
  };

  std::shared_mutex mu;
  std::vector<Slot> slots;  // always a power of two (or empty)
  size_t live = 0;
  // Bumped on every mutation (insert, unlink, rehash). Lets a miss probe
  // done under the shared lock hand its landing slot to the insert under
  // the unique lock: if the version is unchanged across the lock switch,
  // the chain was not touched and the remembered empty slot is still the
  // right insertion point — one probe per miss instead of two.
  uint64_t version = 0;

  // Per-shard statistics. `hits` is atomic because the hit path holds
  // only the shared lock; the rest are plain fields mutated under the
  // unique lock and read under either lock — folding them into the
  // already-held lock instead of global atomics keeps the miss path to
  // zero extra contended cache lines. A node is always unlinked from the
  // shard that inserted it (same hash, same shard), so per-shard
  // `resident_bytes` never underflows.
  std::atomic<uint64_t> hits{0};
  uint64_t misses = 0;
  uint64_t released = 0;
  uint64_t resident_bytes = 0;

  size_t mask() const { return slots.size() - 1; }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots);
    slots.clear();
    slots.resize(capacity);
    for (Slot& s : old) {
      if (s.rep == nullptr) continue;
      size_t i = s.hash & mask();
      while (slots[i].rep != nullptr) i = (i + 1) & mask();
      slots[i] = std::move(s);
    }
  }

  // Keeps the load factor at or below 3/4 for the next insert.
  void ReserveForInsert() {
    if (slots.empty()) {
      Rehash(256);
    } else if ((live + 1) * 4 > slots.size() * 3) {
      Rehash(slots.size() * 2);
    }
  }
};

constexpr size_t kInternShards = 16;

struct InternTable {
  InternShard shards[kInternShards];
  InternShard& shard_for(size_t hash) {
    // The low bits pick the slot inside the shard; fold in high bits for
    // the shard so the two choices decorrelate.
    return shards[(hash ^ (hash >> 17)) % kInternShards];
  }
};

// Deliberately leaked: destructors of static Values (the nil rep, the
// small-int cache) may run during process teardown and must find the
// table alive.
InternTable& Table() {
  static InternTable* table = new InternTable;
  return *table;
}

// Runs from ~Rep when the last Value referencing a canonical node dies:
// unlink the node from its shard by pointer identity. A stray Rep copy
// carrying the interned flag is harmless — its pointer is not in any
// chain, so the scan falls off the probe chain and returns.
void UnlinkInterned(const Value::Rep* rep) {
  InternShard& shard = Table().shard_for(rep->hash);
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.slots.empty()) return;
    const size_t mask = shard.mask();
    size_t i = rep->hash & mask;
    while (shard.slots[i].rep != rep) {
      if (shard.slots[i].rep == nullptr) return;  // not linked
      i = (i + 1) & mask;
    }
    // Backward-shift deletion keeps probe chains hole-free without
    // tombstones: pull every later entry whose ideal position lies at or
    // before the hole back into it.
    shard.slots[i] = InternShard::Slot{};
    for (size_t j = (i + 1) & mask; shard.slots[j].rep != nullptr;
         j = (j + 1) & mask) {
      const size_t ideal = shard.slots[j].hash & mask;
      const bool movable = (i <= j) ? (ideal <= i || ideal > j)
                                    : (ideal <= i && ideal > j);
      if (movable) {
        shard.slots[i] = std::move(shard.slots[j]);
        shard.slots[j] = InternShard::Slot{};
        i = j;
      }
    }
    --shard.live;
    ++shard.released;
    ++shard.version;
    shard.resident_bytes -= ShallowBytes(*rep);
    // Shed capacity once the table is mostly air again, so a transient
    // spike (one big fixpoint) does not pin slot memory forever.
    if (shard.slots.size() > 256 && shard.live * 8 < shard.slots.size()) {
      shard.Rehash(shard.slots.size() / 2);
    }
  }
}

// Returns the canonical node for `rep`'s structure, inserting it if
// absent. `rep.hash` must already be set. On a hit the candidate (and the
// buffers moved into it) is simply dropped — the saved allocation is what
// makes duplicate construction cheaper than the plain path.
std::shared_ptr<const Value::Rep> Canonicalize(Value::Rep&& rep) {
  InternShard& shard = Table().shard_for(rep.hash);
  uint64_t seen_version = 0;
  size_t landing = 0;
  bool have_landing = false;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    seen_version = shard.version;
    if (!shard.slots.empty()) {
      const size_t mask = shard.mask();
      size_t i = rep.hash & mask;
      for (; shard.slots[i].rep != nullptr; i = (i + 1) & mask) {
        const InternShard::Slot& slot = shard.slots[i];
        if (slot.hash == rep.hash && RepEquals(*slot.rep, rep)) {
          if (auto sp = slot.weak.lock()) {
            shard.hits.fetch_add(1, std::memory_order_relaxed);
            return sp;
          }
          // Expired: the node's owner hit refcount zero and its
          // destructor is waiting to unlink it. Keep probing — a live
          // twin may sit later in the chain — else insert fresh below.
        }
      }
      landing = i;  // the empty slot ending this value's probe chain
      have_landing = true;
    }
  }
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  size_t i;
  if (have_landing && shard.version == seen_version &&
      (shard.live + 1) * 4 <= shard.slots.size() * 3) {
    // No mutation since the shared probe: the landing slot is still the
    // right insertion point and no rival inserted this value.
    i = landing;
  } else {
    shard.ReserveForInsert();
    const size_t mask = shard.mask();
    i = rep.hash & mask;
    for (; shard.slots[i].rep != nullptr; i = (i + 1) & mask) {
      const InternShard::Slot& slot = shard.slots[i];
      if (slot.hash == rep.hash && RepEquals(*slot.rep, rep)) {
        if (auto sp = slot.weak.lock()) {  // raced insert by another worker
          shard.hits.fetch_add(1, std::memory_order_relaxed);
          return sp;
        }
      }
    }
  }
  // The interned flag is set on the heap node only — the moved-from stack
  // candidate must not carry it into its own destructor.
  auto sp = std::make_shared<Value::Rep>(std::move(rep));
  sp->interned = true;
  shard.slots[i] = InternShard::Slot{sp->hash, sp.get(), sp};
  ++shard.live;
  ++shard.misses;
  ++shard.version;
  shard.resident_bytes += ShallowBytes(*sp);
  return sp;
}

std::shared_ptr<const Value::Rep> MakeRep(Value::Rep rep) {
  rep.exact = RepExact(rep);
  rep.hash = HashRep(rep);
  // Only exact (real-free) reps are interned — see the Rep::exact
  // comment. The exact bit is still computed on the plain path so that
  // composites built later under interning see correct child bits.
  if (rep.exact && g_intern_enabled.load(std::memory_order_relaxed)) {
    return Canonicalize(std::move(rep));
  }
  return std::make_shared<const Value::Rep>(std::move(rep));
}

// The shared nil rep: all default-constructed Values point here. Built
// through MakeRep, so with interning on it is also the table's canonical
// nil.
const std::shared_ptr<const Value::Rep>& NilRep() {
  static const std::shared_ptr<const Value::Rep> kNil =
      MakeRep(Value::Rep{});
  return kNil;
}

// Pinned canonical nodes for the small integers the workloads churn on
// (chain/graph node ids, counters). Skips both the allocation and the
// table probe; pinned for the process lifetime.
constexpr int64_t kSmallIntMin = -128;
constexpr int64_t kSmallIntMax = 2048;

// Pinned canonical true/false, same discipline as the small-int cache.
const std::shared_ptr<const Value::Rep>& BoolRep(bool b) {
  static const auto* cache = [] {
    auto* reps = new std::array<std::shared_ptr<const Value::Rep>, 2>;
    for (int v = 0; v < 2; ++v) {
      Value::Rep rep;
      rep.kind = ValueKind::kBool;
      rep.b = v != 0;
      rep.hash = HashRep(rep);
      (*reps)[v] = Canonicalize(std::move(rep));
    }
    return reps;
  }();
  return (*cache)[b ? 1 : 0];
}

const std::shared_ptr<const Value::Rep>& SmallIntRep(int64_t i) {
  static const auto* cache = [] {
    auto* reps = new std::vector<std::shared_ptr<const Value::Rep>>;
    reps->reserve(static_cast<size_t>(kSmallIntMax - kSmallIntMin));
    for (int64_t v = kSmallIntMin; v < kSmallIntMax; ++v) {
      Value::Rep rep;
      rep.kind = ValueKind::kInt;
      rep.i = v;
      rep.hash = HashRep(rep);
      // Through the table, so ints interned before the cache was first
      // touched resolve to the same node.
      reps->push_back(Canonicalize(std::move(rep)));
    }
    return reps;
  }();
  return (*cache)[static_cast<size_t>(i - kSmallIntMin)];
}

size_t HashRep(const Value::Rep& rep) {
  size_t seed = static_cast<size_t>(rep.kind) * 0x9e3779b97f4a7c15ULL;
  switch (rep.kind) {
    case ValueKind::kNil:
      break;
    case ValueKind::kBool:
      HashCombine(&seed, rep.b ? 1u : 2u);
      break;
    case ValueKind::kInt:
      HashCombine(&seed, std::hash<int64_t>()(rep.i));
      break;
    case ValueKind::kReal:
      HashCombine(&seed, std::hash<double>()(rep.d));
      break;
    case ValueKind::kString:
      HashCombine(&seed, std::hash<std::string>()(rep.s));
      break;
    case ValueKind::kOid:
      HashCombine(&seed, std::hash<uint64_t>()(rep.oid.id));
      break;
    case ValueKind::kTuple:
      for (const auto& [label, v] : rep.fields) {
        HashCombine(&seed, std::hash<std::string>()(label));
        HashCombine(&seed, v.Hash());
      }
      break;
    case ValueKind::kSet:
    case ValueKind::kMultiset:
    case ValueKind::kSequence:
      for (const Value& v : rep.elems) HashCombine(&seed, v.Hash());
      break;
  }
  return seed;
}

}  // namespace

Value::Rep::~Rep() {
  if (interned) UnlinkInterned(this);
}

Value::Value() : rep_(NilRep()) {}

Value Value::Nil() { return Value(); }

Value Value::Bool(bool b) {
  // Pinned canonical nodes, same rationale (and same on-only gating) as
  // the small-int cache in Value::Int.
  if (g_intern_enabled.load(std::memory_order_relaxed)) {
    return Value(BoolRep(b));
  }
  Rep rep;
  rep.kind = ValueKind::kBool;
  rep.b = b;
  return Value(MakeRep(std::move(rep)));
}

Value Value::Int(int64_t i) {
  // The pinned small-int cache skips the table probe on the integers the
  // workloads churn on (node ids, counters). Only consulted while
  // interning is on: the off path must stay exactly the old fresh-rep
  // path, it is the differential reference.
  if (i >= kSmallIntMin && i < kSmallIntMax &&
      g_intern_enabled.load(std::memory_order_relaxed)) {
    return Value(SmallIntRep(i));
  }
  Rep rep;
  rep.kind = ValueKind::kInt;
  rep.i = i;
  return Value(MakeRep(std::move(rep)));
}

Value Value::Real(double d) {
  Rep rep;
  rep.kind = ValueKind::kReal;
  rep.d = d;
  return Value(MakeRep(std::move(rep)));
}

Value Value::String(std::string s) {
  Rep rep;
  rep.kind = ValueKind::kString;
  rep.s = std::move(s);
  return Value(MakeRep(std::move(rep)));
}

Value Value::MakeOid(Oid oid) {
  Rep rep;
  rep.kind = ValueKind::kOid;
  rep.oid = oid;
  return Value(MakeRep(std::move(rep)));
}

Value Value::MakeTuple(std::vector<std::pair<std::string, Value>> fields) {
  Rep rep;
  rep.kind = ValueKind::kTuple;
  rep.fields = std::move(fields);
  return Value(MakeRep(std::move(rep)));
}

Value Value::MakeSet(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  Rep rep;
  rep.kind = ValueKind::kSet;
  rep.elems = std::move(elements);
  return Value(MakeRep(std::move(rep)));
}

Value Value::MakeMultiset(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  Rep rep;
  rep.kind = ValueKind::kMultiset;
  rep.elems = std::move(elements);
  return Value(MakeRep(std::move(rep)));
}

Value Value::MakeSequence(std::vector<Value> elements) {
  Rep rep;
  rep.kind = ValueKind::kSequence;
  rep.elems = std::move(elements);
  return Value(MakeRep(std::move(rep)));
}

ValueKind Value::kind() const { return rep_->kind; }

bool Value::bool_value() const {
  assert(kind() == ValueKind::kBool);
  return rep_->b;
}

int64_t Value::int_value() const {
  assert(kind() == ValueKind::kInt);
  return rep_->i;
}

double Value::real_value() const {
  assert(kind() == ValueKind::kReal);
  return rep_->d;
}

const std::string& Value::string_value() const {
  assert(kind() == ValueKind::kString);
  return rep_->s;
}

Oid Value::oid_value() const {
  assert(kind() == ValueKind::kOid);
  return rep_->oid;
}

const std::vector<std::pair<std::string, Value>>& Value::tuple_fields()
    const {
  assert(kind() == ValueKind::kTuple);
  return rep_->fields;
}

Result<Value> Value::field(const std::string& label) const {
  if (kind() != ValueKind::kTuple) {
    return Status::TypeError(
        StrCat("field '", label, "' requested on ", ValueKindName(kind()),
               " value ", ToString()));
  }
  for (const auto& [l, v] : rep_->fields) {
    if (l == label) return v;
  }
  return Status::NotFound(
      StrCat("no field '", label, "' in tuple ", ToString()));
}

std::optional<Value> Value::FindField(const std::string& label) const {
  if (kind() != ValueKind::kTuple) return std::nullopt;
  for (const auto& [l, v] : rep_->fields) {
    if (l == label) return v;
  }
  return std::nullopt;
}

const Value* Value::FindFieldRef(const std::string& label) const {
  if (kind() != ValueKind::kTuple) return nullptr;
  for (const auto& f : rep_->fields) {
    if (f.first == label) return &f.second;
  }
  return nullptr;
}

size_t Value::size() const {
  if (kind() == ValueKind::kTuple) return rep_->fields.size();
  if (is_collection()) return rep_->elems.size();
  return 0;
}

const std::vector<Value>& Value::elements() const {
  assert(is_collection());
  return rep_->elems;
}

bool Value::Contains(const Value& element) const {
  return Count(element) > 0;
}

size_t Value::Count(const Value& element) const {
  if (!is_collection()) return 0;
  const auto& elems = rep_->elems;
  if (kind() == ValueKind::kSequence) {
    return static_cast<size_t>(
        std::count(elems.begin(), elems.end(), element));
  }
  // Sets and multisets are sorted.
  auto range = std::equal_range(elems.begin(), elems.end(), element);
  return static_cast<size_t>(range.second - range.first);
}

Result<Value> Value::Union(const Value& other) const {
  if (kind() != other.kind() || !is_collection()) {
    return Status::TypeError(
        StrCat("union of incompatible kinds: ", ValueKindName(kind()), ", ",
               ValueKindName(other.kind())));
  }
  std::vector<Value> merged = rep_->elems;
  merged.insert(merged.end(), other.rep_->elems.begin(),
                other.rep_->elems.end());
  switch (kind()) {
    case ValueKind::kSet: return MakeSet(std::move(merged));
    case ValueKind::kMultiset: return MakeMultiset(std::move(merged));
    case ValueKind::kSequence: return MakeSequence(std::move(merged));
    default: break;
  }
  return Status::TypeError("unreachable");
}

Result<Value> Value::Intersect(const Value& other) const {
  if (kind() != other.kind() ||
      (kind() != ValueKind::kSet && kind() != ValueKind::kMultiset)) {
    return Status::TypeError(
        StrCat("intersection of incompatible kinds: ",
               ValueKindName(kind()), ", ", ValueKindName(other.kind())));
  }
  std::vector<Value> out;
  std::set_intersection(rep_->elems.begin(), rep_->elems.end(),
                        other.rep_->elems.begin(), other.rep_->elems.end(),
                        std::back_inserter(out));
  return kind() == ValueKind::kSet ? MakeSet(std::move(out))
                                   : MakeMultiset(std::move(out));
}

Result<Value> Value::Difference(const Value& other) const {
  if (kind() != other.kind() ||
      (kind() != ValueKind::kSet && kind() != ValueKind::kMultiset)) {
    return Status::TypeError(
        StrCat("difference of incompatible kinds: ", ValueKindName(kind()),
               ", ", ValueKindName(other.kind())));
  }
  std::vector<Value> out;
  std::set_difference(rep_->elems.begin(), rep_->elems.end(),
                      other.rep_->elems.begin(), other.rep_->elems.end(),
                      std::back_inserter(out));
  return kind() == ValueKind::kSet ? MakeSet(std::move(out))
                                   : MakeMultiset(std::move(out));
}

Result<Value> Value::Insert(const Value& element) const {
  if (!is_collection()) {
    return Status::TypeError(
        StrCat("insert into non-collection ", ValueKindName(kind())));
  }
  std::vector<Value> elems = rep_->elems;
  elems.push_back(element);
  switch (kind()) {
    case ValueKind::kSet: return MakeSet(std::move(elems));
    case ValueKind::kMultiset: return MakeMultiset(std::move(elems));
    case ValueKind::kSequence: return MakeSequence(std::move(elems));
    default: break;
  }
  return Status::TypeError("unreachable");
}

Result<Value> Value::WithField(const std::string& label,
                               Value value) const {
  if (kind() != ValueKind::kTuple) {
    return Status::TypeError(
        StrCat("WithField on non-tuple ", ValueKindName(kind())));
  }
  auto fields = rep_->fields;
  for (auto& [l, v] : fields) {
    if (l == label) {
      v = std::move(value);
      return MakeTuple(std::move(fields));
    }
  }
  fields.emplace_back(label, std::move(value));
  return MakeTuple(std::move(fields));
}

int Value::Compare(const Value& other) const {
  if (rep_ == other.rep_) return 0;
  if (kind() != other.kind()) {
    return static_cast<int>(kind()) < static_cast<int>(other.kind()) ? -1
                                                                     : 1;
  }
  switch (kind()) {
    case ValueKind::kNil:
      return 0;
    case ValueKind::kBool:
      return (rep_->b == other.rep_->b) ? 0 : (rep_->b ? 1 : -1);
    case ValueKind::kInt:
      if (rep_->i != other.rep_->i) return rep_->i < other.rep_->i ? -1 : 1;
      return 0;
    case ValueKind::kReal:
      if (rep_->d != other.rep_->d) return rep_->d < other.rep_->d ? -1 : 1;
      return 0;
    case ValueKind::kString:
      return rep_->s.compare(other.rep_->s);
    case ValueKind::kOid:
      if (rep_->oid.id != other.rep_->oid.id) {
        return rep_->oid.id < other.rep_->oid.id ? -1 : 1;
      }
      return 0;
    case ValueKind::kTuple: {
      const auto& a = rep_->fields;
      const auto& b = other.rep_->fields;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int lc = a[i].first.compare(b[i].first);
        if (lc != 0) return lc;
        int vc = a[i].second.Compare(b[i].second);
        if (vc != 0) return vc;
      }
      if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
      return 0;
    }
    case ValueKind::kSet:
    case ValueKind::kMultiset:
    case ValueKind::kSequence: {
      const auto& a = rep_->elems;
      const auto& b = other.rep_->elems;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

size_t Value::Hash() const { return rep_->hash; }

bool Value::is_interned() const { return rep_->interned; }

bool Value::EqualSlow(const Value& other) const {
  // Reps differ (operator== checked). Two live interned reps are
  // distinct structures by table uniqueness (interned implies exact, so
  // structural identity is semantic identity).
  if (rep_->interned && other.rep_->interned) return false;
  if (rep_->hash != other.rep_->hash) return false;
  return Compare(other) == 0;
}

size_t Value::ApproxBytes() const {
  size_t bytes = sizeof(Rep);
  bytes += rep_->s.capacity();
  for (const auto& [label, child] : rep_->fields) {
    bytes += label.capacity() + sizeof(std::pair<std::string, Value>);
    bytes += child.ApproxBytes();
  }
  for (const Value& child : rep_->elems) {
    bytes += sizeof(Value) + child.ApproxBytes();
  }
  return bytes;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNil:
      return "nil";
    case ValueKind::kBool:
      return rep_->b ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(rep_->i);
    case ValueKind::kReal: {
      std::string s = StrFormat("%g", rep_->d);
      return s;
    }
    case ValueKind::kString:
      return StrCat("\"", rep_->s, "\"");
    case ValueKind::kOid:
      return StrCat("#", rep_->oid.id);
    case ValueKind::kTuple:
      return StrCat(
          "(",
          JoinMapped(rep_->fields, ", ",
                     [](const std::pair<std::string, Value>& f) {
                       return StrCat(f.first, ": ", f.second.ToString());
                     }),
          ")");
    case ValueKind::kSet:
      return StrCat("{",
                    JoinMapped(rep_->elems, ", ",
                               [](const Value& v) { return v.ToString(); }),
                    "}");
    case ValueKind::kMultiset:
      return StrCat("[",
                    JoinMapped(rep_->elems, ", ",
                               [](const Value& v) { return v.ToString(); }),
                    "]");
    case ValueKind::kSequence:
      return StrCat("<",
                    JoinMapped(rep_->elems, ", ",
                               [](const Value& v) { return v.ToString(); }),
                    ">");
  }
  return "?";
}

uint64_t MaxOidIn(const Value& value) {
  uint64_t max_id = 0;
  switch (value.kind()) {
    case ValueKind::kOid:
      max_id = value.oid_value().id;
      break;
    case ValueKind::kTuple:
      for (const auto& [label, v] : value.tuple_fields()) {
        (void)label;
        max_id = std::max(max_id, MaxOidIn(v));
      }
      break;
    case ValueKind::kSet:
    case ValueKind::kMultiset:
    case ValueKind::kSequence:
      for (const Value& v : value.elements()) {
        max_id = std::max(max_id, MaxOidIn(v));
      }
      break;
    default:
      break;
  }
  return max_id;
}

// ---- ValueInterner facade (declared in algres/interner.h) --------------

bool ValueInterner::enabled() {
  return g_intern_enabled.load(std::memory_order_relaxed);
}

bool ValueInterner::set_enabled(bool on) {
  return g_intern_enabled.exchange(on, std::memory_order_relaxed);
}

ValueInternerStats ValueInterner::stats() {
  ValueInternerStats s;
  s.enabled = g_intern_enabled.load(std::memory_order_relaxed);
  for (InternShard& shard : Table().shards) {
    // The shared lock excludes the unique-lock writers of the plain
    // counters; each shard's snapshot is internally consistent.
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.misses += shard.misses;
    s.released += shard.released;
    s.live_nodes += shard.live;
    s.resident_bytes += shard.resident_bytes;
  }
  return s;
}

std::string ValueInternerStats::ToString() const {
  return StrCat("interning=", enabled ? "on" : "off",
                " live_nodes=", live_nodes, " hits=", hits,
                " misses=", misses, " released=", released,
                " resident_bytes=", resident_bytes);
}

}  // namespace logres
