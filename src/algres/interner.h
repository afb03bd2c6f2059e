// The hash-consed value interner: one canonical node per structurally-
// distinct value.
//
// Set semantics makes the engines compare, hash, and deduplicate the same
// complex values millions of times per fixpoint. The interner applies the
// maximal-sharing discipline of the Nix evaluator (EvalState::normalForms):
// every Value constructed while interning is enabled routes through a
// process-wide table that owns exactly one refcounted node per
// bit-structurally-distinct value, so
//
//   * constructing a value that already exists allocates nothing — the
//     canonical node is returned (a table "hit");
//   * structural equality between canonical real-free values collapses to
//     a pointer comparison (see Value::operator=='s fast path);
//   * Compare() short-circuits on shared subtrees at every level, because
//     equal subtrees *are* the same node.
//
// Only *exact* values — those containing no real number anywhere — are
// interned. For exact values structural identity coincides with the
// total order's equivalence, so sharing a node can never change what a
// program computes or prints. Reals break the coincidence (0.0 and -0.0
// compare equal but print "0" and "-0"; NaNs compare unequal to
// themselves), so real-containing values always take the plain
// allocation path. This is what keeps dumps byte-identical with
// interning on or off.
//
// The table is process-wide, so it is sharded with a reader-writer lock
// per shard: evaluations of separate Databases on separate threads intern
// concurrently (DESIGN.md §9). Each shard is an open-addressed
// linear-probe array with backward-shift deletion. Nodes are refcounted
// by the Values holding them: when the last reference dies, Rep's
// destructor unlinks the node from its shard and the memory returns —
// the table holds weak references only (plus pinned small-integer and
// boolean caches). The table itself is deliberately leaked so
// destructors of static Values stay safe at process exit.
//
// Interning is controlled by a process-global flag (default on). The
// engines scope it per evaluation from EvalOptions::intern_values, with
// the off path retained as the differential reference. Disabling never
// invalidates existing canonical nodes; interned and plain values mix
// freely and compare correctly (the fast paths only fire when both sides
// are canonical).

#ifndef LOGRES_ALGRES_INTERNER_H_
#define LOGRES_ALGRES_INTERNER_H_

#include <cstdint>
#include <string>

namespace logres {

/// \brief Observability counters for the interner (shell `value stats`,
/// EvalStats, the byte governor). Summed across shards under shared
/// locks — cheap, but not a single atomic snapshot.
struct ValueInternerStats {
  bool enabled = false;
  /// Canonical nodes currently alive (interned constructions minus
  /// released nodes; includes the pinned small-integer/bool caches).
  uint64_t live_nodes = 0;
  /// Constructions that found an existing canonical node.
  uint64_t hits = 0;
  /// Constructions that inserted a new canonical node.
  uint64_t misses = 0;
  /// Canonical nodes whose last reference died (memory returned).
  uint64_t released = 0;
  /// Approximate bytes resident in live canonical nodes (shallow: each
  /// node's own payload, not its children — children are nodes too, so
  /// the sum is the deduplicated heap footprint).
  uint64_t resident_bytes = 0;

  std::string ToString() const;
};

/// \brief Static facade over the process-wide intern table (the table
/// lives in value.cc next to Value::Rep, which it stores).
class ValueInterner {
 public:
  /// \brief Whether Value construction currently routes through the
  /// interner.
  static bool enabled();

  /// \brief Flips the process-global interning flag; returns the previous
  /// value. Existing values are unaffected either way.
  static bool set_enabled(bool on);

  static ValueInternerStats stats();
};

/// \brief RAII interning mode for one evaluation: saves the global flag,
/// sets it, restores on destruction. The engines apply this from
/// EvalOptions::intern_values at every entry point.
class ScopedInternValues {
 public:
  explicit ScopedInternValues(bool on)
      : saved_(ValueInterner::set_enabled(on)) {}
  ~ScopedInternValues() { ValueInterner::set_enabled(saved_); }
  ScopedInternValues(const ScopedInternValues&) = delete;
  ScopedInternValues& operator=(const ScopedInternValues&) = delete;

 private:
  bool saved_;
};

}  // namespace logres

#endif  // LOGRES_ALGRES_INTERNER_H_
