#include "datalog/datalog.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace logres::datalog {

std::string Constant::ToString() const {
  if (is_int()) return std::to_string(int_value());
  return sym_value();
}

std::string Term::ToString() const {
  if (is_var()) return var_name();
  return constant().ToString();
}

std::string Literal::ToString() const {
  std::string out = negated ? "not " : "";
  out += predicate;
  out += "(";
  out += JoinMapped(terms, ", ", [](const Term& t) { return t.ToString(); });
  out += ")";
  return out;
}

std::string Rule::ToString() const {
  return StrCat(head.ToString(), " :- ",
                JoinMapped(body, ", ",
                           [](const Literal& l) { return l.ToString(); }),
                ".");
}

Status Program::AddRule(Rule rule) {
  if (rule.head.negated) {
    return Status::InvalidArgument(
        StrCat("flat Datalog forbids negated heads: ", rule.ToString()));
  }
  // Safety: every head variable and every variable in a negated body
  // literal must occur in some positive body literal.
  std::set<std::string> positive_vars;
  for (const Literal& lit : rule.body) {
    if (lit.negated) continue;
    for (const Term& t : lit.terms) {
      if (t.is_var()) positive_vars.insert(t.var_name());
    }
  }
  auto check = [&](const Literal& lit, const char* where) -> Status {
    for (const Term& t : lit.terms) {
      if (t.is_var() && !positive_vars.count(t.var_name())) {
        return Status::UnsafeRule(
            StrCat("variable ", t.var_name(), " in ", where,
                   " not bound by a positive body literal: ",
                   rule.ToString()));
      }
    }
    return Status::OK();
  };
  LOGRES_RETURN_NOT_OK(check(rule.head, "head"));
  for (const Literal& lit : rule.body) {
    if (lit.negated) LOGRES_RETURN_NOT_OK(check(lit, "negated literal"));
  }
  // Arity consistency.
  auto note_arity = [&](const Literal& lit) -> Status {
    auto [it, inserted] = arity_.emplace(lit.predicate, lit.terms.size());
    if (!inserted && it->second != lit.terms.size()) {
      return Status::InvalidArgument(
          StrCat("predicate ", lit.predicate, " used with arities ",
                 it->second, " and ", lit.terms.size()));
    }
    return Status::OK();
  };
  LOGRES_RETURN_NOT_OK(note_arity(rule.head));
  for (const Literal& lit : rule.body) LOGRES_RETURN_NOT_OK(note_arity(lit));
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Status Program::AddFact(const std::string& predicate, Fact fact) {
  auto [it, inserted] = arity_.emplace(predicate, fact.size());
  if (!inserted && it->second != fact.size()) {
    return Status::InvalidArgument(
        StrCat("predicate ", predicate, " used with arities ", it->second,
               " and ", fact.size()));
  }
  edb_[predicate].insert(std::move(fact));
  return Status::OK();
}

Result<std::map<std::string, int>> Stratify(const Program& program) {
  // Build the dependency graph: head depends on each body predicate,
  // marked "negative" when the body literal is negated.
  struct Edge {
    std::string from;
    bool negative;
  };
  std::map<std::string, std::vector<Edge>> deps;  // head -> body deps
  std::set<std::string> preds;
  for (const auto& [p, facts] : program.edb()) {
    (void)facts;
    preds.insert(p);
  }
  for (const Rule& rule : program.rules()) {
    preds.insert(rule.head.predicate);
    for (const Literal& lit : rule.body) {
      preds.insert(lit.predicate);
      deps[rule.head.predicate].push_back(Edge{lit.predicate, lit.negated});
    }
  }
  std::map<std::string, int> stratum;
  for (const auto& p : preds) stratum[p] = 0;
  // Bellman-Ford style relaxation: stratum(head) >= stratum(body),
  // strictly greater across negative edges. A stratum exceeding the number
  // of predicates implies a cycle through negation.
  const int limit = static_cast<int>(preds.size()) + 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [head, edges] : deps) {
      for (const Edge& e : edges) {
        int required = stratum[e.from] + (e.negative ? 1 : 0);
        if (stratum[head] < required) {
          stratum[head] = required;
          if (stratum[head] > limit) {
            return Status::Inconsistent(
                StrCat("program is not stratified: cycle through negation "
                       "involving predicate ",
                       head));
          }
          changed = true;
        }
      }
    }
  }
  return stratum;
}

namespace {

using Bindings = std::map<std::string, Constant>;

// Attempts to extend `bindings` so that `lit` (positive) matches `fact`.
// Names of newly bound variables are appended to `trail` on success, so
// the caller undoes them after exploring the extension (no map copy); on
// failure the bindings are rolled back here and the trail is untouched.
bool Match(const Literal& lit, const Fact& fact, Bindings* bindings,
           std::vector<std::string>* trail) {
  if (lit.terms.size() != fact.size()) return false;
  size_t mark = trail->size();
  for (size_t i = 0; i < lit.terms.size(); ++i) {
    const Term& t = lit.terms[i];
    bool ok;
    if (t.is_var()) {
      auto [it, inserted] = bindings->emplace(t.var_name(), fact[i]);
      if (inserted) trail->push_back(t.var_name());
      ok = inserted || it->second == fact[i];
    } else {
      ok = t.constant() == fact[i];
    }
    if (!ok) {
      while (trail->size() > mark) {
        bindings->erase(trail->back());
        trail->pop_back();
      }
      return false;
    }
  }
  return true;
}

Fact Instantiate(const Literal& lit, const Bindings& bindings) {
  Fact fact;
  fact.reserve(lit.terms.size());
  for (const Term& t : lit.terms) {
    if (t.is_var()) {
      fact.push_back(bindings.at(t.var_name()));
    } else {
      fact.push_back(t.constant());
    }
  }
  return fact;
}

const std::set<Fact>& FactsOf(const Database& db, const std::string& pred) {
  static const std::set<Fact> kEmpty;
  auto it = db.find(pred);
  return it == db.end() ? kEmpty : it->second;
}

// Lazily built hash indexes over `db`: (predicate, argument position) ->
// multimap from the constant at that position to the fact. Fact pointers
// stay valid under db insertion (std::set nodes are stable), but a stale
// index misses new facts — the evaluation loop invalidates a predicate's
// indexes whenever it inserts into that predicate. std::map node
// stability keeps the returned references valid while other keys are
// built.
class IndexCache {
 public:
  explicit IndexCache(const Database& db) : db_(db) {}

  using PositionIndex =
      std::unordered_multimap<Constant, const Fact*, ConstantHash>;

  const PositionIndex& At(const std::string& pred, size_t pos) {
    auto key = std::make_pair(pred, pos);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    PositionIndex index;
    for (const Fact& f : FactsOf(db_, pred)) {
      if (pos < f.size()) index.emplace(f[pos], &f);
    }
    return cache_.emplace(std::move(key), std::move(index)).first->second;
  }

  void Invalidate(const std::string& pred) {
    auto it = cache_.lower_bound({pred, 0});
    while (it != cache_.end() && it->first.first == pred) {
      it = cache_.erase(it);
    }
  }

 private:
  const Database& db_;
  std::map<std::pair<std::string, size_t>, PositionIndex> cache_;
};

// ScheduleLiterals' delta position when no literal reads the frontier.
constexpr size_t kNoDeltaPos = static_cast<size_t>(-1);

// Bound-first execution order for a rule body: negated literals run as
// soon as they are ground (each is then a single lookup that prunes the
// join early — rule safety makes them ground at the latest once every
// positive literal has run), and positive literals go most-bound-first
// with the delta literal always in front. Order cannot change the result:
// every literal still sees the same database, matching is exact constant
// equality, and all satisfying valuations are enumerated either way.
std::vector<size_t> ScheduleLiterals(const Rule& rule, size_t delta_pos) {
  const size_t n = rule.body.size();
  std::vector<bool> done(n, false);
  std::set<std::string> bound;
  std::vector<size_t> order;
  order.reserve(n);
  auto is_ground = [&](const Literal& lit) {
    for (const Term& t : lit.terms) {
      if (t.is_var() && !bound.count(t.var_name())) return false;
    }
    return true;
  };
  while (order.size() < n) {
    bool scheduled = false;
    for (size_t i = 0; i < n && !scheduled; ++i) {
      if (!done[i] && rule.body[i].negated && is_ground(rule.body[i])) {
        order.push_back(i);
        done[i] = true;
        scheduled = true;
      }
    }
    if (scheduled) continue;
    size_t best = n;
    int best_score = -1;
    for (size_t i = 0; i < n; ++i) {
      if (done[i] || rule.body[i].negated) continue;
      int score = (i == delta_pos) ? 1000 : 0;  // small frontier first
      for (const Term& t : rule.body[i].terms) {
        if (!t.is_var() || bound.count(t.var_name())) ++score;
      }
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == n) break;  // unreachable for safe rules
    order.push_back(best);
    done[best] = true;
    for (const Term& t : rule.body[best].terms) {
      if (t.is_var()) bound.insert(t.var_name());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!done[i]) order.push_back(i);
  }
  return order;
}

// Evaluates one rule against `db`; for semi-naive evaluation, at least one
// positive body literal must match within `delta` (pass nullptr for
// naive). Positive literals with a bound position probe `indexes` instead
// of scanning their whole relation. The governor's cancellation and
// deadline are polled every 1024 firings, so an interrupt lands inside one
// long join rather than at the next round.
Status FireRule(const Rule& rule, const Database& db, const Database* delta,
                IndexCache* indexes, const ResourceGovernor& governor,
                std::set<Fact>* out) {
  // Choose which positive literal is forced into the delta (all choices).
  std::vector<size_t> positive_positions;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (!rule.body[i].negated) positive_positions.push_back(i);
  }

  // Recursive join over body literals, in schedule order.
  std::vector<size_t> order;
  std::vector<std::string> trail;
  size_t fired = 0;
  Status interrupted;
  auto join = [&](auto&& self, size_t k, Bindings& bindings,
                  size_t delta_pos) -> void {
    if (!interrupted.ok()) return;
    if (k == order.size()) {
      if ((++fired & 1023u) == 0) interrupted = governor.CheckInterrupt();
      out->insert(Instantiate(rule.head, bindings));
      return;
    }
    size_t idx = order[k];
    const Literal& lit = rule.body[idx];
    if (lit.negated) {
      Fact probe = Instantiate(lit, bindings);
      if (!FactsOf(db, lit.predicate).count(probe)) {
        self(self, k + 1, bindings, delta_pos);
      }
      return;
    }
    bool from_delta = delta != nullptr && idx == delta_pos;
    auto try_fact = [&](const Fact& fact) {
      size_t mark = trail.size();
      if (Match(lit, fact, &bindings, &trail)) {
        self(self, k + 1, bindings, delta_pos);
      }
      while (trail.size() > mark) {
        bindings.erase(trail.back());
        trail.pop_back();
      }
    };
    if (!from_delta && indexes != nullptr) {
      // Probe the index of the first bound position, if any.
      for (size_t i = 0; i < lit.terms.size(); ++i) {
        const Term& t = lit.terms[i];
        const Constant* key = nullptr;
        if (!t.is_var()) {
          key = &t.constant();
        } else if (auto it = bindings.find(t.var_name());
                   it != bindings.end()) {
          key = &it->second;
        }
        if (key == nullptr) continue;
        auto [lo, hi] = indexes->At(lit.predicate, i).equal_range(*key);
        for (auto it = lo; it != hi && interrupted.ok(); ++it) {
          try_fact(*it->second);
        }
        return;
      }
    }
    const std::set<Fact>& source = from_delta
                                       ? FactsOf(*delta, lit.predicate)
                                       : FactsOf(db, lit.predicate);
    for (const Fact& fact : source) {
      if (!interrupted.ok()) return;
      try_fact(fact);
    }
  };

  if (delta == nullptr) {
    order = ScheduleLiterals(rule, kNoDeltaPos);
    Bindings bindings;
    join(join, 0, bindings, kNoDeltaPos);
  } else {
    // Semi-naive: union over choices of the delta literal, skipping
    // choices whose frontier relation is empty (the join is empty then).
    for (size_t pos : positive_positions) {
      if (FactsOf(*delta, rule.body[pos].predicate).empty()) continue;
      order = ScheduleLiterals(rule, pos);
      Bindings bindings;
      join(join, 0, bindings, pos);
    }
    if (positive_positions.empty()) {
      order = ScheduleLiterals(rule, kNoDeltaPos);
      Bindings bindings;
      join(join, 0, bindings, kNoDeltaPos);
    }
  }
  return interrupted;
}

size_t TotalSize(const Database& db) {
  size_t n = 0;
  for (const auto& [p, facts] : db) {
    (void)p;
    n += facts.size();
  }
  return n;
}

namespace {

// Approximate payload footprint; only computed when a byte budget is set.
size_t ApproxBytesOf(const Database& db) {
  size_t bytes = 0;
  for (const auto& [p, facts] : db) {
    bytes += p.capacity();
    for (const Fact& fact : facts) {
      bytes += 32 + fact.capacity() * sizeof(Constant);
      for (const Constant& c : fact) {
        if (!c.is_int()) bytes += c.sym_value().capacity();
      }
    }
  }
  return bytes;
}

Status CheckGrowth(const ResourceGovernor& governor, const Database& db) {
  LOGRES_RETURN_NOT_OK(governor.CheckFacts(TotalSize(db)));
  if (governor.wants_bytes()) {
    LOGRES_RETURN_NOT_OK(governor.CheckBytes(ApproxBytesOf(db)));
  }
  return Status::OK();
}

}  // namespace

}  // namespace

Result<Database> Evaluate(const Program& program, const EvalOptions& options) {
  LOGRES_ASSIGN_OR_RETURN(auto strata, Stratify(program));
  int max_stratum = 0;
  for (const auto& [p, s] : strata) {
    (void)p;
    max_stratum = std::max(max_stratum, s);
  }

  ResourceGovernor governor(options.budget);

  Database db = program.edb();
  IndexCache indexes(db);
  for (int s = 0; s <= max_stratum; ++s) {
    LOGRES_RETURN_NOT_OK(governor.CheckInterrupt());
    // Injection sites matching the eval/algres naming (datalog.stratum at
    // each stratum boundary, datalog.step at each fixpoint iteration), so
    // fault-injection tests cover the baseline engine too.
    LOGRES_FAILPOINT("datalog.stratum");
    std::vector<const Rule*> stratum_rules;
    for (const Rule& rule : program.rules()) {
      if (strata.at(rule.head.predicate) == s) stratum_rules.push_back(&rule);
    }
    if (stratum_rules.empty()) continue;

    if (options.strategy == EvalStrategy::kNaive) {
      for (;;) {
        LOGRES_RETURN_NOT_OK(governor.CheckStep());
        LOGRES_FAILPOINT("datalog.step");
        size_t before = TotalSize(db);
        for (const Rule* rule : stratum_rules) {
          std::set<Fact> produced;
          LOGRES_RETURN_NOT_OK(
              FireRule(*rule, db, nullptr, &indexes, governor, &produced));
          auto& target = db[rule->head.predicate];
          size_t had = target.size();
          target.insert(produced.begin(), produced.end());
          if (target.size() != had) indexes.Invalidate(rule->head.predicate);
        }
        if (TotalSize(db) == before) break;
        LOGRES_RETURN_NOT_OK(CheckGrowth(governor, db));
      }
    } else {
      // Semi-naive: the first round's frontier is everything currently
      // visible to the stratum — read straight from `db` instead of
      // copying the whole database; later rounds restrict joins to the
      // previous round's (small) delta. FireRule only reads the frontier,
      // so results and round counts are identical to the copying seed.
      Database delta;
      const Database* frontier = &db;
      for (;;) {
        LOGRES_RETURN_NOT_OK(governor.CheckStep());
        LOGRES_FAILPOINT("datalog.step");
        Database next_delta;
        for (const Rule* rule : stratum_rules) {
          std::set<Fact> produced;
          LOGRES_RETURN_NOT_OK(
              FireRule(*rule, db, frontier, &indexes, governor, &produced));
          for (const Fact& f : produced) {
            if (!db[rule->head.predicate].count(f)) {
              next_delta[rule->head.predicate].insert(f);
            }
          }
        }
        if (TotalSize(next_delta) == 0) break;
        for (auto& [p, facts] : next_delta) {
          db[p].insert(facts.begin(), facts.end());
          indexes.Invalidate(p);
        }
        LOGRES_RETURN_NOT_OK(CheckGrowth(governor, db));
        delta = std::move(next_delta);
        frontier = &delta;
      }
    }
  }
  return db;
}

Result<Database> Evaluate(const Program& program, EvalStrategy strategy) {
  EvalOptions options;
  options.strategy = strategy;
  return Evaluate(program, options);
}

Result<std::set<Fact>> Query(const Database& db, const Literal& query) {
  if (query.negated) {
    return Status::InvalidArgument("cannot query a negated literal");
  }
  std::set<Fact> out;
  std::vector<std::string> trail;
  for (const Fact& fact : FactsOf(db, query.predicate)) {
    Bindings bindings;
    trail.clear();
    if (Match(query, fact, &bindings, &trail)) out.insert(fact);
  }
  return out;
}

}  // namespace logres::datalog
