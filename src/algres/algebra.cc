#include "algres/algebra.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/string_util.h"

namespace logres::algres {

namespace {

// The joins' interrupt poll: every 1024th emitted row asks the governor.
Status PollEvery1024(const ResourceGovernor* governor, size_t* emitted) {
  if (governor == nullptr || (++*emitted & 1023u) != 0) return Status::OK();
  return governor->CheckInterrupt();
}

}  // namespace

Result<Relation> Select(const Relation& input, const RowPredicate& pred) {
  Relation out(input.columns());
  for (const Row& row : input) {
    LOGRES_ASSIGN_OR_RETURN(bool keep, pred(row));
    if (keep) {
      LOGRES_RETURN_NOT_OK(out.Insert(row).status());
    }
  }
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& columns) {
  std::vector<size_t> idx;
  idx.reserve(columns.size());
  for (const std::string& c : columns) {
    LOGRES_ASSIGN_OR_RETURN(size_t i, input.ColumnIndex(c));
    idx.push_back(i);
  }
  Relation out(columns);
  for (const Row& row : input) {
    Row projected;
    projected.reserve(idx.size());
    for (size_t i : idx) projected.push_back(row[i]);
    LOGRES_RETURN_NOT_OK(out.Insert(std::move(projected)).status());
  }
  return out;
}

Result<Relation> Rename(
    const Relation& input,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  std::vector<std::string> columns = input.columns();
  for (const auto& [from, to] : renames) {
    LOGRES_ASSIGN_OR_RETURN(size_t i, input.ColumnIndex(from));
    columns[i] = to;
  }
  std::set<std::string> seen;
  for (const auto& c : columns) {
    if (!seen.insert(c).second) {
      return Status::InvalidArgument(
          StrCat("rename produces duplicate column '", c, "'"));
    }
  }
  Relation out(std::move(columns));
  for (const Row& row : input) {
    LOGRES_RETURN_NOT_OK(out.Insert(row).status());
  }
  return out;
}

Result<Relation> Product(const Relation& left, const Relation& right,
                         const ResourceGovernor* governor) {
  std::vector<std::string> columns = left.columns();
  for (const std::string& c : right.columns()) {
    if (left.HasColumn(c)) {
      return Status::InvalidArgument(
          StrCat("product operands share column '", c, "'"));
    }
    columns.push_back(c);
  }
  Relation out(std::move(columns));
  size_t emitted = 0;
  for (const Row& l : left) {
    for (const Row& r : right) {
      LOGRES_RETURN_NOT_OK(PollEvery1024(governor, &emitted));
      Row row = l;
      row.insert(row.end(), r.begin(), r.end());
      LOGRES_RETURN_NOT_OK(out.Insert(std::move(row)).status());
    }
  }
  return out;
}

Result<Relation> NaturalJoin(const Relation& left, const Relation& right,
                             const ResourceGovernor* governor) {
  std::vector<std::pair<std::string, std::string>> on;
  for (const std::string& c : left.columns()) {
    if (right.HasColumn(c)) on.emplace_back(c, c);
  }
  if (on.empty()) {
    // Disjoint headers: natural join degenerates to the product.
    return Product(left, right, governor);
  }
  return EquiJoin(left, right, on, governor);
}

Result<Relation> EquiJoin(
    const Relation& left, const Relation& right,
    const std::vector<std::pair<std::string, std::string>>& on,
    const ResourceGovernor* governor) {
  std::vector<size_t> lkey, rkey;
  for (const auto& [lc, rc] : on) {
    LOGRES_ASSIGN_OR_RETURN(size_t li, left.ColumnIndex(lc));
    LOGRES_ASSIGN_OR_RETURN(size_t ri, right.ColumnIndex(rc));
    lkey.push_back(li);
    rkey.push_back(ri);
  }
  // Result columns: all of left + right minus right's join columns.
  std::set<size_t> dropped(rkey.begin(), rkey.end());
  std::vector<std::string> columns = left.columns();
  std::vector<size_t> rkeep;
  for (size_t i = 0; i < right.columns().size(); ++i) {
    if (dropped.count(i)) continue;
    const std::string& c = right.columns()[i];
    if (left.HasColumn(c)) {
      return Status::InvalidArgument(
          StrCat("join operands share non-join column '", c, "'"));
    }
    columns.push_back(c);
    rkeep.push_back(i);
  }
  // Build/probe hash join: the right side's secondary index on the join
  // key (cached on the relation, so repeated joins against an unchanged
  // build side — e.g. the edge relation across closure rounds — reuse it).
  const RelationIndex& index = right.IndexOn(rkey);
  Relation out(std::move(columns));
  const std::vector<Row>& lrows = left.rows();
  Status status = Status::OK();
  size_t emitted = 0;
  Row key;
  for (const Row& l : lrows) {
    key.clear();
    for (size_t i : lkey) key.push_back(l[i]);
    right.ForEachMatch(index, key, [&](const Row& r) {
      if (!status.ok()) return;
      status = PollEvery1024(governor, &emitted);
      if (!status.ok()) return;
      Row row = l;
      for (size_t i : rkeep) row.push_back(r[i]);
      status = out.Insert(std::move(row)).status();
    });
    LOGRES_RETURN_NOT_OK(status);
  }
  return out;
}

Result<Relation> ThetaJoin(const Relation& left, const Relation& right,
                           const RowPredicate& theta) {
  LOGRES_ASSIGN_OR_RETURN(Relation product, Product(left, right));
  return Select(product, theta);
}

namespace {

// Shared machinery for semi/anti-joins: indexes the right side on the
// shared columns and reports, per left row, whether a partner exists.
Result<Relation> FilterByPartner(const Relation& left, const Relation& right,
                                 bool keep_matched) {
  std::vector<size_t> lkey, rkey;
  for (size_t li = 0; li < left.columns().size(); ++li) {
    const std::string& c = left.columns()[li];
    if (right.HasColumn(c)) {
      LOGRES_ASSIGN_OR_RETURN(size_t ri, right.ColumnIndex(c));
      lkey.push_back(li);
      rkey.push_back(ri);
    }
  }
  if (lkey.empty()) {
    // No shared columns: every left row is matched iff right is nonempty.
    if (right.empty() == keep_matched) return Relation(left.columns());
    return left;
  }
  const RelationIndex& index = right.IndexOn(rkey);
  Relation out(left.columns());
  const std::vector<Row>& lrows = left.rows();
  Row key;
  for (const Row& l : lrows) {
    key.clear();
    for (size_t i : lkey) key.push_back(l[i]);
    bool matched = false;
    right.ForEachMatch(index, key, [&](const Row&) { matched = true; });
    if (matched == keep_matched) {
      LOGRES_RETURN_NOT_OK(out.Insert(l).status());
    }
  }
  return out;
}

}  // namespace

Result<Relation> SemiJoin(const Relation& left, const Relation& right) {
  return FilterByPartner(left, right, /*keep_matched=*/true);
}

Result<Relation> AntiJoin(const Relation& left, const Relation& right) {
  return FilterByPartner(left, right, /*keep_matched=*/false);
}

Result<Relation> Divide(const Relation& dividend, const Relation& divisor) {
  std::vector<std::string> quotient_columns;
  for (const std::string& c : dividend.columns()) {
    if (!divisor.HasColumn(c)) quotient_columns.push_back(c);
  }
  if (quotient_columns.size() == dividend.columns().size()) {
    return Status::InvalidArgument(
        "division requires the divisor's columns to occur in the dividend");
  }
  if (quotient_columns.empty()) {
    return Status::InvalidArgument(
        "division requires the dividend to have columns beyond the "
        "divisor's");
  }
  for (const std::string& c : divisor.columns()) {
    if (!dividend.HasColumn(c)) {
      return Status::InvalidArgument(
          StrCat("divisor column '", c, "' missing from the dividend"));
    }
  }
  // Classical formulation: candidates − projections of missing pairs.
  LOGRES_ASSIGN_OR_RETURN(Relation candidates,
                          Project(dividend, quotient_columns));
  LOGRES_ASSIGN_OR_RETURN(Relation all_pairs,
                          Product(candidates, divisor));
  // Align all_pairs' column order with the dividend before subtracting.
  LOGRES_ASSIGN_OR_RETURN(Relation dividend_aligned,
                          Project(dividend, all_pairs.columns()));
  LOGRES_ASSIGN_OR_RETURN(Relation missing,
                          Difference(all_pairs, dividend_aligned));
  LOGRES_ASSIGN_OR_RETURN(Relation disqualified,
                          Project(missing, quotient_columns));
  return Difference(candidates, disqualified);
}

namespace {

Status CheckSameHeader(const Relation& left, const Relation& right,
                       const char* op) {
  if (left.columns() != right.columns()) {
    return Status::InvalidArgument(
        StrCat(op, " operands have different headers: [",
               Join(left.columns(), ", "), "] vs [",
               Join(right.columns(), ", "), "]"));
  }
  return Status::OK();
}

}  // namespace

Result<Relation> Union(const Relation& left, const Relation& right) {
  LOGRES_RETURN_NOT_OK(CheckSameHeader(left, right, "union"));
  Relation out = left;
  for (const Row& row : right) {
    LOGRES_RETURN_NOT_OK(out.Insert(row).status());
  }
  return out;
}

Result<Relation> Intersect(const Relation& left, const Relation& right) {
  LOGRES_RETURN_NOT_OK(CheckSameHeader(left, right, "intersect"));
  Relation out(left.columns());
  for (const Row& row : left) {
    if (right.Contains(row)) {
      LOGRES_RETURN_NOT_OK(out.Insert(row).status());
    }
  }
  return out;
}

Result<Relation> Difference(const Relation& left, const Relation& right) {
  LOGRES_RETURN_NOT_OK(CheckSameHeader(left, right, "difference"));
  Relation out(left.columns());
  for (const Row& row : left) {
    if (!right.Contains(row)) {
      LOGRES_RETURN_NOT_OK(out.Insert(row).status());
    }
  }
  return out;
}

Result<Relation> Nest(const Relation& input,
                      const std::vector<std::string>& nested,
                      const std::string& as) {
  if (nested.empty()) {
    return Status::InvalidArgument("nest requires at least one column");
  }
  std::vector<size_t> nidx;
  for (const std::string& c : nested) {
    LOGRES_ASSIGN_OR_RETURN(size_t i, input.ColumnIndex(c));
    nidx.push_back(i);
  }
  std::set<size_t> nset(nidx.begin(), nidx.end());
  std::vector<std::string> group_cols;
  std::vector<size_t> gidx;
  for (size_t i = 0; i < input.columns().size(); ++i) {
    if (!nset.count(i)) {
      group_cols.push_back(input.columns()[i]);
      gidx.push_back(i);
    }
  }
  // Group rows; each group accumulates a set of nested payloads. A payload
  // is the bare cell for a single nested column, a labeled tuple otherwise.
  std::map<Row, std::vector<Value>> groups;
  for (const Row& row : input) {
    Row key;
    key.reserve(gidx.size());
    for (size_t i : gidx) key.push_back(row[i]);
    Value payload;
    if (nidx.size() == 1) {
      payload = row[nidx[0]];
    } else {
      std::vector<std::pair<std::string, Value>> fields;
      for (size_t k = 0; k < nidx.size(); ++k) {
        fields.emplace_back(nested[k], row[nidx[k]]);
      }
      payload = Value::MakeTuple(std::move(fields));
    }
    groups[std::move(key)].push_back(std::move(payload));
  }
  std::vector<std::string> out_cols = group_cols;
  out_cols.push_back(as);
  Relation out(std::move(out_cols));
  for (auto& [key, payloads] : groups) {
    Row row = key;
    row.push_back(Value::MakeSet(std::move(payloads)));
    LOGRES_RETURN_NOT_OK(out.Insert(std::move(row)).status());
  }
  return out;
}

Result<Relation> Unnest(const Relation& input, const std::string& column,
                        bool spread_tuple) {
  LOGRES_ASSIGN_OR_RETURN(size_t ci, input.ColumnIndex(column));

  // Determine the output header. With spread_tuple we need a witness
  // element to learn the tuple labels; an empty input column yields an
  // empty relation with the collection column simply dropped.
  std::vector<std::string> out_cols;
  bool spread_resolved = false;
  std::vector<std::string> spread_labels;
  for (const Row& row : input) {
    const Value& cell = row[ci];
    if (!cell.is_collection()) {
      return Status::TypeError(
          StrCat("unnest column '", column, "' holds non-collection ",
                 cell.ToString()));
    }
    if (spread_tuple && !cell.elements().empty()) {
      const Value& first = cell.elements().front();
      if (first.kind() != ValueKind::kTuple) {
        return Status::TypeError(
            StrCat("unnest with spread requires tuple elements, got ",
                   ValueKindName(first.kind())));
      }
      for (const auto& [label, v] : first.tuple_fields()) {
        (void)v;
        spread_labels.push_back(label);
      }
      spread_resolved = true;
      break;
    }
  }
  for (size_t i = 0; i < input.columns().size(); ++i) {
    if (i != ci) out_cols.push_back(input.columns()[i]);
  }
  if (spread_tuple && spread_resolved) {
    for (const std::string& l : spread_labels) out_cols.push_back(l);
  } else if (!spread_tuple) {
    out_cols.push_back(column);
  }
  Relation out(out_cols);
  for (const Row& row : input) {
    const Value& cell = row[ci];
    for (const Value& element : cell.elements()) {
      Row new_row;
      new_row.reserve(out_cols.size());
      for (size_t i = 0; i < row.size(); ++i) {
        if (i != ci) new_row.push_back(row[i]);
      }
      if (spread_tuple) {
        if (element.kind() != ValueKind::kTuple) {
          return Status::TypeError(
              StrCat("unnest with spread met non-tuple element ",
                     element.ToString()));
        }
        for (const std::string& label : spread_labels) {
          LOGRES_ASSIGN_OR_RETURN(Value v, element.field(label));
          new_row.push_back(std::move(v));
        }
      } else {
        new_row.push_back(element);
      }
      LOGRES_RETURN_NOT_OK(out.Insert(std::move(new_row)).status());
    }
  }
  return out;
}

Result<Relation> Extend(const Relation& input, const std::string& name,
                        const RowFunction& fn) {
  if (input.HasColumn(name)) {
    return Status::AlreadyExists(
        StrCat("extend column '", name, "' already exists"));
  }
  std::vector<std::string> columns = input.columns();
  columns.push_back(name);
  Relation out(std::move(columns));
  for (const Row& row : input) {
    LOGRES_ASSIGN_OR_RETURN(Value v, fn(row));
    Row new_row = row;
    new_row.push_back(std::move(v));
    LOGRES_RETURN_NOT_OK(out.Insert(std::move(new_row)).status());
  }
  return out;
}

Result<Relation> Aggregate(const Relation& input,
                           const std::vector<std::string>& group_by,
                           AggregateKind kind, const std::string& target,
                           const std::string& as) {
  std::vector<size_t> gidx;
  for (const std::string& c : group_by) {
    LOGRES_ASSIGN_OR_RETURN(size_t i, input.ColumnIndex(c));
    gidx.push_back(i);
  }
  size_t tidx = 0;
  if (kind != AggregateKind::kCount) {
    LOGRES_ASSIGN_OR_RETURN(tidx, input.ColumnIndex(target));
  }
  struct Acc {
    int64_t count = 0;
    double sum = 0;
    bool all_int = true;
    int64_t isum = 0;
    Value min, max;
    bool has_extreme = false;
  };
  std::map<Row, Acc> groups;
  for (const Row& row : input) {
    Row key;
    key.reserve(gidx.size());
    for (size_t i : gidx) key.push_back(row[i]);
    Acc& acc = groups[std::move(key)];
    acc.count++;
    if (kind == AggregateKind::kCount) continue;
    const Value& v = row[tidx];
    if (kind == AggregateKind::kSum || kind == AggregateKind::kAvg) {
      if (v.kind() == ValueKind::kInt) {
        acc.isum += v.int_value();
        acc.sum += static_cast<double>(v.int_value());
      } else if (v.kind() == ValueKind::kReal) {
        acc.all_int = false;
        acc.sum += v.real_value();
      } else {
        return Status::TypeError(
            StrCat("aggregate over non-numeric value ", v.ToString()));
      }
    }
    if (!acc.has_extreme) {
      acc.min = v;
      acc.max = v;
      acc.has_extreme = true;
    } else {
      if (v < acc.min) acc.min = v;
      if (acc.max < v) acc.max = v;
    }
  }
  std::vector<std::string> columns = group_by;
  columns.push_back(as);
  Relation out(std::move(columns));
  for (const auto& [key, acc] : groups) {
    Value result;
    switch (kind) {
      case AggregateKind::kCount:
        result = Value::Int(acc.count);
        break;
      case AggregateKind::kSum:
        result = acc.all_int ? Value::Int(acc.isum) : Value::Real(acc.sum);
        break;
      case AggregateKind::kAvg:
        result = Value::Real(acc.sum / static_cast<double>(acc.count));
        break;
      case AggregateKind::kMin:
        result = acc.min;
        break;
      case AggregateKind::kMax:
        result = acc.max;
        break;
    }
    Row row = key;
    row.push_back(std::move(result));
    LOGRES_RETURN_NOT_OK(out.Insert(std::move(row)).status());
  }
  return out;
}

Result<Relation> Closure(const Relation& seed, const ClosureStep& step,
                         const ClosureOptions& options) {
  Relation current = seed;
  for (size_t i = 0; options.max_steps == 0 || i < options.max_steps; ++i) {
    LOGRES_ASSIGN_OR_RETURN(Relation produced, step(current));
    Relation next;
    if (options.semantics == ClosureSemantics::kInflationary) {
      LOGRES_ASSIGN_OR_RETURN(next, Union(current, produced));
    } else {
      next = std::move(produced);
    }
    if (next == current) return current;
    current = std::move(next);
  }
  return Status::Divergence(
      StrCat("closure did not converge within ", options.max_steps,
             " steps"));
}

Result<Relation> SemiNaiveClosure(const Relation& seed,
                                  const ClosureStep& delta_step,
                                  const ClosureOptions& options) {
  Relation total = seed;
  Relation delta = seed;
  for (size_t i = 0; options.max_steps == 0 || i < options.max_steps; ++i) {
    if (delta.empty()) return total;
    LOGRES_ASSIGN_OR_RETURN(Relation produced, delta_step(delta));
    Relation next_delta(total.columns());
    for (const Row& row : produced) {
      if (!total.Contains(row)) {
        LOGRES_RETURN_NOT_OK(next_delta.Insert(row).status());
      }
    }
    // Grow the accumulator in place — a Union would copy it every round.
    for (const Row& row : next_delta) {
      LOGRES_RETURN_NOT_OK(total.Insert(row).status());
    }
    delta = std::move(next_delta);
  }
  return Status::Divergence(
      StrCat("semi-naive closure did not converge within ",
             options.max_steps, " steps"));
}

}  // namespace logres::algres
