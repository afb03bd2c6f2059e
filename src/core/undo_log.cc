#include "core/undo_log.h"

#include "core/instance.h"

namespace logres {

UndoRecord::UndoRecord(Kind kind, std::string name, Oid oid, Value value)
    : kind(kind), name(std::move(name)), oid(oid), value(std::move(value)) {}

UndoRecord::UndoRecord(std::unique_ptr<Instance> replaced)
    : kind(Kind::kInstanceReplaced), replaced(std::move(replaced)) {}

UndoRecord::UndoRecord(UndoRecord&&) noexcept = default;
UndoRecord& UndoRecord::operator=(UndoRecord&&) noexcept = default;
UndoRecord::~UndoRecord() = default;

void UndoLog::ClassKeyCreated(std::string cls) {
  records_.emplace_back(UndoRecord::Kind::kClassKeyCreated, std::move(cls),
                        Oid{}, Value());
}

void UndoLog::OidInserted(std::string cls, Oid oid) {
  records_.emplace_back(UndoRecord::Kind::kOidInserted, std::move(cls), oid,
                        Value());
}

void UndoLog::OidErased(std::string cls, Oid oid) {
  records_.emplace_back(UndoRecord::Kind::kOidErased, std::move(cls), oid,
                        Value());
}

void UndoLog::OValueCreated(Oid oid) {
  records_.emplace_back(UndoRecord::Kind::kOValueCreated, std::string(), oid,
                        Value());
}

void UndoLog::OValueSet(Oid oid, Value previous) {
  records_.emplace_back(UndoRecord::Kind::kOValueSet, std::string(), oid,
                        std::move(previous));
}

void UndoLog::OValueErased(Oid oid, Value previous) {
  records_.emplace_back(UndoRecord::Kind::kOValueErased, std::string(), oid,
                        std::move(previous));
}

void UndoLog::AssocKeyCreated(std::string assoc) {
  records_.emplace_back(UndoRecord::Kind::kAssocKeyCreated, std::move(assoc),
                        Oid{}, Value());
}

void UndoLog::TupleInserted(std::string assoc, Value tuple) {
  records_.emplace_back(UndoRecord::Kind::kTupleInserted, std::move(assoc),
                        Oid{}, std::move(tuple));
}

void UndoLog::TupleErased(std::string assoc, Value tuple) {
  records_.emplace_back(UndoRecord::Kind::kTupleErased, std::move(assoc),
                        Oid{}, std::move(tuple));
}

void UndoLog::InstanceReplaced(std::unique_ptr<Instance> previous) {
  records_.emplace_back(std::move(previous));
}

void TouchedItems::Add(const UndoLog& log) {
  for (size_t i = 0; i < log.size(); ++i) {
    const UndoRecord& rec = log[i];
    switch (rec.kind) {
      case UndoRecord::Kind::kClassKeyCreated:
        class_keys.insert(rec.name);
        break;
      case UndoRecord::Kind::kOidInserted:
      case UndoRecord::Kind::kOValueCreated:
      case UndoRecord::Kind::kOValueSet:
        oids.insert(rec.oid);
        break;
      case UndoRecord::Kind::kAssocKeyCreated:
        assoc_keys.insert(rec.name);
        break;
      case UndoRecord::Kind::kTupleInserted:
        tuples[rec.name].push_back(rec.value);
        break;
      case UndoRecord::Kind::kTupleErased:
        break;
      case UndoRecord::Kind::kOidErased:
      case UndoRecord::Kind::kOValueErased:
      case UndoRecord::Kind::kInstanceReplaced:
        erased = true;
        break;
    }
  }
}

void PreImageTracker::Sync() {
  for (; cursor_ < log_->size(); ++cursor_) {
    const UndoRecord& rec = (*log_)[cursor_];
    switch (rec.kind) {
      case UndoRecord::Kind::kClassKeyCreated:
        class_keys_.insert(rec.name);
        break;
      case UndoRecord::Kind::kOidInserted:
        members_.try_emplace({rec.name, rec.oid}, false);
        break;
      case UndoRecord::Kind::kOidErased:
        members_.try_emplace({rec.name, rec.oid}, true);
        break;
      case UndoRecord::Kind::kOValueCreated:
        ovalues_.try_emplace(rec.oid, std::nullopt);
        break;
      case UndoRecord::Kind::kOValueSet:
      case UndoRecord::Kind::kOValueErased:
        ovalues_.try_emplace(rec.oid, rec.value);
        break;
      case UndoRecord::Kind::kAssocKeyCreated:
        assoc_keys_.insert(rec.name);
        break;
      case UndoRecord::Kind::kTupleInserted:
        tuples_.try_emplace({rec.name, rec.value}, false);
        break;
      case UndoRecord::Kind::kTupleErased:
        tuples_.try_emplace({rec.name, rec.value}, true);
        break;
      case UndoRecord::Kind::kInstanceReplaced:
        // Not item-trackable; see the class comment. Callers in the
        // evaluator only ever log elementary records.
        break;
    }
  }
}

bool PreImageTracker::Member(const Instance& now, const std::string& cls,
                             Oid oid) {
  Sync();
  auto it = members_.find({cls, oid});
  if (it != members_.end()) return it->second;
  return now.HasObject(cls, oid);
}

std::optional<Value> PreImageTracker::OValue(const Instance& now, Oid oid) {
  Sync();
  auto it = ovalues_.find(oid);
  if (it != ovalues_.end()) return it->second;
  auto live = now.ovalues().find(oid);
  if (live == now.ovalues().end()) return std::nullopt;
  return live->second;
}

bool PreImageTracker::Tuple(const Instance& now, const std::string& assoc,
                            const Value& tuple) {
  Sync();
  auto it = tuples_.find({assoc, tuple});
  if (it != tuples_.end()) return it->second;
  return now.TuplesOf(assoc).count(tuple) > 0;
}

NetDiff PreImageTracker::Diff(const Instance& now) {
  Sync();
  NetDiff diff;
  diff.class_keys = class_keys_;
  diff.assoc_keys = assoc_keys_;
  for (const auto& [key, pre] : members_) {
    bool cur = now.HasObject(key.first, key.second);
    if (cur != pre) diff.members.emplace(key, cur);
  }
  for (const auto& [oid, pre] : ovalues_) {
    auto live = now.ovalues().find(oid);
    std::optional<Value> cur;
    if (live != now.ovalues().end()) cur = live->second;
    bool same = pre.has_value() == cur.has_value() &&
                (!pre.has_value() || *pre == *cur);
    if (!same) diff.ovalues.emplace(oid, std::move(cur));
  }
  for (const auto& [key, pre] : tuples_) {
    bool cur = now.TuplesOf(key.first).count(key.second) > 0;
    if (cur != pre) diff.tuples.emplace(key, cur);
  }
  return diff;
}

}  // namespace logres
