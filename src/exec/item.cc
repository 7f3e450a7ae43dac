#include "exec/item.h"

#include <algorithm>
#include <unordered_set>

#include "base/limits.h"
#include "base/metrics.h"

namespace xqp {

Sequence Atomize(const Sequence& seq) {
  Sequence out;
  out.reserve(seq.size());
  for (const Item& item : seq) out.push_back(Item(item.Atomized()));
  return out;
}

Result<bool> EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq[0].IsNode()) return true;  // Node-first sequences are true.
  if (seq.size() != 1) {
    return Status::TypeError(
        "effective boolean value of a multi-item atomic sequence");
  }
  const AtomicValue& v = seq[0].AsAtomic();
  switch (v.type()) {
    case XsType::kBoolean:
      return v.AsBool();
    case XsType::kString:
    case XsType::kUntypedAtomic:
    case XsType::kAnyUri:
      return !v.AsString().empty();
    case XsType::kInteger:
      return v.AsInt() != 0;
    case XsType::kDecimal:
    case XsType::kDouble: {
      double d = v.AsRawDouble();
      return !(d == 0.0 || d != d);  // false for 0 and NaN.
    }
    case XsType::kQName:
      return Status::TypeError("effective boolean value of xs:QName");
  }
  return Status::TypeError("effective boolean value: unsupported type");
}

Result<bool> PredicateKeeps(const Sequence& value, int64_t position) {
  if (value.size() == 1 && value[0].IsAtomic() &&
      value[0].AsAtomic().IsNumeric()) {
    return value[0].AsAtomic().NumericAsDouble() ==
           static_cast<double>(position);
  }
  return EffectiveBooleanValue(value);
}

Status CheckNodesOnly(const Sequence& seq) {
  for (const Item& item : seq) {
    if (!item.IsNode()) {
      return Status::TypeError(
          "path/union result contains an atomic value; expected nodes only");
    }
  }
  return Status::OK();
}

Status SortDocOrderDistinct(Sequence* seq) {
  // ddo sorts run at materialization points over arbitrarily large
  // sequences; check the governing query before committing to the work.
  if (ResourceGovernor* governor = CurrentGovernor()) {
    XQP_RETURN_NOT_OK(governor->Poll());
  }
  XQP_RETURN_NOT_OK(CheckNodesOnly(*seq));
  if (metrics::Enabled()) {
    static metrics::Counter* sorts =
        metrics::MetricsRegistry::Global().counter("sort.ddo.sorts");
    static metrics::Counter* sorted_items =
        metrics::MetricsRegistry::Global().counter("sort.ddo.items");
    sorts->Increment();
    sorted_items->Add(seq->size());
  }
  std::stable_sort(seq->begin(), seq->end(),
                   [](const Item& a, const Item& b) {
                     return Node::CompareDocOrder(a.AsNode(), b.AsNode()) < 0;
                   });
  seq->erase(std::unique(seq->begin(), seq->end(),
                         [](const Item& a, const Item& b) {
                           return a.AsNode().SameNode(b.AsNode());
                         }),
             seq->end());
  return Status::OK();
}

Status DedupNodesPreservingOrder(Sequence* seq) {
  std::unordered_set<uint64_t> seen;
  Sequence out;
  out.reserve(seq->size());
  for (Item& item : *seq) {
    if (!item.IsNode()) {
      return Status::TypeError("path result contains an atomic value");
    }
    uint64_t key = item.AsNode().doc().id() * 0x100000000ULL +
                   item.AsNode().index();
    if (seen.insert(key).second) out.push_back(std::move(item));
  }
  *seq = std::move(out);
  return Status::OK();
}

bool SequencesIdentical(const Sequence& a, const Sequence& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].IsNode() != b[i].IsNode()) return false;
    if (a[i].IsNode()) {
      if (!a[i].AsNode().SameNode(b[i].AsNode())) return false;
    } else {
      const AtomicValue& x = a[i].AsAtomic();
      const AtomicValue& y = b[i].AsAtomic();
      if (x.type() != y.type() || !x.DeepEquals(y)) return false;
    }
  }
  return true;
}

}  // namespace xqp
