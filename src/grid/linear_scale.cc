#include "src/grid/linear_scale.h"

#include <algorithm>

namespace declust::grid {

int LinearScale::SliceOf(Value v) const {
  // Number of cuts <= v, by a binary search whose only branch is the loop
  // count: every cut before `base` is <= v and every cut from base + len
  // on is > v, and each step moves base by a conditional add the compiler
  // lowers to a cmov.
  size_t len = cuts_.size();
  if (len == 0) return 0;
  const Value* base = cuts_.data();
  while (len > 1) {
    const size_t half = len / 2;
    base += (base[half] <= v) ? half : 0;
    len -= half;
  }
  return static_cast<int>(base - cuts_.data()) + (*base <= v ? 1 : 0);
}

Result<int> LinearScale::AddCut(Value cut) {
  const auto it = std::lower_bound(cuts_.begin(), cuts_.end(), cut);
  if (it != cuts_.end() && *it == cut) {
    return Status::AlreadyExists("cut already present");
  }
  const int slice = static_cast<int>(it - cuts_.begin());
  cuts_.insert(it, cut);
  return slice;
}

std::pair<Value, Value> LinearScale::SliceBounds(int slice) const {
  const Value lo = (slice == 0) ? std::numeric_limits<Value>::min()
                                : cuts_[static_cast<size_t>(slice - 1)];
  const Value hi = (slice == static_cast<int>(cuts_.size()))
                       ? std::numeric_limits<Value>::max()
                       : cuts_[static_cast<size_t>(slice)];
  return {lo, hi};
}

}  // namespace declust::grid
