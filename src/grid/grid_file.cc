#include "src/grid/grid_file.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>
#include <string>

namespace declust::grid {

GridFile::GridFile(int num_dims, GridFileOptions options)
    : k_(num_dims),
      opts_(std::move(options)),
      scales_(static_cast<size_t>(num_dims)),
      dir_(num_dims) {
  assert(num_dims >= 1 && num_dims <= kMaxDims);
  assert(opts_.bucket_capacity >= 2);
  if (opts_.split_weights.empty()) {
    opts_.split_weights.assign(static_cast<size_t>(num_dims), 1.0);
  }
  assert(static_cast<int>(opts_.split_weights.size()) == num_dims);
  Bucket root;
  root.lo.assign(static_cast<size_t>(num_dims), 0);
  root.hi.assign(static_cast<size_t>(num_dims), 0);
  buckets_.push_back(std::move(root));
}

int64_t GridFile::CellIndexOf(const Value* point) const {
  int64_t idx = 0;
  for (size_t d = 0; d < static_cast<size_t>(k_); ++d) {
    idx = idx * scales_[d].num_slices() + scales_[d].SliceOf(point[d]);
  }
  return idx;
}

const GridDirectory& GridFile::directory() const {
  if (!slots_.empty()) {
    dir_ = slots_.Materialize();
    slots_ = SlotDirectory();
  }
  return dir_;
}

Status GridFile::Insert(std::vector<Value> point, RecordId rid) {
  return Insert(std::span<const Value>(point), rid);
}

Status GridFile::Insert(std::span<const Value> point, RecordId rid) {
  if (static_cast<int>(point.size()) != k_) {
    return Status::InvalidArgument("point arity != num_dims");
  }
  if (slots_.empty()) slots_ = SlotDirectory(dir_);
  std::array<int, kMaxDims> slice;
  for (size_t d = 0; d < static_cast<size_t>(k_); ++d) {
    slice[d] = scales_[d].SliceOf(point[d]);
  }
  const int b = slots_.bucket(slots_.Offset(slice.data()));
  Bucket& target = buckets_[static_cast<size_t>(b)];
  target.points.insert(target.points.end(), point.begin(), point.end());
  target.rids.push_back(rid);
  ++size_;

  int cur = b;
  while (buckets_[static_cast<size_t>(cur)].size() > opts_.bucket_capacity) {
    DECLUST_ASSIGN_OR_RETURN(const bool split, SplitBucket(cur));
    if (!split) break;  // degenerate: tolerate overflow
    // After a split the overflowing entries may sit in either half; re-check
    // both by locating the half that still overflows (if any).
    if (buckets_[static_cast<size_t>(cur)].size() <= opts_.bucket_capacity) {
      const int nb = static_cast<int>(buckets_.size()) - 1;
      if (buckets_[static_cast<size_t>(nb)].size() > opts_.bucket_capacity) {
        cur = nb;
      } else {
        break;
      }
    }
  }
  return Status::OK();
}

double GridFile::SplitDeficit(int dim) const {
  const double w =
      std::max(opts_.split_weights[static_cast<size_t>(dim)], 1e-9);
  return static_cast<double>(scales_[static_cast<size_t>(dim)].num_slices()) /
         w;
}

Result<bool> GridFile::SplitBucket(int b) {
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  // Prefer a region split (no directory growth). Among dimensions where the
  // bucket's box spans more than one slice, pick the most deserving by the
  // split policy.
  int region_dim = -1;
  double best = 0.0;
  for (int d = 0; d < k_; ++d) {
    const auto du = static_cast<size_t>(d);
    if (bucket.hi[du] > bucket.lo[du]) {
      const double deficit = SplitDeficit(d);
      if (region_dim == -1 || deficit < best) {
        region_dim = d;
        best = deficit;
      }
    }
  }
  if (region_dim >= 0) {
    RegionSplit(b, region_dim);
    return true;
  }
  DECLUST_ASSIGN_OR_RETURN(const int cut_dim, TryAddCut(b));
  if (cut_dim < 0) return false;
  // The box now spans two slices along cut_dim; finish with a region split.
  RegionSplit(b, cut_dim);
  return true;
}

void GridFile::RegionSplit(int b, int d) {
  const auto du = static_cast<size_t>(d);
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  assert(bucket.hi[du] > bucket.lo[du]);
  const int mid = (bucket.lo[du] + bucket.hi[du]) / 2;  // upper half starts mid+1

  Bucket upper;
  upper.lo = bucket.lo;
  upper.hi = bucket.hi;
  upper.lo[du] = mid + 1;
  bucket.hi[du] = mid;

  // Move entries whose slice along d falls in the upper half. Partitioning
  // entry indices with std::partition performs the same swaps it would on
  // the entries themselves, so both halves keep the entry order of a
  // partition over whole entries.
  const auto k = static_cast<size_t>(k_);
  std::vector<int> order(static_cast<size_t>(bucket.size()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  const auto pivot = std::partition(order.begin(), order.end(), [&](int i) {
    return scales_[du].SliceOf(
               bucket.points[static_cast<size_t>(i) * k + du]) <= mid;
  });
  Bucket lower;
  const auto gather = [&](auto first, auto last, Bucket* out) {
    out->points.reserve(static_cast<size_t>(last - first) * k);
    out->rids.reserve(static_cast<size_t>(last - first));
    for (auto it = first; it != last; ++it) {
      const auto i = static_cast<size_t>(*it);
      out->points.insert(out->points.end(), bucket.points.begin() + i * k,
                         bucket.points.begin() + (i + 1) * k);
      out->rids.push_back(bucket.rids[i]);
    }
  };
  gather(order.begin(), pivot, &lower);
  gather(pivot, order.end(), &upper);
  bucket.points = std::move(lower.points);
  bucket.rids = std::move(lower.rids);

  const int nb = static_cast<int>(buckets_.size());
  // Reassign directory cells in the upper box. NOTE: push_back may
  // invalidate `bucket`; capture the boxes first.
  const std::vector<int> up_lo = upper.lo;
  const std::vector<int> up_hi = upper.hi;
  buckets_.push_back(std::move(upper));

  std::vector<int> coords = up_lo;
  for (;;) {
    const int64_t offset = slots_.Offset(coords.data());
    assert(slots_.bucket(offset) == b);
    slots_.set_bucket(offset, nb);
    // Advance the odometer over the box.
    int j = k_ - 1;
    for (; j >= 0; --j) {
      const auto ju = static_cast<size_t>(j);
      if (coords[ju] < up_hi[ju]) {
        ++coords[ju];
        break;
      }
      coords[ju] = up_lo[ju];
    }
    if (j < 0) break;
  }
}

bool GridFile::CutFitsCap(int d) const {
  int64_t cells = 1;
  for (const LinearScale& scale : scales_) cells *= scale.num_slices();
  const int slices = scales_[static_cast<size_t>(d)].num_slices();
  return cells / slices * (slices + 1) <= opts_.max_cells;
}

bool GridFile::ScalesFrozen() const {
  for (int d = 0; d < k_; ++d) {
    if (CutFitsCap(d)) return false;
  }
  return true;
}

Result<int> GridFile::TryAddCut(int b) {
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  // Dimensions ordered by split deficit (most deserving first), ties in
  // dimension order: an insertion sort, which is what std::sort does on
  // this few elements.
  const auto k = static_cast<size_t>(k_);
  std::array<int, kMaxDims> order{};
  for (size_t i = 0; i < k; ++i) {
    const int d = static_cast<int>(i);
    size_t j = i;
    for (; j > 0 && SplitDeficit(d) < SplitDeficit(order[j - 1]); --j) {
      order[j] = order[j - 1];
    }
    order[j] = d;
  }

  // A dimension past the directory-size cap takes no cut. Once every one
  // is (the common case on correlated data, where overflow chaining takes
  // over) the scales are frozen.
  for (size_t rank = 0; rank < k; ++rank) {
    const int d = order[rank];
    const auto du = static_cast<size_t>(d);
    if (!CutFitsCap(d)) continue;
    std::vector<Value> vals;
    vals.reserve(bucket.rids.size());
    for (size_t i = du; i < bucket.points.size(); i += k) {
      vals.push_back(bucket.points[i]);
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front() == vals.back()) continue;  // degenerate along d
    Value cut;
    if (opts_.split_rule == GridFileOptions::SplitRule::kBuddyMidpoint) {
      // NHS84 buddy halving: midpoint of the slice interval, clamped to the
      // value range so the cut actually separates entries. Unbounded edge
      // slices fall back to the value-range midpoint.
      const int slice = bucket.lo[du];
      auto [slice_lo, slice_hi] = scales_[du].SliceBounds(slice);
      if (slice_lo == std::numeric_limits<Value>::min()) {
        slice_lo = opts_.domain_lo.empty() ? vals.front()
                                           : opts_.domain_lo[du];
      }
      if (slice_hi == std::numeric_limits<Value>::max()) {
        slice_hi = opts_.domain_hi.empty() ? vals.back() + 1
                                           : opts_.domain_hi[du];
      }
      // True buddy split: cut at the interval midpoint even when one half
      // ends up empty (the next round then splits the occupied half one
      // level deeper). Every cut is a node of the one dyadic tree over the
      // slice interval, so identically distributed dimensions materialize
      // identical (aligned) scales — the property that localizes queries on
      // correlated attributes to single cells (paper section 4).
      if (slice_hi - slice_lo < 2) continue;  // cannot halve further
      cut = slice_lo + (slice_hi - slice_lo) / 2;
    } else {
      // Median cut, adjusted upward so both sides are non-empty
      // (values >= cut go right).
      cut = vals[vals.size() / 2];
      if (cut == vals.front()) {
        cut = *std::upper_bound(vals.begin(), vals.end(), vals.front());
      }
    }
    // The cut lies strictly inside the bucket's slice, so the scale must
    // accept it and split exactly that slice; anything else would corrupt
    // the directory.
    auto slice = scales_[du].AddCut(cut);
    if (!slice.ok() || *slice != bucket.lo[du]) {
      return Status::Internal("grid file: cut " + std::to_string(cut) +
                              " does not split slice " +
                              std::to_string(bucket.lo[du]) + " of dimension " +
                              std::to_string(d));
    }
    const int s = *slice;
    slots_.DuplicateSlice(d, s);
    // Shift every bucket's box to the new slice numbering: slice s became
    // slices s and s+1.
    for (auto& bk : buckets_) {
      if (bk.lo[du] > s) ++bk.lo[du];
      if (bk.hi[du] >= s) ++bk.hi[du];
    }
    return d;
  }
  return -1;
}

std::vector<RecordId> GridFile::PointSearch(
    const std::vector<Value>& point) const {
  std::vector<RecordId> out;
  if (static_cast<int>(point.size()) != k_) return out;
  const Bucket& bk = buckets_[static_cast<size_t>(
      directory().bucket_at_index(CellIndexOf(point.data())))];
  const auto k = static_cast<size_t>(k_);
  for (size_t i = 0; i < bk.rids.size(); ++i) {
    if (std::equal(point.begin(), point.end(), bk.points.begin() + i * k)) {
      out.push_back(bk.rids[i]);
    }
  }
  return out;
}

std::vector<int64_t> GridFile::CellsOverlapping(
    const std::vector<Value>& lo, const std::vector<Value>& hi) const {
  std::vector<int64_t> out;
  ForEachCellOverlapping(lo, hi, [&out](int64_t cell) { out.push_back(cell); });
  return out;
}

std::vector<GridEntry> GridFile::EntriesInCell(int64_t cell_index) const {
  const Bucket& bk =
      buckets_[static_cast<size_t>(directory().bucket_at_index(cell_index))];
  const auto k = static_cast<size_t>(k_);
  std::vector<GridEntry> out;
  for (size_t i = 0; i < bk.rids.size(); ++i) {
    const Value* p = bk.points.data() + i * k;
    if (CellIndexOf(p) == cell_index) {
      out.push_back(GridEntry{std::vector<Value>(p, p + k), bk.rids[i]});
    }
  }
  return out;
}

std::vector<int64_t> GridFile::CellHistogram() const {
  int64_t cells = 1;
  for (const LinearScale& scale : scales_) cells *= scale.num_slices();
  std::vector<int64_t> hist(static_cast<size_t>(cells), 0);
  ForEachEntryCell(
      [&hist](RecordId, int64_t cell) { ++hist[static_cast<size_t>(cell)]; });
  return hist;
}

std::string GridFile::ShapeString() const {
  std::ostringstream os;
  for (int d = 0; d < k_; ++d) {
    if (d > 0) os << "x";
    os << scales_[static_cast<size_t>(d)].num_slices();
  }
  return os.str();
}

Status GridFile::Validate() const {
  const GridDirectory& dir = directory();
  // Directory shape matches the scales.
  for (int d = 0; d < k_; ++d) {
    if (dir.size(d) != scales_[static_cast<size_t>(d)].num_slices()) {
      return Status::Internal("directory size != scale slices");
    }
  }
  // Each cell maps to a bucket whose box contains it; each bucket's box
  // cells all map to it; entry points lie within their bucket's box.
  int64_t total = 0;
  for (int64_t c = 0; c < dir.num_cells(); ++c) {
    const int b = dir.bucket_at_index(c);
    if (b < 0 || b >= num_buckets()) return Status::Internal("bad bucket id");
    const auto coords = dir.CellCoords(c);
    const Bucket& bk = buckets_[static_cast<size_t>(b)];
    for (int d = 0; d < k_; ++d) {
      const auto du = static_cast<size_t>(d);
      if (coords[du] < bk.lo[du] || coords[du] > bk.hi[du]) {
        return Status::Internal("cell outside its bucket's box");
      }
    }
  }
  for (const auto& bk : buckets_) {
    total += bk.size();
    for (size_t i = 0; i < bk.points.size(); i += static_cast<size_t>(k_)) {
      for (int d = 0; d < k_; ++d) {
        const auto du = static_cast<size_t>(d);
        const int slice = scales_[du].SliceOf(bk.points[i + du]);
        if (slice < bk.lo[du] || slice > bk.hi[du]) {
          return Status::Internal("entry outside its bucket's box");
        }
      }
    }
  }
  if (total != size_) return Status::Internal("entry count mismatch");
  return Status::OK();
}

}  // namespace declust::grid
