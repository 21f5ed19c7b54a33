// The grid file's insertion path as it stood before the slot-mapped
// directory: a verbatim copy in which every cut re-lays out the whole dense
// directory (DenseDirectory::DuplicateSlice). GridFile must build the same
// directory and bucket boxes (see grid_directory_test.cc and
// grid_property_test.cc).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/grid/grid_file.h"
#include "src/grid/linear_scale.h"

namespace declust::grid::reference {

/// \brief Dense K-dim array mapping cell coordinates to bucket ids, with
/// support for duplicating a slice when a scale gains a cut.
class DenseDirectory {
 public:
  /// Starts as a single cell (one slice per dimension).
  explicit DenseDirectory(int num_dims)
      : dims_(static_cast<std::size_t>(num_dims), 1), cells_(1, 0) {}

  int num_dims() const { return static_cast<int>(dims_.size()); }
  int size(int dim) const { return dims_[static_cast<std::size_t>(dim)]; }
  int64_t num_cells() const { return static_cast<int64_t>(cells_.size()); }
  const std::vector<int>& dims() const { return dims_; }

  /// Linear index of a cell.
  int64_t CellIndex(const std::vector<int>& coords) const {
    int64_t idx = 0;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      idx = idx * dims_[d] + coords[d];
    }
    return idx;
  }

  /// Coordinates of a linear cell index.
  std::vector<int> CellCoords(int64_t index) const {
    std::vector<int> coords(dims_.size());
    for (std::size_t d = dims_.size(); d-- > 0;) {
      coords[d] = static_cast<int>(index % dims_[d]);
      index /= dims_[d];
    }
    return coords;
  }

  int bucket_at(const std::vector<int>& coords) const {
    return cells_[static_cast<std::size_t>(CellIndex(coords))];
  }
  int bucket_at_index(int64_t index) const {
    return cells_[static_cast<std::size_t>(index)];
  }
  void set_bucket(const std::vector<int>& coords, int bucket) {
    cells_[static_cast<std::size_t>(CellIndex(coords))] = bucket;
  }
  void set_bucket_at_index(int64_t index, int bucket) {
    cells_[static_cast<std::size_t>(index)] = bucket;
  }

  /// Splits slice `slice` of dimension `dim` in two: the new slice slice+1
  /// starts as a copy of slice's bucket ids (the grid-file convention: both
  /// halves initially share the same buckets).
  void DuplicateSlice(int dim, int slice);

 private:
  std::vector<int> dims_;
  std::vector<int> cells_;  // row-major, dimension 0 slowest
};

inline void DenseDirectory::DuplicateSlice(int dim, int slice) {
  assert(dim >= 0 && dim < num_dims());
  assert(slice >= 0 && slice < size(dim));

  const size_t d = static_cast<size_t>(dim);
  // Strides in the old array.
  int64_t inner = 1;  // product of sizes of dims after `dim`
  for (size_t j = d + 1; j < dims_.size(); ++j) inner *= dims_[j];
  int64_t outer = 1;  // product of sizes of dims before `dim`
  for (size_t j = 0; j < d; ++j) outer *= dims_[j];

  const int old_size = dims_[d];
  const int new_size = old_size + 1;
  std::vector<int> next(static_cast<size_t>(outer * new_size * inner));

  for (int64_t o = 0; o < outer; ++o) {
    for (int s_new = 0; s_new < new_size; ++s_new) {
      const int s_old = (s_new <= slice) ? s_new : s_new - 1;
      const int64_t src = (o * old_size + s_old) * inner;
      const int64_t dst = (o * new_size + s_new) * inner;
      for (int64_t i = 0; i < inner; ++i) {
        next[static_cast<size_t>(dst + i)] =
            cells_[static_cast<size_t>(src + i)];
      }
    }
  }
  dims_[d] = new_size;
  cells_ = std::move(next);
}

/// \brief GridFile's insertion path over a DenseDirectory.
class DenseGridFile {
 public:
  DenseGridFile(int num_dims, GridFileOptions options);

  const LinearScale& scale(int dim) const {
    return scales_[static_cast<size_t>(dim)];
  }
  const DenseDirectory& directory() const { return dir_; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  std::pair<std::vector<int>, std::vector<int>> BucketBox(int b) const {
    const Bucket& bk = buckets_[static_cast<size_t>(b)];
    return {bk.lo, bk.hi};
  }

  Status Insert(std::span<const Value> point, RecordId rid);

 private:
  struct Bucket {
    std::vector<Value> points;
    std::vector<RecordId> rids;
    std::vector<int> lo;  // inclusive slice box, per dimension
    std::vector<int> hi;

    int size() const { return static_cast<int>(rids.size()); }
  };

  int64_t CellIndexOf(const Value* point) const;
  Result<bool> SplitBucket(int b);
  void RegionSplit(int b, int d);
  Result<int> TryAddCut(int b);
  double SplitDeficit(int dim) const;

  int k_;
  GridFileOptions opts_;
  std::vector<LinearScale> scales_;
  DenseDirectory dir_;
  std::vector<Bucket> buckets_;
  int64_t size_ = 0;
};

inline DenseGridFile::DenseGridFile(int num_dims, GridFileOptions options)
    : k_(num_dims),
      opts_(std::move(options)),
      scales_(static_cast<size_t>(num_dims)),
      dir_(num_dims) {
  assert(num_dims >= 1 && num_dims <= GridFile::kMaxDims);
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

inline int64_t DenseGridFile::CellIndexOf(const Value* point) const {
  int64_t idx = 0;
  for (int d = 0; d < k_; ++d) {
    idx = idx * dir_.size(d) +
          scales_[static_cast<size_t>(d)].SliceOf(point[d]);
  }
  return idx;
}

inline Status DenseGridFile::Insert(std::span<const Value> point,
                                   RecordId rid) {
  if (static_cast<int>(point.size()) != k_) {
    return Status::InvalidArgument("point arity != num_dims");
  }
  const int b = dir_.bucket_at_index(CellIndexOf(point.data()));
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

inline double DenseGridFile::SplitDeficit(int dim) const {
  const double w =
      std::max(opts_.split_weights[static_cast<size_t>(dim)], 1e-9);
  return static_cast<double>(scales_[static_cast<size_t>(dim)].num_slices()) /
         w;
}

inline Result<bool> DenseGridFile::SplitBucket(int b) {
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

inline void DenseGridFile::RegionSplit(int b, int d) {
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
    assert(dir_.bucket_at(coords) == b);
    dir_.set_bucket(coords, nb);
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

inline Result<int> DenseGridFile::TryAddCut(int b) {
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  // Respect the directory-size cap: adding a cut along d multiplies the cell
  // count by (slices_d + 1) / slices_d. Once every dimension is past the
  // cap — the common case on correlated data, where overflow chaining takes
  // over — no cut is possible.
  const auto fits_cap = [&](int d) {
    const int slices = scales_[static_cast<size_t>(d)].num_slices();
    return dir_.num_cells() / slices * (slices + 1) <= opts_.max_cells;
  };
  bool any_fits = false;
  for (int d = 0; d < k_ && !any_fits; ++d) any_fits = fits_cap(d);
  if (!any_fits) return -1;

  // Dimensions ordered by split deficit (most deserving first).
  std::vector<int> order(static_cast<size_t>(k_));
  for (int d = 0; d < k_; ++d) order[static_cast<size_t>(d)] = d;
  std::sort(order.begin(), order.end(),
            [&](int a, int c) { return SplitDeficit(a) < SplitDeficit(c); });

  const auto k = static_cast<size_t>(k_);
  for (int d : order) {
    const auto du = static_cast<size_t>(d);
    if (!fits_cap(d)) continue;
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
    dir_.DuplicateSlice(d, s);
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

}  // namespace declust::grid::reference
