// The grid file [NHS84]: a symmetric multi-key file structure. Buckets of
// bounded capacity are addressed through a K-dimensional directory refined
// by per-dimension linear scales.
//
// MAGIC uses the insertion phase of this structure to build its grid
// directory: bucket capacity = the fragment cardinality FC, and the split
// policy weights = the Fraction_Splits of equation 4. It inserts only until
// ScalesFrozen() and keeps the linear scales.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/result.h"
#include "src/grid/grid_directory.h"
#include "src/grid/linear_scale.h"
#include "src/storage/types.h"

namespace declust::grid {

using storage::RecordId;

/// \brief One stored (point, record) pair.
struct GridEntry {
  std::vector<Value> point;
  RecordId rid;
};

/// \brief Options controlling grid-file behaviour.
struct GridFileOptions {
  /// Maximum entries per bucket before a split is attempted.
  int bucket_capacity = 64;
  /// Relative split frequency per dimension (Fraction_Splits in MAGIC).
  /// Empty means equal weights.
  std::vector<double> split_weights;
  /// Hard cap on directory cells. Once adding a cut would exceed it, the
  /// overflowing bucket simply grows (overflow chaining), which bounds
  /// directory blow-up on pathological data such as perfectly correlated
  /// attributes (all points on the diagonal).
  int64_t max_cells = 1 << 17;
  /// How a new cut point is chosen within the overflowing slice.
  enum class SplitRule {
    /// NHS84 buddy-system halving: cut at the midpoint of the slice
    /// interval. Self-aligning across dimensions (identically distributed
    /// attributes produce identical scales), so correlated data stays in
    /// one cell per slice; near-equi-depth for uniform data.
    kBuddyMidpoint,
    /// Cut at the median of the overflowing bucket's values (equi-depth
    /// even for skewed data, but scales drift apart across dimensions).
    kMedian,
  };
  SplitRule split_rule = SplitRule::kBuddyMidpoint;
  /// Known key-space bounds per dimension (inclusive lo, exclusive hi).
  /// Buddy splitting anchors its halving on these, which keeps the scales
  /// of identically distributed dimensions aligned. Empty = derive from the
  /// data seen so far (weaker alignment).
  std::vector<Value> domain_lo;
  std::vector<Value> domain_hi;
};

/// \brief A K-dimensional grid file over integer attribute values.
///
/// Invariant: every bucket owns an axis-aligned box of directory cells
/// (the buddy-system property), and every cell in that box maps to the
/// bucket.
class GridFile {
 public:
  /// Largest supported dimensionality (the box walk keeps per-dimension
  /// state in fixed arrays).
  static constexpr int kMaxDims = 8;

  GridFile(int num_dims, GridFileOptions options);

  int num_dims() const { return k_; }
  const LinearScale& scale(int dim) const {
    return scales_[static_cast<size_t>(dim)];
  }
  /// The row-major directory. Inserts grow a slot-mapped form of it, in
  /// which a cut copies one slice; the first call after an insert
  /// materializes this view once. Call it once before sharing a grid file
  /// across threads.
  const GridDirectory& directory() const;
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  /// Inclusive slice box {lo, hi} of bucket `b`, per dimension.
  std::pair<std::vector<int>, std::vector<int>> BucketBox(int b) const {
    const Bucket& bk = buckets_[static_cast<size_t>(b)];
    return {bk.lo, bk.hi};
  }
  int64_t size() const { return size_; }

  /// True once no dimension can take another cut under `max_cells`. The
  /// cell count never shrinks, so a dimension that fails the cap fails it
  /// for good and the scales never thaw: every later insert only appends
  /// to a bucket or region-splits one, which moves no cut and so no
  /// point's cell.
  bool ScalesFrozen() const;

  /// Inserts one point (arity must equal num_dims). The point is copied
  /// into its bucket's contiguous storage, so a caller can reuse one buffer
  /// for every insert through the span overload.
  Status Insert(std::vector<Value> point, RecordId rid);
  Status Insert(std::span<const Value> point, RecordId rid);

  /// Record ids matching the point exactly.
  std::vector<RecordId> PointSearch(const std::vector<Value>& point) const;

  /// Linear index of the directory cell containing `point`; InvalidArgument
  /// unless the point has num_dims values.
  Result<int64_t> CellOfPoint(std::span<const Value> point) const {
    if (static_cast<int>(point.size()) != k_) {
      return Status::InvalidArgument("point arity != num_dims");
    }
    return CellIndexOf(point.data());
  }

  /// Linear cell indices overlapping the box [lo[d], hi[d]] (inclusive).
  std::vector<int64_t> CellsOverlapping(const std::vector<Value>& lo,
                                        const std::vector<Value>& hi) const;

  /// Calls fn(cell) for each linear cell index overlapping the box
  /// [lo[d], hi[d]] (inclusive), in CellsOverlapping's order (increasing).
  /// Allocation-free: one binary search of each linear scale, then an
  /// odometer over the slice ranges in fixed per-dimension arrays.
  template <typename Fn>
  void ForEachCellOverlapping(std::span<const Value> lo,
                              std::span<const Value> hi, Fn&& fn) const {
    const auto k = static_cast<size_t>(k_);
    std::array<int, kMaxDims> first{};
    std::array<int, kMaxDims> last{};
    for (size_t d = 0; d < k; ++d) {
      if (lo[d] > hi[d]) return;
      std::tie(first[d], last[d]) = scales_[d].SlicesOverlapping(lo[d], hi[d]);
    }
    std::array<int, kMaxDims> coords = first;
    for (;;) {
      int64_t cell = 0;
      for (size_t d = 0; d < k; ++d) {
        cell = cell * scales_[d].num_slices() + coords[d];
      }
      fn(cell);
      size_t j = k;
      while (j > 0 && coords[j - 1] == last[j - 1]) {
        --j;
        coords[j] = first[j];
      }
      if (j == 0) return;
      ++coords[j - 1];
    }
  }

  /// Calls fn(rid, cell) for every entry, with `cell` the linear index of
  /// its directory cell. Every entry lies in its bucket's box, so the
  /// entries of a one-cell bucket need no scale lookup.
  template <typename Fn>
  void ForEachEntryCell(Fn&& fn) const {
    const auto k = static_cast<size_t>(k_);
    for (const Bucket& bk : buckets_) {
      if (bk.lo == bk.hi) {
        int64_t cell = 0;
        for (size_t d = 0; d < k; ++d) {
          cell = cell * scales_[d].num_slices() + bk.lo[d];
        }
        for (RecordId rid : bk.rids) fn(rid, cell);
      } else {
        for (size_t i = 0; i < bk.rids.size(); ++i) {
          fn(bk.rids[i], CellIndexOf(bk.points.data() + i * k));
        }
      }
    }
  }

  /// Entries whose point lies exactly in the given cell.
  std::vector<GridEntry> EntriesInCell(int64_t cell_index) const;

  /// Number of entries in each cell (indexed by linear cell index).
  std::vector<int64_t> CellHistogram() const;

  /// "62x61"-style shape string.
  std::string ShapeString() const;

  /// Checks the buddy/ownership invariants; used by property tests.
  Status Validate() const;

 private:
  // Points are stored flat, with no allocation per point: entry i's point is
  // points[i * k, (i + 1) * k) and its record id rids[i].
  struct Bucket {
    std::vector<Value> points;
    std::vector<RecordId> rids;
    std::vector<int> lo;  // inclusive slice box, per dimension
    std::vector<int> hi;

    int size() const { return static_cast<int>(rids.size()); }
  };

  // Linear index of the directory cell containing the k values at `point`.
  int64_t CellIndexOf(const Value* point) const;
  // Splits bucket b once (region split or new cut). Returns false when the
  // bucket is degenerate (identical points) and cannot be split, and an
  // Internal error when the scale rejects the cut it was asked to add.
  Result<bool> SplitBucket(int b);
  // Region split along dim d (box must span > 1 slice there).
  void RegionSplit(int b, int d);
  // Whether a cut along d keeps the directory within max_cells: a cut
  // multiplies the cell count by (slices_d + 1) / slices_d.
  bool CutFitsCap(int d) const;
  // Attempts to add a cut through bucket b along some dimension; returns the
  // chosen dimension or -1.
  Result<int> TryAddCut(int b);
  // Ratio used to pick the next dimension to cut (lower = more deserving).
  double SplitDeficit(int dim) const;

  int k_;
  GridFileOptions opts_;
  std::vector<LinearScale> scales_;
  // Inserts address the slot-mapped form; directory() materializes dir_
  // from it and releases it, and the next insert re-seeds it from dir_.
  mutable SlotDirectory slots_;
  mutable GridDirectory dir_;
  std::vector<Bucket> buckets_;
  int64_t size_ = 0;
};

}  // namespace declust::grid
