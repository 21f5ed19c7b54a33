// K-dimensional grid directory: a dense array of bucket ids indexed by
// slice coordinates, and the slot-mapped form a grid file grows it in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace declust::grid {

/// \brief Dense K-dim array mapping cell coordinates to bucket ids,
/// row-major with dimension 0 slowest.
class GridDirectory {
 public:
  /// Starts as a single cell (one slice per dimension).
  explicit GridDirectory(int num_dims)
      : dims_(static_cast<std::size_t>(num_dims), 1), cells_(1, 0) {}
  /// A directory of shape `dims` over row-major `cells`.
  GridDirectory(std::vector<int> dims, std::vector<int> cells)
      : dims_(std::move(dims)), cells_(std::move(cells)) {}

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

 private:
  std::vector<int> dims_;
  std::vector<int> cells_;  // row-major, dimension 0 slowest
};

/// \brief A directory addressed through per-dimension slot maps: slice s of
/// dimension d lives at physical slot slots[d][s] of a row-major array
/// whose capacity per dimension grows by doubling. Splitting a slice
/// appends one physical slot and copies one slice into it, instead of
/// re-laying out every cell.
class SlotDirectory {
 public:
  /// An empty (released) directory.
  SlotDirectory() = default;
  /// The slot-mapped form of `dir`, with identity slot maps.
  explicit SlotDirectory(const GridDirectory& dir);

  bool empty() const { return cells_.empty(); }
  int size(int dim) const {
    return static_cast<int>(slots_[static_cast<std::size_t>(dim)].size());
  }
  int64_t num_cells() const;

  /// Physical offset of the cell at slice coordinates `slices`.
  int64_t Offset(const int* slices) const {
    int64_t offset = 0;
    for (std::size_t d = 0; d < slots_.size(); ++d) {
      offset += slots_[d][static_cast<std::size_t>(slices[d])] * stride_[d];
    }
    return offset;
  }
  int bucket(int64_t offset) const {
    return cells_[static_cast<std::size_t>(offset)];
  }
  void set_bucket(int64_t offset, int bucket) {
    cells_[static_cast<std::size_t>(offset)] = bucket;
  }

  /// Splits slice `slice` of dimension `dim` in two: the new slice slice+1
  /// starts as a copy of slice's bucket ids (the grid-file convention: both
  /// halves initially share the same buckets).
  void DuplicateSlice(int dim, int slice);

  /// The row-major directory of the same cells.
  GridDirectory Materialize() const;

 private:
  // Doubles the physical capacity of dimension `dim`.
  void Grow(int dim);

  std::vector<std::vector<int>> slots_;  // slots_[d][slice] = physical slot
  std::vector<int> capacity_;            // physical slots per dimension
  std::vector<int64_t> stride_;          // physical row-major strides
  std::vector<int> cells_;
};

}  // namespace declust::grid
