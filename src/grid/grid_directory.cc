#include "src/grid/grid_directory.h"

#include <array>
#include <cassert>
#include <numeric>

namespace declust::grid {

namespace {

constexpr std::size_t kMaxDims = 8;

using Coords = std::array<int, kMaxDims>;

// Calls fn(c) for every c with c[e] in [0, slots[e].size()) for each
// dimension e other than `skip` (-1 = none), in row-major order; c[skip]
// stays 0. The slice coordinates and the physical slots in use along a
// dimension have the same range.
template <typename Fn>
void ForEachCoords(const std::vector<std::vector<int>>& slots, int skip,
                   Fn&& fn) {
  const int k = static_cast<int>(slots.size());
  Coords c{};
  for (;;) {
    fn(c);
    int j = k - 1;
    for (; j >= 0; --j) {
      const auto ju = static_cast<std::size_t>(j);
      if (j == skip) continue;
      if (++c[ju] < static_cast<int>(slots[ju].size())) break;
      c[ju] = 0;
    }
    if (j < 0) return;
  }
}

int64_t OffsetOf(const Coords& slot, const std::vector<int64_t>& stride) {
  int64_t offset = 0;
  for (std::size_t d = 0; d < stride.size(); ++d) {
    offset += slot[d] * stride[d];
  }
  return offset;
}

std::vector<int64_t> RowMajorStrides(const std::vector<int>& extent) {
  std::vector<int64_t> stride(extent.size(), 1);
  for (std::size_t d = extent.size(); d-- > 1;) {
    stride[d - 1] = stride[d] * extent[d];
  }
  return stride;
}

}  // namespace

SlotDirectory::SlotDirectory(const GridDirectory& dir)
    : slots_(static_cast<std::size_t>(dir.num_dims())),
      capacity_(dir.dims()),
      stride_(RowMajorStrides(dir.dims())),
      cells_(static_cast<std::size_t>(dir.num_cells())) {
  assert(slots_.size() <= kMaxDims);
  for (std::size_t d = 0; d < slots_.size(); ++d) {
    slots_[d].resize(static_cast<std::size_t>(capacity_[d]));
    std::iota(slots_[d].begin(), slots_[d].end(), 0);
  }
  for (int64_t c = 0; c < dir.num_cells(); ++c) {
    cells_[static_cast<std::size_t>(c)] = dir.bucket_at_index(c);
  }
}

int64_t SlotDirectory::num_cells() const {
  int64_t n = 1;
  for (const auto& s : slots_) n *= static_cast<int64_t>(s.size());
  return n;
}

void SlotDirectory::Grow(int dim) {
  std::vector<int> capacity = capacity_;
  capacity[static_cast<std::size_t>(dim)] *= 2;
  const std::vector<int64_t> stride = RowMajorStrides(capacity);
  std::vector<int> cells(static_cast<std::size_t>(
      stride[0] * static_cast<int64_t>(capacity[0])));
  ForEachCoords(slots_, -1, [&](const Coords& slot) {
    cells[static_cast<std::size_t>(OffsetOf(slot, stride))] =
        cells_[static_cast<std::size_t>(OffsetOf(slot, stride_))];
  });
  capacity_ = std::move(capacity);
  stride_ = stride;
  cells_ = std::move(cells);
}

void SlotDirectory::DuplicateSlice(int dim, int slice) {
  assert(dim >= 0 && dim < static_cast<int>(slots_.size()));
  assert(slice >= 0 && slice < size(dim));
  const auto d = static_cast<std::size_t>(dim);
  if (size(dim) == capacity_[d]) Grow(dim);
  // Physical slots in use along d are exactly 0..size-1, so the next one
  // is free.
  const int from = slots_[d][static_cast<std::size_t>(slice)];
  const int to = size(dim);
  const int64_t shift = (to - from) * stride_[d];
  const int64_t base = from * stride_[d];
  ForEachCoords(slots_, dim, [&](const Coords& slot) {
    const auto src = static_cast<std::size_t>(base + OffsetOf(slot, stride_));
    cells_[src + static_cast<std::size_t>(shift)] = cells_[src];
  });
  slots_[d].insert(slots_[d].begin() + slice + 1, to);
}

GridDirectory SlotDirectory::Materialize() const {
  std::vector<int> dims(slots_.size());
  for (std::size_t d = 0; d < slots_.size(); ++d) {
    dims[d] = static_cast<int>(slots_[d].size());
  }
  std::vector<int> cells;
  cells.reserve(static_cast<std::size_t>(num_cells()));
  ForEachCoords(slots_, -1, [&](const Coords& slice) {
    int64_t offset = 0;
    for (std::size_t d = 0; d < slots_.size(); ++d) {
      offset += slots_[d][static_cast<std::size_t>(slice[d])] * stride_[d];
    }
    cells.push_back(cells_[static_cast<std::size_t>(offset)]);
  });
  return GridDirectory(std::move(dims), std::move(cells));
}

}  // namespace declust::grid
