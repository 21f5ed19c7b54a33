#include "src/decluster/magic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <tuple>

#include "src/grid/grid_file.h"

namespace declust::decluster {

Result<std::unique_ptr<MagicPartitioning>> MagicPartitioning::Create(
    const storage::Relation& relation,
    const std::vector<storage::AttrId>& schema_attrs,
    const workload::Workload& workload, int num_nodes, MagicOptions options) {
  const int k = static_cast<int>(schema_attrs.size());
  if (k < 1) return Status::InvalidArgument("no partitioning attributes");
  if (k > grid::GridFile::kMaxDims) {
    return Status::InvalidArgument("more than " +
                                   std::to_string(grid::GridFile::kMaxDims) +
                                   " partitioning attributes");
  }
  if (num_nodes < 1) return Status::InvalidArgument("num_nodes < 1");
  if (relation.cardinality() == 0) {
    return Status::FailedPrecondition("empty relation");
  }
  for (storage::AttrId a : schema_attrs) {
    if (a < 0 || a >= relation.schema().num_attributes()) {
      return Status::OutOfRange("partitioning attribute out of range");
    }
  }

  auto part = std::unique_ptr<MagicPartitioning>(new MagicPartitioning());
  part->options_ = options;

  // Planning: equations 1-4.
  DECLUST_ASSIGN_OR_RETURN(
      part->plan_, ComputeMagicPlan(workload, relation.cardinality(),
                                    options.cost_model, k));

  // Grid-file construction: bucket capacity FC, split policy from
  // Fraction_Splits.
  grid::GridFileOptions gopts;
  gopts.bucket_capacity =
      static_cast<int>(std::max<int64_t>(2, part->plan_.fragment_cardinality));
  gopts.split_weights = part->plan_.fraction_splits;
  gopts.max_cells = std::max<int64_t>(
      4096, options.max_grid_cells_factor * relation.cardinality() /
                std::max<int64_t>(1, part->plan_.fragment_cardinality));
  // Anchor the buddy splits on the actual attribute domains so that
  // identically distributed attributes get aligned scales.
  for (storage::AttrId a : schema_attrs) {
    DECLUST_ASSIGN_OR_RETURN(auto range, relation.AttrRange(a));
    gopts.domain_lo.push_back(range.first);
    gopts.domain_hi.push_back(range.second + 1);
  }
  part->domain_lo_ = gopts.domain_lo;
  part->domain_hi_ = gopts.domain_hi;

  // Grow the grid file only until its scales freeze. Past that point an
  // insert only appends to a bucket or region-splits one, which moves no
  // cut, so no tuple's cell in the final directory depends on it. On
  // correlated data the directory-size cap freezes the scales after a few
  // percent of the tuples; uncorrelated data mostly stays under the cap
  // and inserts them all. The bucket store is dropped with the grid file:
  // only the scales are kept.
  std::vector<Value> point(static_cast<size_t>(k));
  const auto load_point = [&](RecordId rid) {
    for (int d = 0; d < k; ++d) {
      point[static_cast<size_t>(d)] =
          relation.value(rid, schema_attrs[static_cast<size_t>(d)]);
    }
  };
  const int64_t card = relation.cardinality();
  {
    grid::GridFile grid(k, gopts);
    for (int64_t i = 0; i < card && !grid.ScalesFrozen(); ++i) {
      const auto rid = static_cast<RecordId>(i);
      load_point(rid);
      DECLUST_RETURN_NOT_OK(grid.Insert(std::span<const Value>(point), rid));
    }
    for (int d = 0; d < k; ++d) {
      part->scales_.push_back(grid.scale(d));
      part->dims_.push_back(grid.scale(d).num_slices());
    }
  }
  int64_t num_cells = 1;
  for (int n : part->dims_) num_cells *= n;
  if (num_cells > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "MAGIC grid directory of " + std::to_string(num_cells) +
        " cells does not fit an int cell index");
  }

  // Every tuple's cell in the final directory, computed once from the
  // scales: it gives the per-cell weights and, mapped through the
  // assignment below, becomes the tuple's home in place.
  std::vector<int> home(static_cast<size_t>(card));
  part->cell_weights_.assign(static_cast<size_t>(num_cells), 0);
  for (int64_t i = 0; i < card; ++i) {
    load_point(static_cast<RecordId>(i));
    const int64_t cell = part->CellOf(point.data());
    home[static_cast<size_t>(i)] = static_cast<int>(cell);
    ++part->cell_weights_[static_cast<size_t>(cell)];
  }

  // Routing index: the non-empty cells of every slice, per dimension.
  const std::vector<int>& dims = part->dims_;
  part->slice_cells_.resize(static_cast<size_t>(k));
  int64_t stride = 1;
  for (int d = k - 1; d >= 0; --d) {
    const int nd = dims[static_cast<size_t>(d)];
    SliceCells& sc = part->slice_cells_[static_cast<size_t>(d)];
    sc.start.assign(static_cast<size_t>(nd) + 1, 0);
    const auto slice_of = [&](int64_t cell) {
      return static_cast<size_t>((cell / stride) % nd);
    };
    for (int64_t c = 0; c < num_cells; ++c) {
      if (part->cell_weights_[static_cast<size_t>(c)] != 0) {
        ++sc.start[slice_of(c) + 1];
      }
    }
    for (size_t s = 0; s < static_cast<size_t>(nd); ++s) {
      sc.start[s + 1] += sc.start[s];
    }
    sc.cells.resize(static_cast<size_t>(sc.start.back()));
    std::vector<int> fill(sc.start.begin(), sc.start.end() - 1);
    for (int64_t c = 0; c < num_cells; ++c) {
      if (part->cell_weights_[static_cast<size_t>(c)] != 0) {
        sc.cells[static_cast<size_t>(fill[slice_of(c)]++)] = c;
      }
    }
    stride *= nd;
  }

  // Assignment of directory entries to processors.
  DECLUST_ASSIGN_OR_RETURN(
      part->cell_nodes_, TiledAssignment(dims, num_nodes, part->plan_.mi));

  // Correlation-aware rebalancing (section 4). Slice swaps trade load
  // balance against query locality (a swap can scatter the group of cells
  // one query visits). [Gha90]'s exact heuristic is unavailable, so we try
  // three candidates — no rebalance, swaps restricted to the coarsest
  // dimension (which moves correlated cell groups atomically), and
  // unrestricted swaps — and keep the one with the best bottleneck
  // throughput proxy: 1 / (max-load fraction x I/O per average query).
  if (options.rebalance) {
    int coarse_dim = 0;
    for (int d = 1; d < k; ++d) {
      if (dims[static_cast<size_t>(d)] <
          dims[static_cast<size_t>(coarse_dim)]) {
        coarse_dim = d;
      }
    }
    std::vector<int> best_assignment = part->cell_nodes_;
    RebalanceResult best_result;  // zero swaps = "no rebalance" candidate
    double best_score = part->ScoreAssignment(best_assignment, num_nodes,
                                              workload, schema_attrs.size());
    for (int restrict_dim : {coarse_dim, -1}) {
      std::vector<int> candidate = part->cell_nodes_;
      RebalanceResult r = HillClimbRebalance(
          dims, part->cell_weights_, num_nodes, &candidate,
          options.max_rebalance_swaps, restrict_dim);
      const double score = part->ScoreAssignment(candidate, num_nodes,
                                                 workload,
                                                 schema_attrs.size());
      if (score < best_score) {
        best_score = score;
        best_assignment = std::move(candidate);
        best_result = r;
      }
    }
    part->cell_nodes_ = std::move(best_assignment);
    part->rebalance_result_ = best_result;
  }

  // Final tuple placement follows the directory.
  for (int& h : home) h = part->cell_nodes_[static_cast<size_t>(h)];
  part->SetAssignment(num_nodes, static_cast<int>(schema_attrs.size()),
                      std::move(home));
  return part;
}

int64_t MagicPartitioning::CellOf(const Value* point) const {
  int64_t cell = 0;
  for (size_t d = 0; d < scales_.size(); ++d) {
    cell = cell * dims_[d] + scales_[d].SliceOf(point[d]);
  }
  return cell;
}

std::string MagicPartitioning::ShapeString() const {
  std::string out;
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (d > 0) out += 'x';
    out += std::to_string(dims_[d]);
  }
  return out;
}

void MagicPartitioning::NodesForPredicate(const Predicate& q,
                                          const std::vector<int>& cell_nodes,
                                          std::vector<int>* nodes) const {
  // The optimizer skips empty fragments: the grid directory records the
  // cardinality of every fragment, so a processor holding only empty
  // entries of the predicate's region is never contacted (section 4). The
  // predicate's box is its range on q.attr and the whole domain on every
  // other dimension, so its non-empty cells are those of q.attr's slices
  // in range (every non-empty cell for a predicate on no grid dimension).
  nodes->clear();
  const bool on_grid =
      q.attr >= 0 && q.attr < static_cast<int>(scales_.size());
  if (on_grid && q.lo > q.hi) return;
  const SliceCells& sc =
      slice_cells_[static_cast<size_t>(on_grid ? q.attr : 0)];
  int first = 0;
  int last = static_cast<int>(sc.start.size()) - 2;
  if (on_grid) {
    std::tie(first, last) =
        scale(q.attr).SlicesOverlapping(q.lo, q.hi);
  }
  for (int i = sc.start[static_cast<size_t>(first)];
       i < sc.start[static_cast<size_t>(last) + 1]; ++i) {
    const int64_t cell = sc.cells[static_cast<size_t>(i)];
    nodes->push_back(cell_nodes[static_cast<size_t>(cell)]);
  }
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

double MagicPartitioning::ScoreAssignment(
    const std::vector<int>& cell_nodes, int num_nodes,
    const workload::Workload& workload, int k) const {
  // Load balance: the bottleneck processor's share of the tuples.
  std::vector<int64_t> loads(static_cast<size_t>(num_nodes), 0);
  int64_t total = 0;
  for (size_t c = 0; c < cell_nodes.size(); ++c) {
    loads[static_cast<size_t>(cell_nodes[c])] += cell_weights_[c];
    total += cell_weights_[c];
  }
  int64_t max_load = 0;
  for (int64_t l : loads) max_load = std::max(max_load, l);
  const double max_frac =
      total > 0 ? static_cast<double>(max_load) / static_cast<double>(total)
                : 1.0;

  // I/O pages per average query: ~2 index pages per contacted processor
  // plus the data pages of the result, sampled deterministically across
  // the domain.
  double avg_io = 0;
  double freq_total = 0;
  std::vector<int> nodes;
  constexpr int kSamples = 16;
  for (const auto& cls : workload.classes) {
    if (cls.attr < 0 || cls.attr >= k || cls.frequency <= 0) continue;
    const auto au = static_cast<size_t>(cls.attr);
    const Value dlo = domain_lo_[au];
    const Value dhi = domain_hi_[au];
    const Value width = std::max<Value>(1, cls.exact ? 1 : cls.tuples);
    double procs = 0;
    for (int s = 0; s < kSamples; ++s) {
      const Value lo =
          dlo + (dhi - dlo - width) * s / kSamples;
      NodesForPredicate({cls.attr, lo, lo + width - 1}, cell_nodes, &nodes);
      procs += static_cast<double>(nodes.size());
    }
    procs /= kSamples;
    const double data_pages =
        std::max(1.0, static_cast<double>(cls.tuples) / 36.0);
    avg_io += cls.frequency * (procs * 2.0 + data_pages);
    freq_total += cls.frequency;
  }
  if (freq_total > 0) avg_io /= freq_total;
  return max_frac * std::max(avg_io, 1.0);
}

void MagicPartitioning::SitesForInto(const Predicate& q,
                                     PlanSites* out) const {
  out->clear();
  NodesForPredicate(q, cell_nodes_, &out->data_nodes);
}

double MagicPartitioning::PlanningCpuMs(const Predicate& q) const {
  // The simulated optimizer probes the directory the way a grid file is
  // actually searched: binary search of each linear scale, then one visit
  // per cell the predicate's box overlaps. (Equation 1's planning model
  // conservatively assumes a linear scan of half the directory; that model
  // is used for sizing M, not for the simulated per-query cost.)
  const int k = static_cast<int>(scales_.size());
  double entries = 0;
  double scale_probes = 0;
  double box = 1;
  for (int d = 0; d < k; ++d) {
    const int slices = dims_[static_cast<size_t>(d)];
    scale_probes += std::ceil(std::log2(static_cast<double>(slices) + 1));
    if (d == q.attr) {
      auto [first, last] = scale(d).SlicesOverlapping(q.lo, q.hi);
      box *= static_cast<double>(last - first + 1);
    } else {
      box *= static_cast<double>(slices);
    }
  }
  entries = scale_probes + box;
  return entries * options_.cost_model.dir_entry_search_ms;
}

}  // namespace declust::decluster
