#include "src/workload/open.h"

#include <algorithm>
#include <limits>

namespace declust::workload {

namespace {

// Kinds in grammar order.
enum OpenKind { kRate, kBurst, kZipf, kTail, kRelation, kCap };

}  // namespace

const spec::Grammar& OpenPlan::grammar() {
  using spec::Into;
  using spec::Presence;
  static const spec::Grammar kGrammar{
      "open",
      "item",
      {{.name = "rate",
        .head = spec::ValueHead(spec::Number(0, 1e9),
                                Into<&RatePoint::per_sec>),
        .keys = {{"t", spec::Duration(), Into<&RatePoint::at_ms>,
                  Presence::kShown}}},
       {.name = "burst",
        .head = spec::ValueHead(spec::Integer(1, 1 << 20),
                                Into<&BurstPoint::count>),
        .keys = {{"t", spec::Duration(), Into<&BurstPoint::at_ms>,
                  Presence::kRequired}}},
       {.name = "zipf",
        .head = spec::ValueHead(spec::Number(0, 8), Into<&OpenPlan::zipf_s_>),
        .once = true},
       {.name = "tail",
        .keys = {{"p", spec::Number(0, 0.999999), Into<&OpenPlan::tail_p_>,
                  Presence::kRequired},
                 {"x", spec::Number(1, 1e6), Into<&OpenPlan::tail_x_>,
                  Presence::kRequired}},
        .once = true},
       {.name = "relation",
        .keys = {{"card", spec::Integer(2, 17179869184.0),  // 2^34
                  Into<&OpenRelationSpec::cardinality>, Presence::kRequired},
                 {"weight", spec::Number(1e-9, 1e9),
                  Into<&OpenRelationSpec::weight>},
                 {"corr", spec::Number(-1, 1),
                  Into<&OpenRelationSpec::correlation>}}},
       {.name = "cap",
        .head = spec::ValueHead(spec::Integer(1, 1 << 22),
                                Into<&OpenPlan::max_in_flight_>),
        .once = true}}};
  return kGrammar;
}

Result<OpenPlan> OpenPlan::Parse(std::string_view spec) {
  const spec::Grammar& g = grammar();
  DECLUST_ASSIGN_OR_RETURN(const std::vector<spec::Item> items, g.Split(spec));
  OpenPlan plan;
  for (const spec::Item& item : items) {
    switch (item.kind) {
      case kRate: {
        RatePoint rp;
        DECLUST_RETURN_NOT_OK(g.Fill(item, &rp));
        // A non-monotone (or duplicated) schedule would silently reorder the
        // load curve; reject it instead of sorting.
        if (!plan.rates_.empty() && rp.at_ms <= plan.rates_.back().at_ms) {
          return Status::InvalidArgument(
              "open: rate schedule must be strictly increasing in t ('" +
              std::string(item.text) + "' at " + spec::FormatMs(rp.at_ms) +
              " does not follow " + spec::FormatMs(plan.rates_.back().at_ms) +
              ")");
        }
        plan.rates_.push_back(rp);
        break;
      }
      case kBurst:
        DECLUST_RETURN_NOT_OK(g.Fill(item, &plan.bursts_.emplace_back()));
        break;
      case kRelation:
        DECLUST_RETURN_NOT_OK(
            g.Fill(item, &plan.extra_relations_.emplace_back()));
        break;
      default:  // zipf:, tail: and cap: fill the plan's own knobs
        DECLUST_RETURN_NOT_OK(g.Fill(item, &plan));
        plan.have_zipf_ |= item.kind == kZipf;
        plan.have_tail_ |= item.kind == kTail;
        plan.have_cap_ |= item.kind == kCap;
        break;
    }
  }
  std::stable_sort(plan.bursts_.begin(), plan.bursts_.end(),
                   [](const BurstPoint& a, const BurstPoint& b) {
                     return a.at_ms < b.at_ms;
                   });
  return plan;
}

double OpenPlan::RateAt(double t_ms) const {
  double rate = 0.0;
  for (const RatePoint& rp : rates_) {
    if (rp.at_ms > t_ms) break;
    rate = rp.per_sec;
  }
  return rate;
}

double OpenPlan::NextBoundaryAfter(double t_ms) const {
  double next = std::numeric_limits<double>::infinity();
  for (const RatePoint& rp : rates_) {
    if (rp.at_ms > t_ms) {
      next = std::min(next, rp.at_ms);
      break;  // rates_ is sorted
    }
  }
  for (const BurstPoint& bp : bursts_) {
    if (bp.at_ms > t_ms) {
      next = std::min(next, bp.at_ms);
      break;  // bursts_ is sorted
    }
  }
  return next;
}

Status OpenPlan::Validate() const {
  if (rates_.empty() && bursts_.empty()) {
    return Status::InvalidArgument(
        "open: plan needs at least one rate: or burst: item");
  }
  if (extra_relations_.size() > 15) {
    return Status::InvalidArgument(
        "open: at most 15 extra relations (got " +
        std::to_string(extra_relations_.size()) + ")");
  }
  return Status::OK();
}

void OpenPlan::OverrideConstantRate(double per_sec) {
  rates_.clear();
  rates_.push_back(RatePoint{0.0, per_sec});
}

std::string OpenPlan::ToString() const {
  const spec::Grammar& g = grammar();
  std::string out;
  for (const RatePoint& rp : rates_) g.Print(kRate, rp, &out);
  for (const BurstPoint& bp : bursts_) g.Print(kBurst, bp, &out);
  if (have_zipf_) g.Print(kZipf, *this, &out);
  if (have_tail_) g.Print(kTail, *this, &out);
  for (const OpenRelationSpec& rel : extra_relations_) {
    g.Print(kRelation, rel, &out);
  }
  if (have_cap_) g.Print(kCap, *this, &out);
  return out;
}

ZipfSampler::ZipfSampler(int64_t n, double s) : n_(n < 1 ? 1 : n), s_(s) {
  if (s_ > 0.0) {
    h_x1_ = H(1.5) - 1.0;
    h_n_ = H(static_cast<double>(n_) + 0.5);
    threshold_ = 2.0 - Hinv(H(2.5) - std::pow(2.0, -s_));
  }
}

double ZipfSampler::H(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::Hinv(double x) const {
  if (s_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

int64_t ZipfSampler::Next(RandomStream& rng) const {
  if (s_ == 0.0 || n_ == 1) return rng.UniformInt(1, n_);
  // Rejection inversion over the continuous envelope; expected iterations
  // are < 2 for every s.
  for (;;) {
    const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    const double x = Hinv(u);
    int64_t k = static_cast<int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n_) {
      k = n_;
    }
    if (static_cast<double>(k) - x <= threshold_) return k;
    if (u >= H(static_cast<double>(k) + 0.5) -
                 std::pow(static_cast<double>(k), -s_)) {
      return k;
    }
  }
}

OpenQueryGenerator::OpenQueryGenerator(const Workload* workload,
                                       const OpenPlan* plan,
                                       std::vector<int64_t> domains,
                                       std::vector<double> weights,
                                       RandomStream rng)
    : workload_(workload),
      plan_(plan),
      domains_(std::move(domains)),
      relation_pick_(rng.Fork(0)),
      skew_(rng.Fork(1)) {
  cumulative_weight_.reserve(weights.size());
  for (double w : weights) {
    total_weight_ += w;
    cumulative_weight_.push_back(total_weight_);
  }
  generators_.reserve(domains_.size());
  zipf_.reserve(domains_.size());
  for (size_t r = 0; r < domains_.size(); ++r) {
    generators_.emplace_back(workload_, domains_[r],
                             rng.Fork(2 + static_cast<uint64_t>(r)),
                             QueryGenerator::StreamMode::kPerClassStreams);
    zipf_.emplace_back(domains_[r], plan_->zipf_s());
  }
}

QueryInstance OpenQueryGenerator::Next() {
  size_t rel = 0;
  if (cumulative_weight_.size() > 1) {
    const double u = relation_pick_.NextDouble() * total_weight_;
    while (rel + 1 < cumulative_weight_.size() &&
           u >= cumulative_weight_[rel]) {
      ++rel;
    }
  }
  QueryInstance q = generators_[rel].Next();
  q.relation = static_cast<int>(rel);
  const int64_t domain = domains_[rel];
  const QueryClassSpec& cls = workload_->classes[static_cast<size_t>(
      q.class_index)];

  // Heavy tail: occasionally inflate a range predicate's width. Exact-match
  // classes keep their point shape (the planner's exact path depends on it).
  if (plan_->tail_p() > 0.0 && !cls.exact &&
      skew_.NextDouble() < plan_->tail_p()) {
    int64_t width = q.hi - q.lo + 1;
    width = static_cast<int64_t>(
        std::llround(static_cast<double>(width) * plan_->tail_x()));
    if (width > domain) width = domain;
    if (width < 1) width = 1;
    if (q.lo + width - 1 >= domain) q.lo = domain - width;
    q.hi = q.lo + width - 1;
  }

  // Zipf placement: re-place the window so rank-1 positions (the low end of
  // the domain) are the hottest. Width is preserved.
  if (plan_->zipf_s() > 0.0) {
    const int64_t width = q.hi - q.lo + 1;
    if (width < domain) {
      const int64_t rank = zipf_[rel].Next(skew_);
      int64_t lo = rank - 1;
      if (lo > domain - width) lo = domain - width;
      q.lo = lo;
      q.hi = lo + width - 1;
    }
  }
  return q;
}

}  // namespace declust::workload
