// Open-system workload plans: arrival schedules, access skew and
// multi-relation declarations for the open (non-closed-loop) driver.
//
// An OpenPlan is the workload-side counterpart of sim::FaultPlan,
// recover::RecoveryPlan and resize::ResizePlan, in the plan grammar of
// DESIGN.md ("Plan grammar").
//
//   rate:R[@t=T]
//     From time T on, queries arrive as a Poisson process at R queries per
//     second (R = 0 pauses arrivals). T defaults to 0; rate items must be
//     strictly increasing in T (a non-monotone or duplicated schedule is
//     rejected — it would silently reorder the load curve). Before the
//     first rate point the arrival rate is 0.
//   burst:N@t=T
//     N queries arrive back-to-back at T (trace-driven spikes). Any number
//     of bursts, sorted by time.
//   zipf:s
//     Zipf-skew the placement of every range/exact predicate: position
//     rank k (1 = hottest) is drawn with probability proportional to
//     1/k^s and mapped to the low end of the attribute domain, so s > 0
//     concentrates access on a contiguous hot range. s = 0 is uniform
//     (the closed-loop behavior). At most one zipf item.
//   tail:p=P,x=F
//     Heavy-tailed query mix: with probability P a query's predicate width
//     is inflated by factor F (capped at the domain), turning the width
//     distribution bimodal/heavy-tailed. P in [0, 1), F >= 1. At most one.
//   relation:card=N[,weight=W][,corr=C]
//     Declares one ADDITIONAL Wisconsin relation of N tuples beside the
//     base relation; queries target a relation with probability
//     proportional to its weight (base relation weight 1). C is the
//     attribute correlation passed to the generator. Repeat for more
//     relations.
//   cap:N
//     Admission cap: at most N queries in flight; arrivals beyond the cap
//     are shed (counted, not queued). Default 4096. At most one.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/spec.h"
#include "src/common/status.h"
#include "src/workload/querygen.h"

namespace declust::workload {

/// One step of the arrival-rate schedule: Poisson at `per_sec` from `at_ms`.
struct RatePoint {
  double at_ms = 0.0;
  double per_sec = 0.0;
};

/// A trace-driven arrival spike: `count` back-to-back arrivals at `at_ms`.
struct BurstPoint {
  double at_ms = 0.0;
  int count = 0;
};

/// An additional relation declared by the plan (the base relation the
/// experiment always builds is index 0 and has weight 1).
struct OpenRelationSpec {
  int64_t cardinality = 0;
  double weight = 1.0;
  double correlation = 0.0;
};

/// \brief A parsed, validated open-system workload plan.
class OpenPlan {
 public:
  OpenPlan() = default;

  /// Parses an `--open` spec; InvalidArgument on malformed input.
  static Result<OpenPlan> Parse(std::string_view spec);
  /// The kinds and keys Parse accepts and ToString prints.
  static const spec::Grammar& grammar();

  bool empty() const { return rates_.empty() && bursts_.empty(); }
  const std::vector<RatePoint>& rates() const { return rates_; }
  const std::vector<BurstPoint>& bursts() const { return bursts_; }
  double zipf_s() const { return zipf_s_; }
  double tail_p() const { return tail_p_; }
  double tail_x() const { return tail_x_; }
  int max_in_flight() const { return max_in_flight_; }
  const std::vector<OpenRelationSpec>& extra_relations() const {
    return extra_relations_;
  }

  /// Arrival rate (queries/sec) in effect at simulation time `t_ms` (step
  /// function over the rate schedule; 0 before the first point).
  double RateAt(double t_ms) const;

  /// Time of the next schedule boundary strictly after `t_ms` (rate change
  /// or burst), or +inf when none remains. The arrival loop redraws its
  /// exponential gap at boundaries (memoryless, so this is exact).
  double NextBoundaryAfter(double t_ms) const;

  /// Semantic checks: at least one arrival source (rate or burst), and the
  /// total relation count must stay sane.
  Status Validate() const;

  /// Replaces the whole rate schedule with a single constant `per_sec` from
  /// t=0 (the offered-load sweep overrides the plan's schedule per point).
  void OverrideConstantRate(double per_sec);

  /// The plan in canonical spec form.
  std::string ToString() const;

 private:
  std::vector<RatePoint> rates_;
  std::vector<BurstPoint> bursts_;
  std::vector<OpenRelationSpec> extra_relations_;
  double zipf_s_ = 0.0;
  bool have_zipf_ = false;
  double tail_p_ = 0.0;
  double tail_x_ = 1.0;
  bool have_tail_ = false;
  int max_in_flight_ = 4096;
  bool have_cap_ = false;
};

/// \brief Zipf(s) sampler over ranks 1..n by rejection inversion
/// (Hörmann & Derflinger): O(1) expected draws, no setup tables, exact for
/// s = 0 (uniform). Deterministic given the caller's RandomStream.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);

  /// Draws a rank in [1, n]; rank 1 is the most probable for s > 0.
  int64_t Next(RandomStream& rng) const;

  int64_t n() const { return n_; }
  double s() const { return s_; }

 private:
  double H(double x) const;
  double Hinv(double x) const;

  int64_t n_;
  double s_;
  double h_x1_ = 0.0;       // H(1.5) - 1
  double h_n_ = 0.0;        // H(n + 0.5)
  double threshold_ = 0.0;  // acceptance shortcut for rank 1
};

/// \brief Draws open-system queries: a relation by weight, then a class and
/// predicate from per-relation/per-class substreams, with Zipf-skewed
/// window placement and heavy-tail width inflation per the plan.
///
/// Stream layout (all forks of the constructor's `rng`):
///   Fork(0)            relation pick
///   Fork(1)            zipf / tail auxiliary draws
///   Fork(2 + r)        relation r's QueryGenerator (kPerClassStreams),
/// so adding a relation or class never perturbs another's stream.
class OpenQueryGenerator {
 public:
  /// `domains[r]` is relation r's dense domain size; `weights[r]` its pick
  /// weight. Both must have the same nonzero size. The workload's classes
  /// are shared by every relation.
  OpenQueryGenerator(const Workload* workload, const OpenPlan* plan,
                     std::vector<int64_t> domains, std::vector<double> weights,
                     RandomStream rng);

  QueryInstance Next();

 private:
  const Workload* workload_;
  const OpenPlan* plan_;
  std::vector<int64_t> domains_;
  std::vector<double> cumulative_weight_;
  double total_weight_ = 0.0;
  RandomStream relation_pick_;
  RandomStream skew_;
  std::vector<QueryGenerator> generators_;
  std::vector<ZipfSampler> zipf_;  // one per relation (domain-sized)
};

}  // namespace declust::workload
