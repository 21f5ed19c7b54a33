// Fault injection for the simulated Gamma machine.
//
// A FaultPlan is a seeded, deterministic schedule of failure events parsed
// from a compact spec string (see FaultPlan::Parse). A FaultInjector is the
// runtime view the hardware models consult: it answers "is this disk/node up
// at time t?", scales service times for straggler nodes, and draws transient
// I/O errors from per-node forked RandomStreams so the injected trace depends
// only on each node's own operation sequence — identical across `--jobs`
// values and across runs with the same seed.
//
// Event kinds, in the plan grammar of DESIGN.md ("Plan grammar"):
//   disk:nodeN@t=T            permanent disk failure at time T
//   io:nodeN@t=T,rate=R,for=D transient read/write errors with probability
//                             R in [0, 1] (default 0.05) during [T, T+D)
//                             (for= omitted -> forever)
//   slow:nodeN@t=T,x=F,for=D  straggler: service times scaled by F >= 1
//                             (default 2) in the window
//   crash:nodeN@t=T,down=D    node crash at T, recovers after D (down=
//                             omitted -> never recovers)
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/spec.h"
#include "src/common/status.h"

namespace declust::sim {

enum class FaultKind {
  kDiskFail,  ///< permanent disk failure
  kIoError,   ///< transient I/O errors at a given rate
  kSlowNode,  ///< straggler: latency multiplier on CPU and disk service
  kCrash,     ///< node crash (CPU, disk, and network unreachable), may recover
};

/// One scheduled fault. Times are simulation milliseconds.
struct FaultEvent {
  FaultKind kind = FaultKind::kDiskFail;
  int node = 0;
  double at_ms = 0.0;
  /// Window length for kIoError/kSlowNode, downtime for kCrash. Infinite
  /// means "until the end of the run". Unused for kDiskFail.
  double duration_ms = std::numeric_limits<double>::infinity();
  double rate = 0.05;   ///< error probability per I/O (kIoError only)
  double factor = 2.0;  ///< service-time multiplier (kSlowNode only)
};

/// \brief A parsed, validated schedule of fault events.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses a `--faults` spec; InvalidArgument on malformed input.
  static Result<FaultPlan> Parse(std::string_view spec);
  /// The kinds and keys Parse accepts and ToString prints.
  static const spec::Grammar& grammar();

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }
  /// Largest node index referenced by any event (-1 when empty). Callers
  /// validate this against the machine size before wiring the plan in.
  int max_node() const;

  /// The plan in canonical spec form.
  std::string ToString() const;

 private:
  std::vector<FaultEvent> events_;
};

/// \brief Runtime fault oracle consulted by Disk/Cpu/Network.
///
/// All queries are pure functions of (node, now) except MaybeInjectIoError,
/// which consumes the node's private RandomStream — forked per node from the
/// plan seed, so the decision sequence for node n depends only on node n's
/// own I/O completion order (deterministic within one Simulation).
class FaultInjector {
 public:
  /// `plan` must outlive the injector. `num_nodes` bounds the per-node state.
  FaultInjector(const FaultPlan* plan, uint64_t seed, int num_nodes);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// False once the node's disk has permanently failed or the node is down.
  bool DiskAvailable(int node, double now_ms) const;
  /// False while the node is inside a crash window.
  bool NodeUp(int node, double now_ms) const;
  /// Earliest scheduled permanent disk failure for `node` (+inf when none,
  /// or after MarkRepaired cleared it).
  double DiskFailAtMs(int node) const;
  /// Repairs `node` at `now_ms`: the permanent disk failure is cleared and
  /// any crash window covering `now_ms` is truncated, so the disk physically
  /// accepts I/O again (rebuild writes). Crash windows scheduled strictly
  /// after `now_ms` still apply — a repaired node can fail again. Purely a
  /// physical-availability change: query routing stays on the backup until
  /// the recovery coordinator flips the address (src/recover).
  void MarkRepaired(int node, double now_ms);

  /// One completed repair, for diagnostics and determinism tests.
  struct Repair {
    double at_ms = 0.0;
    int node = 0;
  };
  const std::vector<Repair>& repair_trace() const { return repairs_; }
  /// Product of active slow-node factors (1.0 when none active).
  double SlowFactor(int node, double now_ms) const;
  /// Draws a transient-error decision for an I/O completing at `now_ms`.
  /// Records injected errors in the trace.
  bool MaybeInjectIoError(int node, double now_ms);

  /// One injected transient error, for determinism tests and diagnostics.
  struct Injection {
    double at_ms = 0.0;
    int node = 0;
  };
  const std::vector<Injection>& io_error_trace() const { return trace_; }
  int64_t io_errors_injected() const {
    return static_cast<int64_t>(trace_.size());
  }

 private:
  struct NodeFaults {
    double disk_fail_at_ms = std::numeric_limits<double>::infinity();
    std::vector<FaultEvent> crashes;
    std::vector<FaultEvent> io_errors;
    std::vector<FaultEvent> slows;
    RandomStream rng;
  };

  std::vector<NodeFaults> nodes_;
  std::vector<Injection> trace_;
  std::vector<Repair> repairs_;
};

}  // namespace declust::sim
