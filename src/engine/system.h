// The simulated parallel database machine: P operator nodes + a scheduler
// node, terminals driving a closed multiprogramming workload, the query
// manager/scheduler protocol, and the select operators.
//
// Execution of one query (paper figure 7 model):
//   terminal -> query manager (plan CPU, MAGIC directory search)
//            -> scheduler activates each participating operator node with a
//               control message (the per-processor cost of participation)
//            -> operator: index + data page I/O, per-tuple CPU, result
//               packets to the scheduler
//            -> done message per site; commit message per site
//   BERD queries on the secondary attribute first run the auxiliary-lookup
//   phase on the aux nodes, then the data phase (two sequential steps).
//
// Fault handling (armed only when SystemConfig.fault_plan is set): chained
// declustering keeps a backup of node n's fragment on node (n+1) mod N.
// Page reads retry transient errors with capped exponential backoff; a site
// whose disk/node has failed is re-executed against the backup copy; every
// operation is bounded by a per-query deadline. Failed queries are counted
// in Metrics::faults() and the issuing terminal backs off briefly so a
// zero-cost failure cannot spin the closed loop.
#pragma once

#include <memory>
#include <vector>

#include "src/audit/audit.h"
#include "src/common/arena.h"
#include "src/common/random.h"
#include "src/engine/catalog.h"
#include "src/engine/metrics.h"
#include "src/engine/operators.h"
#include "src/engine/scheduler.h"
#include "src/hw/node.h"
#include "src/obs/probe.h"
#include "src/sim/fault.h"
#include "src/workload/open.h"
#include "src/workload/querygen.h"

namespace declust::recover {
class RecoveryCoordinator;
}  // namespace declust::recover

namespace declust::resize {
class MigrationCoordinator;
}  // namespace declust::resize

namespace declust::control {
class ControlCoordinator;
}  // namespace declust::control

namespace declust::engine {

/// \brief Everything configurable about a run.
struct SystemConfig {
  hw::HwParams hw;
  CatalogOptions catalog;
  OperatorCosts costs;
  /// Number of terminals continuously issuing queries (the paper's
  /// multiprogramming level).
  int multiprogramming_level = 1;
  uint64_t seed = 1;
  /// Schema attribute ids of the two partitioning attributes (A has the
  /// non-clustered index, B the clustered one).
  storage::AttrId attr_a = 0;
  storage::AttrId attr_b = 1;
  /// Per-node buffer-pool capacity in pages (0 = no caching, the paper's
  /// model). Extension; see bench/ablation_buffer.
  int64_t buffer_pool_pages = 0;
  /// Mean exponential think time between a terminal's queries (0 = the
  /// paper's zero-think-time closed system).
  double think_time_ms = 0.0;
  /// Optional fault-injection plan (non-owning; must outlive the System).
  /// When set (and non-empty), Init() arms the fault injector and builds
  /// chained-declustering backups; events may target operator nodes only.
  const sim::FaultPlan* fault_plan = nullptr;
  /// Retry/backoff/deadline knobs; only consulted when faults occur.
  FailoverPolicy failover;
  /// Optional observability probe (non-owning; must outlive the System).
  /// When set, every query gets a cost breakdown and — if the probe carries
  /// a Tracer — a span tree. When null, zero obs work runs anywhere.
  obs::Probe* probe = nullptr;
  /// Optional invariant auditor (non-owning; must outlive the System).
  /// When set, the engine reports query submissions/completions, per-site
  /// dispatch/finish and planner activations so conservation identities are
  /// checked live (src/audit). The caller usually also installs it on the
  /// Simulation (sim::Simulation::SetAuditHook) for calendar coverage.
  /// When null, the default path pays one branch per hook site.
  audit::Auditor* audit = nullptr;
  /// Optional recovery coordinator (non-owning; must outlive the System).
  /// When set, SiteUp() also requires the coordinator to be serving the
  /// node's primary fragment — a physically repaired disk stays out of the
  /// query path until its rebuild finishes and the address flips back
  /// (src/recover). The caller Arm()s and Start()s the coordinator around
  /// Init()/Start(). When null, zero recovery work runs anywhere.
  recover::RecoveryCoordinator* recovery = nullptr;
  /// Optional elastic-membership coordinator (non-owning; must outlive the
  /// System). When set, Init() builds the catalog on the coordinator's
  /// initial placement (logical slices striped over the initial members),
  /// query coordinators round-robin over the *current* members, each data
  /// site resolves its slice's owner at dispatch time — redirecting once to
  /// the new owner when a migration epoch flip races the dispatch — and a
  /// drained-and-retired node serves nothing (src/resize). The caller
  /// Arm()s and Start()s the coordinator around Init()/Start(). When null,
  /// the default path pays one branch per hook site.
  resize::MigrationCoordinator* resize = nullptr;
  /// Optional open-system plan (non-owning; must outlive the System). When
  /// set (and non-empty), Start() spawns a Poisson/burst arrival process
  /// instead of the closed terminals; multiprogramming_level is ignored and
  /// the plan's admission cap bounds the in-flight queries. Combines with
  /// `resize` (arrivals keep coming while slices migrate) but not with
  /// `recovery` (the rebuild driver assumes the closed loop's pacing).
  const workload::OpenPlan* open = nullptr;
  /// Optional closed-loop controller (non-owning; must outlive the System).
  /// When set, the open driver sheds at the controller's effective
  /// admission cap (sheds below the plan cap are controller sheds,
  /// audit::ShedClass::kController) and every completed query's response
  /// feeds the controller's observation window. Requires `resize` (the
  /// plan-less migration coordinator is the controller's actuator). When
  /// null, the default path pays one branch per hook site.
  control::ControlCoordinator* control = nullptr;
  /// Additional relations for multi-relation open runs. Each gets its own
  /// catalog whose extents live on the SAME simulated disks as the base
  /// relation's, so their queries contend for the same spindles. Index i
  /// here is QueryInstance::relation == i + 1; the base relation is 0.
  struct ExtraRelation {
    const storage::Relation* relation = nullptr;
    const decluster::Partitioning* partitioning = nullptr;
    /// Prebuilt index trees for this relation (see `trees` below).
    std::shared_ptr<const CatalogTrees> trees = nullptr;
  };
  std::vector<ExtraRelation> extra_relations;
  /// Optional prebuilt index trees of the base relation's partitioning. A
  /// sweep builds one set per strategy and shares it read-only across its
  /// points; Init() builds the catalog's own set when null. A set built
  /// from other inputs makes Init() fail.
  std::shared_ptr<const CatalogTrees> trees = nullptr;
};

/// \brief One simulated system instance bound to a Simulation.
class System {
 public:
  /// The relation, partitioning and workload must outlive the System.
  System(sim::Simulation* sim, SystemConfig config,
         const storage::Relation* relation,
         const decluster::Partitioning* partitioning,
         const workload::Workload* workload);

  /// Builds the catalog and the machine. Must be called before Start().
  Status Init();

  /// Spawns the terminal processes.
  void Start();

  Metrics& metrics() { return metrics_; }
  hw::Machine& machine() { return *machine_; }
  const SystemCatalog& catalog() const { return *catalog_; }
  /// Mutable catalog handle for arming a MigrationCoordinator (which
  /// relocates fragments through it); null before Init().
  SystemCatalog* mutable_catalog() { return catalog_.get(); }
  /// Node id of the query-manager host (one past the operator nodes).
  /// Per-query schedulers run round-robin on the operator nodes.
  int host_node() const { return config_.hw.num_processors; }

 private:
  /// Per-query state shared by the scheduler and its sites: what every
  /// site of the query reads, and the failure state they report into. The
  /// sites read it through one pointer, which keeps their frames small.
  struct QueryContext {
    int rel = 0;    // relation binding (0 = base relation)
    int coord = 0;  // node running the query's scheduler
    Predicate pred;
    bool sequential_scan = false;
    obs::QueryObs* qo = nullptr;  // the query's handle (nullable)
    FaultContext fault;        // policy, deadline and counters for reads
    Status status;             // first site failure, if any
    std::vector<int> serving;  // node that actually served data site i
    void Merge(const Status& st) {
      if (status.ok()) status = st;
    }
  };

  /// Reusable per-terminal query state. A terminal runs one query at a
  /// time, so its scratch (context + site list) lives on the TerminalLoop
  /// frame and is recycled query after query — the vectors keep their
  /// capacity, so steady-state dispatch stops allocating.
  struct QueryScratch {
    QueryContext ctx;
    decluster::PlanSites sites;
  };

  sim::Task<> TerminalLoop(RandomStream rng);
  /// Open-system driver: Poisson arrivals at the plan's (time-varying)
  /// rate plus burst spikes; redraws the exponential gap at every schedule
  /// boundary (memoryless, so the redraw is exact). Each admitted arrival
  /// runs as an independent OpenSession; arrivals beyond the admission cap
  /// are shed and counted.
  sim::Task<> OpenArrivalLoop(RandomStream rng);
  /// One open-system query: the body of a terminal iteration without the
  /// loop or think time. Decrements the in-flight gauge when done.
  sim::Task<> OpenSession(workload::QueryInstance q);
  /// Admits or sheds one arrival (the cap check and the audit/metric hooks).
  void AdmitArrival();
  /// Fans one finished query's outcome out to the metrics, then the
  /// recovery, resize and control coordinators and the auditor (in that
  /// order) — shared by the closed and the open query loops.
  void RecordOutcome(const Status& st, int class_index, sim::SimTime start,
                     const obs::QueryObs& qo);

  /// Pooled QueryScratch for open sessions (terminals keep theirs on the
  /// loop frame): concurrent sessions interleave, so each borrows one.
  QueryScratch* AcquireScratch();
  void ReleaseScratch(QueryScratch* scratch);

  sim::Task<Status> ExecuteQuery(workload::QueryInstance q,
                                 QueryScratch* scratch, obs::QueryObs* qo);

  /// Which operator a site runs: a data select, or a BERD aux lookup.
  enum class SiteKind : uint8_t { kData, kAux };
  /// Which copy of its slice a site attempt reads.
  enum class SiteRead : uint8_t { kPrimary, kRedirect, kBackup };
  /// Where a site is: the scheduler's activation CPU, then per attempt the
  /// control message in, the select, and the done message back.
  enum class SitePhase : uint8_t { kActivate, kControl, kSelect, kReply };

  /// One data or aux site of `ctx`'s query, and everything it keeps across
  /// its awaits: the current attempt's plan and select, the node executing
  /// it and which copy of the slice that node reads. `slice` is the
  /// partitioning fragment id; the node that executes it is resolved at
  /// dispatch time (the identity without an elastic plan). `site_idx`
  /// indexes ctx->serving (data sites only).
  struct Site {
    Site(QueryContext* query, sim::JoinCounter* done, SiteKind site_kind,
         int site_slice, int index, std::pmr::memory_resource* pages)
        : ctx(query),
          join(done),
          plan(pages),
          slice(site_slice),
          site_idx(index),
          kind(site_kind) {}
    QueryContext* ctx;
    sim::JoinCounter* join;
    /// The site's own handle, with a probe only: sibling sites interleave,
    /// so they cannot share the query's span cursor or probe arming.
    obs::QueryObs* sq = nullptr;
    AccessPlan plan;
    SelectOp op;
    int slice;
    int site_idx;
    int exec = -1;
    SiteKind kind;
    SiteRead read = SiteRead::kPrimary;
    SitePhase phase = SitePhase::kActivate;
  };

  /// Runs one site: activation at the scheduler, then attempts at the
  /// slice's owner (control message in, the select, done message back)
  /// until one succeeds, the deadline passes or NextSiteNode finds no copy
  /// left. The site and its select live in this one frame, so a site parked
  /// on its disk holds just this frame. The frame makes two awaits, each
  /// decided by plain functions: every hardware wait through one HwAwaiter
  /// (SiteHw), and the control and done messages (SiteMessage). The plan's
  /// page list draws from the simulation's process memory.
  ///
  /// With a probe, the site's handle (sharing the query id and parent span)
  /// comes from a slab pool, and its costs are merged into the query's
  /// before the join fires.
  sim::Task<> RunSite(Site site);
  /// Opens the site and asks for its activation CPU.
  void StartSite(Site* site);
  /// Takes the Status of the site's last await in `*st`. True: the site
  /// awaits again (a message in kControl or kReply, else SiteHw); false:
  /// the site has ended with its final status in `*st`.
  bool NextSiteAwait(Site* site, Status* st);
  /// Starts an attempt at site->exec (none when it is -1): its span, the
  /// plan, then the control message. A plan that fails to build ends the
  /// attempt at once. Returns as NextSiteAwait does.
  bool StartAttempt(Site* site, Status* st);
  /// Ends the attempt at site->exec with `*st`; true when another starts at
  /// the node NextSiteNode picked.
  bool EndAttempt(Site* site, Status* st);
  /// Closes the site: audit, cost merge, the query's status, the join.
  void FinishSite(Site* site, const Status& st);
  /// Where the site's select runs, what it reads and where results go.
  SelectSite SelectAt(const Site& site);
  /// The site's hardware wait: the activation CPU, or the select's.
  HwAwaiter SiteHw(const Site& site);
  /// The site's message: the control message, or the done reply (an aux
  /// site's reply is not charged to the query).
  sim::Task<Status> SiteMessage(const Site& site);
  /// After a site's attempt on `*read`'s copy at `failed` failed with `*st`
  /// (and not by the deadline), picks the next attempt: one redirect to the
  /// slice's current owner when a migration flip moved it away from the
  /// primary `failed`, then the chained backup. Returns the node and
  /// updates `*read`, or returns -1 with `*st` holding the site's final
  /// status.
  int NextSiteNode(const QueryContext& ctx, SiteKind kind, int slice,
                   int failed, SiteRead* read, Status* st);
  /// Builds a site's plan for `slice` (its backup copy when `backup_read`).
  Status BuildSitePlan(const QueryContext& ctx, SiteKind kind, int slice,
                       bool backup_read, AccessPlan* plan);
  /// Records that `exec` served the site: the audit's fragment-serve check
  /// and, for a data site, ctx.serving[site_idx].
  void ReportServe(QueryContext& ctx, SiteKind kind, int slice, int site_idx,
                   int exec, SiteRead read);

  /// True when `node`'s disk (and the node itself) is currently serviceable.
  bool SiteUp(int node);

  sim::Simulation* sim_;
  int next_coordinator_ = 0;
  int64_t next_query_id_ = 0;
  SystemConfig config_;
  const storage::Relation* relation_;
  const decluster::Partitioning* partitioning_;
  const workload::Workload* workload_;

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<SystemCatalog> catalog_;
  std::unique_ptr<workload::QueryGenerator> querygen_;
  std::vector<std::unique_ptr<BufferPool>> pools_;  // empty when disabled
  Metrics metrics_;

  /// Per-relation planning state; [0] aliases catalog_/partitioning_, the
  /// rest are the open plan's extra relations (their catalogs share the
  /// base relation's disks).
  struct RelationBinding {
    const decluster::Partitioning* partitioning = nullptr;
    SystemCatalog* catalog = nullptr;
  };
  std::vector<RelationBinding> bindings_;
  std::vector<std::unique_ptr<SystemCatalog>> extra_catalogs_;
  std::unique_ptr<workload::OpenQueryGenerator> opengen_;
  std::vector<std::unique_ptr<QueryScratch>> scratch_storage_;
  std::vector<QueryScratch*> scratch_free_;
  /// Per-site QueryObs handles, used only when a probe is set.
  Arena site_obs_arena_;
  SlabPool<obs::QueryObs> site_obs_{&site_obs_arena_};
  int open_in_flight_ = 0;
};

}  // namespace declust::engine
