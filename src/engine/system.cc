#include "src/engine/system.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/control/controller.h"
#include "src/recover/recovery.h"
#include "src/resize/migrate.h"

namespace declust::engine {

System::System(sim::Simulation* sim, SystemConfig config,
               const storage::Relation* relation,
               const decluster::Partitioning* partitioning,
               const workload::Workload* workload)
    : sim_(sim),
      config_(config),
      relation_(relation),
      partitioning_(partitioning),
      workload_(workload),
      metrics_(static_cast<int>(workload->classes.size())) {}

Status System::Init() {
  const bool faults_armed =
      config_.fault_plan != nullptr && !config_.fault_plan->empty();
  if (faults_armed &&
      config_.fault_plan->max_node() >= config_.hw.num_processors) {
    return Status::InvalidArgument(
        "fault plan targets node " +
        std::to_string(config_.fault_plan->max_node()) + " but only " +
        std::to_string(config_.hw.num_processors) +
        " operator nodes exist (the query-manager host cannot fail)");
  }

  // One extra node hosts the query manager (the entry point of figure 7);
  // per-query scheduler processes are placed round-robin on the operator
  // nodes, as in Gamma, so coordination work scales with the machine.
  hw::HwParams machine_params = config_.hw;
  machine_params.num_processors = config_.hw.num_processors + 1;
  machine_ = std::make_unique<hw::Machine>(
      sim_, machine_params, RandomStream(config_.seed), config_.fault_plan,
      config_.seed, config_.probe);

  // Chained declustering is required to survive a permanent disk loss; arm
  // it whenever a fault plan is present (a single-node machine has nowhere
  // to put a backup).
  CatalogOptions catalog_opts = config_.catalog;
  if (faults_armed && config_.hw.num_processors > 1) {
    catalog_opts.chained_backups = true;
  }
  // Under an elastic plan the catalog is built on the coordinator's initial
  // placement (slices striped over the initial members); the physical
  // machine is sized for the largest membership the plan reaches, which the
  // caller already wrote into hw.num_processors.
  PlacementSpec placement;
  const PlacementSpec* placement_ptr = nullptr;
  if (config_.resize != nullptr) {
    placement = config_.resize->InitialPlacement();
    placement_ptr = &placement;
  }
  auto catalog = SystemCatalog::Build(relation_, partitioning_,
                                      config_.attr_a, config_.attr_b,
                                      config_.hw, catalog_opts,
                                      placement_ptr,
                                      /*share_disks_with=*/nullptr,
                                      config_.trees);
  DECLUST_RETURN_NOT_OK(catalog.status());
  catalog_ = std::move(catalog).ValueOrDie();
  if (config_.resize != nullptr) {
    metrics_.BindSlices(catalog_->num_slices());
  }

  // Per-relation planning state. Extra relations (open multi-relation runs)
  // get catalogs allocated on the SAME disks as the base relation's, so
  // their queries contend for the same spindles.
  bindings_.push_back(RelationBinding{partitioning_, catalog_.get()});
  for (const auto& er : config_.extra_relations) {
    if (er.relation == nullptr || er.partitioning == nullptr) {
      return Status::InvalidArgument("null extra relation or partitioning");
    }
    auto extra = SystemCatalog::Build(er.relation, er.partitioning,
                                      config_.attr_a, config_.attr_b,
                                      config_.hw, catalog_opts,
                                      /*placement=*/nullptr, catalog_.get(),
                                      er.trees);
    DECLUST_RETURN_NOT_OK(extra.status());
    extra_catalogs_.push_back(std::move(extra).ValueOrDie());
    bindings_.push_back(
        RelationBinding{er.partitioning, extra_catalogs_.back().get()});
  }

  querygen_ = std::make_unique<workload::QueryGenerator>(
      workload_, relation_->cardinality(),
      RandomStream(config_.seed).Fork(0xABCD));

  const bool open_armed = config_.open != nullptr && !config_.open->empty();
  if (config_.control != nullptr && config_.resize == nullptr) {
    return Status::InvalidArgument(
        "a control coordinator needs an elastic migration coordinator");
  }
  if (open_armed) {
    std::vector<int64_t> domains{relation_->cardinality()};
    std::vector<double> weights{1.0};
    const auto& specs = config_.open->extra_relations();
    for (size_t i = 0; i < config_.extra_relations.size(); ++i) {
      domains.push_back(config_.extra_relations[i].relation->cardinality());
      weights.push_back(i < specs.size() ? specs[i].weight : 1.0);
    }
    opengen_ = std::make_unique<workload::OpenQueryGenerator>(
        workload_, config_.open, std::move(domains), std::move(weights),
        RandomStream(config_.seed).Fork(0xABCD));
    metrics_.EnableOpen();
  }
  if (config_.control != nullptr) metrics_.EnableControl();

  if (config_.audit != nullptr) {
    // Slice ids and node ids share one id space; an elastic run may use
    // more slices than nodes, so the audit range covers both. The open
    // driver's in-flight bound is the admission cap, not the terminal count.
    const int audit_range =
        config_.resize != nullptr
            ? std::max(config_.hw.num_processors, catalog_->num_slices())
            : config_.hw.num_processors;
    const int in_flight_bound = open_armed ? config_.open->max_in_flight()
                                           : config_.multiprogramming_level;
    config_.audit->BindSystem(in_flight_bound, audit_range);
  }

  if (config_.buffer_pool_pages > 0) {
    pools_.reserve(static_cast<size_t>(config_.hw.num_processors));
    for (int n = 0; n < config_.hw.num_processors; ++n) {
      pools_.push_back(
          std::make_unique<BufferPool>(config_.buffer_pool_pages));
    }
  }
  return Status::OK();
}

void System::Start() {
  if (opengen_ != nullptr) {
    sim_->Spawn(OpenArrivalLoop(RandomStream(config_.seed).Fork(0x09E5)));
    return;
  }
  RandomStream rng = RandomStream(config_.seed).Fork(0x7157);
  for (int t = 0; t < config_.multiprogramming_level; ++t) {
    sim_->Spawn(TerminalLoop(rng.Fork(static_cast<uint64_t>(t))));
  }
}

bool System::SiteUp(int node) {
  sim::FaultInjector* inj = machine_->injector();
  if (inj != nullptr && !inj->DiskAvailable(node, sim_->now())) return false;
  // A repaired disk serves no foreground reads until its rebuild finishes
  // and the recovery coordinator flips the address back to the primary; a
  // removed node serves nothing once drained and retired.
  return (config_.recovery == nullptr ||
          config_.recovery->ServingPrimary(node)) &&
         (config_.resize == nullptr || config_.resize->NodeServing(node));
}

System::QueryScratch* System::AcquireScratch() {
  if (!scratch_free_.empty()) {
    QueryScratch* s = scratch_free_.back();
    scratch_free_.pop_back();
    return s;
  }
  scratch_storage_.push_back(std::make_unique<QueryScratch>());
  return scratch_storage_.back().get();
}

void System::ReleaseScratch(QueryScratch* scratch) {
  scratch_free_.push_back(scratch);
}

void System::AdmitArrival() {
  metrics_.RecordArrival();
  if (config_.audit != nullptr) config_.audit->OnQueryArrival();
  // The effective cap is the plan cap unless the controller has tightened
  // admission below it; a shed the plan cap alone would not have caused is
  // the controller's doing and is classified (and audited) as such.
  const int plan_cap = config_.open->max_in_flight();
  int cap = plan_cap;
  if (config_.control != nullptr) {
    const int ctl_cap = config_.control->effective_admission_cap();
    if (ctl_cap >= 0 && ctl_cap < cap) cap = ctl_cap;
  }
  if (open_in_flight_ >= cap) {
    metrics_.RecordShed();
    const bool by_controller = open_in_flight_ < plan_cap;
    if (by_controller) metrics_.RecordControlShed();
    if (config_.audit != nullptr) {
      config_.audit->OnQueryShed(by_controller
                                     ? audit::ShedClass::kController
                                     : audit::ShedClass::kAdmissionCap);
    }
    return;
  }
  ++open_in_flight_;
  sim_->Spawn(OpenSession(opengen_->Next()));
}

sim::Task<> System::OpenArrivalLoop(RandomStream rng) {
  const workload::OpenPlan& plan = *config_.open;
  size_t next_burst = 0;
  for (;;) {
    const double now = sim_->now();
    while (next_burst < plan.bursts().size() &&
           plan.bursts()[next_burst].at_ms <= now) {
      for (int i = 0; i < plan.bursts()[next_burst].count; ++i) {
        AdmitArrival();
      }
      ++next_burst;
    }
    const double rate = plan.RateAt(now);
    const double boundary = plan.NextBoundaryAfter(now);
    if (rate <= 0.0) {
      if (std::isinf(boundary)) co_return;  // nothing will ever arrive again
      co_await sim_->WaitFor(boundary - now);
      continue;
    }
    const double gap_ms = rng.Exponential(1000.0 / rate);
    if (!std::isinf(boundary) && now + gap_ms >= boundary) {
      // The schedule changes first: jump to the boundary and redraw there.
      // Exponential gaps are memoryless, so discarding the draw is exact.
      co_await sim_->WaitFor(boundary - now);
      continue;
    }
    co_await sim_->WaitFor(gap_ms);
    AdmitArrival();
  }
}

sim::Task<> System::OpenSession(workload::QueryInstance q) {
  // One query's worth of TerminalLoop's body: no loop, no think time; the
  // arrival process (not a completion) decides when the next query starts.
  QueryScratch* scratch = AcquireScratch();
  const sim::SimTime start = sim_->now();
  obs::QueryObs qo{config_.probe, next_query_id_++, 0, {}};
  qo.span = obs::BeginSpan(&qo, "query", obs::Component::kQuery, host_node(),
                           start);
  if (config_.audit != nullptr) config_.audit->OnQuerySubmitted();
  const Status st = co_await ExecuteQuery(q, scratch, &qo);
  obs::EndSpan(&qo, qo.span, sim_->now());
  if (config_.probe != nullptr) config_.probe->ClearContext();
  RecordOutcome(st, q.class_index, start, qo);
  ReleaseScratch(scratch);
  --open_in_flight_;
}

sim::Task<> System::TerminalLoop(RandomStream rng) {
  // Closed system: each terminal has at most one query outstanding. The
  // paper uses zero think time; a mean think time can be configured.
  QueryScratch scratch;
  for (;;) {
    if (config_.think_time_ms > 0) {
      co_await sim_->WaitFor(rng.Exponential(config_.think_time_ms));
    }
    const workload::QueryInstance q = querygen_->Next();
    const sim::SimTime start = sim_->now();
    // One QueryObs per query; it is a cheap stack struct even when the
    // probe is off (qo.probe == nullptr => every obs helper is a no-op).
    obs::QueryObs qo{config_.probe, next_query_id_++, 0, {}};
    qo.span = obs::BeginSpan(&qo, "query", obs::Component::kQuery,
                             host_node(), start);
    if (config_.audit != nullptr) config_.audit->OnQuerySubmitted();
    const Status st = co_await ExecuteQuery(q, &scratch, &qo);
    obs::EndSpan(&qo, qo.span, sim_->now());
    if (config_.probe != nullptr) config_.probe->ClearContext();
    RecordOutcome(st, q.class_index, start, qo);
    // A failure detected at dispatch costs zero simulated time; without a
    // pause the closed loop would spin forever at one instant.
    if (!st.ok() && config_.failover.failed_query_backoff_ms > 0) {
      co_await sim_->WaitFor(config_.failover.failed_query_backoff_ms);
    }
  }
}

void System::RecordOutcome(const Status& st, int class_index,
                           sim::SimTime start, const obs::QueryObs& qo) {
  if (!st.ok()) {
    metrics_.RecordFailure(class_index);
    if (config_.audit != nullptr) config_.audit->OnQueryFailed(qo.query);
    return;
  }
  const sim::SimTime now = sim_->now();
  const double response_ms = now - start;
  const obs::QueryCosts* costs =
      config_.probe != nullptr ? &qo.costs : nullptr;
  metrics_.RecordCompletion(class_index, response_ms, costs);
  if (config_.recovery != nullptr) {
    config_.recovery->OnQueryCompleted(now, response_ms);
  }
  if (config_.resize != nullptr) {
    config_.resize->OnQueryCompleted(now, response_ms);
  }
  if (config_.control != nullptr) {
    config_.control->OnQueryCompleted(response_ms);
  }
  if (config_.audit != nullptr) {
    config_.audit->OnQueryCompleted(qo.query, response_ms, costs);
  }
}

sim::Task<Status> System::ExecuteQuery(workload::QueryInstance q,
                                       QueryScratch* scratch,
                                       obs::QueryObs* qo) {
  const Predicate pred{q.attr, q.lo, q.hi};
  const bool scan =
      workload_->classes[static_cast<size_t>(q.class_index)].sequential_scan;
  const int rel = q.relation;
  const RelationBinding& rb = bindings_[static_cast<size_t>(rel)];

  // The query manager (host node) dispatches the query to its scheduler
  // process, allocated round-robin over the operator nodes (the *current*
  // members under an elastic plan, so leaving nodes shed coordinator work
  // the instant the membership flips).
  const int coord =
      config_.resize != nullptr
          ? config_.resize->CoordinatorNode(next_coordinator_++)
          : next_coordinator_++ % config_.hw.num_processors;
  QueryContext& ctx = scratch->ctx;
  ctx.rel = rel;
  ctx.coord = coord;
  ctx.pred = pred;
  ctx.sequential_scan = scan;
  ctx.qo = qo;
  ctx.fault = FaultContext{&config_.failover,
                           sim_->now() + config_.failover.query_deadline_ms,
                           &metrics_.faults()};
  ctx.status = Status::OK();
  ctx.serving.clear();
  DECLUST_CO_RETURN_NOT_OK(
      co_await DeliverMessage(sim_, &machine_->network(), host_node(), coord,
                              config_.hw.control_message_bytes, qo));

  // Scheduler: build the plan; MAGIC pays the grid-directory search.
  hw::Cpu& coord_cpu = machine_->node(coord).cpu();
  const double plan_ms = config_.hw.InstrMs(config_.costs.plan_instructions) +
                         rb.partitioning->PlanningCpuMs(pred);
  const uint64_t plan_span = obs::BeginSpan(
      qo, "plan", obs::Component::kScheduler, coord, sim_->now());
  obs::ArmHw(qo, plan_span);
  const Status plan_st = co_await coord_cpu.RunMs(plan_ms);
  obs::EndSpan(qo, plan_span, sim_->now());
  DECLUST_CO_RETURN_NOT_OK(plan_st);

  rb.partitioning->SitesForInto(pred, &scratch->sites);
  const decluster::PlanSites& sites = scratch->sites;
  if (config_.audit != nullptr) {
    config_.audit->OnQueryActivation(qo->query, sites.aux_nodes,
                                     sites.data_nodes);
  }

  // Phase 1 (BERD secondary-attribute queries): auxiliary lookups, strictly
  // before the data phase.
  if (!sites.aux_nodes.empty()) {
    sim::JoinCounter aux_join(sim_, static_cast<int>(sites.aux_nodes.size()));
    for (int node : sites.aux_nodes) {
      sim_->Spawn(RunSite(Site(&ctx, &aux_join, SiteKind::kAux, node,
                               /*index=*/0, sim_->process_memory())));
    }
    co_await aux_join.Wait();
    DECLUST_CO_RETURN_NOT_OK(ctx.status);
  }

  // Data phase.
  metrics_.RecordProcessorsUsed(static_cast<int>(sites.data_nodes.size()));
  if (!sites.data_nodes.empty()) {
    ctx.serving.assign(sites.data_nodes.size(), -1);
    sim::JoinCounter join(sim_, static_cast<int>(sites.data_nodes.size()));
    for (size_t i = 0; i < sites.data_nodes.size(); ++i) {
      sim_->Spawn(RunSite(Site(&ctx, &join, SiteKind::kData,
                               sites.data_nodes[i], static_cast<int>(i),
                               sim_->process_memory())));
    }
    co_await join.Wait();
    DECLUST_CO_RETURN_NOT_OK(ctx.status);

    // Commit: one control message per participant, serialized at the
    // scheduler's interface (the linear component of CP). Each goes to the
    // node that actually served the site (the primary unless failed over).
    for (size_t i = 0; i < sites.data_nodes.size(); ++i) {
      const int target =
          ctx.serving[i] >= 0 ? ctx.serving[i] : sites.data_nodes[i];
      const double commit_begin = sim_->now();
      obs::ArmHw(qo);
      const Status commit_st = co_await machine_->network().Send(
          coord, target, config_.hw.control_message_bytes);
      if (qo != nullptr && qo->probe != nullptr) {
        qo->costs.network_ms += sim_->now() - commit_begin;
      }
      DECLUST_CO_RETURN_NOT_OK(commit_st);
    }
  }

  // Completion notice back to the query manager / terminal.
  DECLUST_CO_RETURN_NOT_OK(
      co_await DeliverMessage(sim_, &machine_->network(), coord, host_node(),
                              config_.hw.control_message_bytes, qo));
  co_return Status::OK();
}

sim::Task<> System::RunSite(Site site) {
  StartSite(&site);
  Status st;
  do {
    if (site.phase == SitePhase::kControl || site.phase == SitePhase::kReply) {
      st = co_await SiteMessage(site);
    } else {
      st = co_await SiteHw(site);
    }
  } while (NextSiteAwait(&site, &st));
  FinishSite(&site, st);
}

void System::StartSite(Site* site) {
  // Give the site its own handle: sibling sites interleave, so they must
  // not share the parent's span cursor or probe-arming window. Costs are
  // merged before the join fires (while the parent still awaits it).
  const QueryContext& ctx = *site->ctx;
  if (ctx.qo != nullptr && ctx.qo->probe != nullptr) {
    site->sq = site_obs_.New(
        obs::QueryObs{ctx.qo->probe, ctx.qo->query, ctx.qo->span, {}});
  }
  if (config_.audit != nullptr) config_.audit->OnSiteDispatched(site->slice);

  // Scheduler-side work to activate this site.
  obs::PushSpan(site->sq, "site.activate", obs::Component::kScheduler,
                ctx.coord, sim_->now());
  obs::ArmHw(site->sq);
}

bool System::NextSiteAwait(Site* site, Status* st) {
  switch (site->phase) {
    case SitePhase::kActivate:
      obs::PopSpan(site->sq, site->sq != nullptr ? site->ctx->qo->span : 0,
                   sim_->now());
      if (st->ok()) {
        // Owner resolved at dispatch time: under an elastic plan the slice
        // may live on any member (OwnerOf is the identity otherwise).
        if (config_.resize != nullptr) metrics_.RecordSliceAccess(site->slice);
        site->exec = bindings_[static_cast<size_t>(site->ctx->rel)]
                         .catalog->OwnerOf(site->slice);
        if (!SiteUp(site->exec)) {
          // Built only here: every non-OK Status allocates its State.
          *st = Status::Unavailable(site->kind == SiteKind::kAux
                                        ? "primary aux site down"
                                        : "primary site down");
          site->exec = NextSiteNode(*site->ctx, site->kind, site->slice,
                                    site->exec, &site->read, st);
        }
      }
      return StartAttempt(site, st);
    case SitePhase::kControl:
      if (!st->ok()) break;
      // The operator runs with the node's resources; results flow back to
      // the query's scheduler.
      site->phase = SitePhase::kSelect;
      site->op.Start(SelectAt(*site));
      return true;
    case SitePhase::kSelect:
      if (site->op.Next(SelectAt(*site), st)) return true;
      if (!st->ok()) break;
      site->phase = SitePhase::kReply;
      return true;
    case SitePhase::kReply:
      break;
  }
  return EndAttempt(site, st) && StartAttempt(site, st);
}

bool System::StartAttempt(Site* site, Status* st) {
  while (site->exec >= 0) {
    obs::PushSpan(site->sq, site->kind == SiteKind::kAux ? "site.aux" : "site",
                  obs::Component::kQuery, site->exec, sim_->now());
    if (config_.resize != nullptr) config_.resize->OnSiteExecBegin(site->exec);
    // The plan is built before the first await: a migration epoch flip
    // cannot land between the owner resolution and here, so the page
    // addresses always match the copy `exec` actually hosts (the old extents
    // stay valid through the flip — they are abandoned, never invalidated —
    // so reads planned pre-flip drain safely).
    *st = BuildSitePlan(*site->ctx, site->kind, site->slice,
                        site->read == SiteRead::kBackup, &site->plan);
    if (st->ok()) {
      site->phase = SitePhase::kControl;
      return true;
    }
    if (!EndAttempt(site, st)) break;
  }
  return false;
}

bool System::EndAttempt(Site* site, Status* st) {
  if (config_.resize != nullptr) config_.resize->OnSiteExecEnd(site->exec);
  obs::PopSpan(site->sq, site->sq != nullptr ? site->ctx->qo->span : 0,
               sim_->now());
  if (st->ok()) {
    ReportServe(*site->ctx, site->kind, site->slice, site->site_idx,
                site->exec, site->read);
    return false;
  }
  if (st->IsDeadlineExceeded()) return false;
  site->exec = NextSiteNode(*site->ctx, site->kind, site->slice, site->exec,
                            &site->read, st);
  return site->exec >= 0;
}

void System::FinishSite(Site* site, const Status& st) {
  if (config_.audit != nullptr) config_.audit->OnSiteFinished(site->slice);
  if (site->sq != nullptr) {
    site->ctx->qo->costs += site->sq->costs;
    site_obs_.Delete(site->sq);
  }
  if (!st.ok()) site->ctx->Merge(st);
  site->join->CountDown();
}

SelectSite System::SelectAt(const Site& site) {
  const bool aux = site.kind == SiteKind::kAux;
  return SelectSite{
      &machine_->node(site.exec),
      &site.plan,
      &config_.costs,
      aux || pools_.empty() ? nullptr
                            : pools_[static_cast<size_t>(site.exec)].get(),
      &site.ctx->fault,
      site.sq,
      site.ctx->coord,
      aux ? SelectKind::kAuxLookup : SelectKind::kData};
}

HwAwaiter System::SiteHw(const Site& site) {
  if (site.phase == SitePhase::kActivate) {
    return machine_->node(site.ctx->coord)
        .cpu()
        .Run(config_.costs.per_site_sched_instructions);
  }
  return site.op.Wait(SelectAt(site));
}

sim::Task<Status> System::SiteMessage(const Site& site) {
  if (site.phase == SitePhase::kControl) {
    return DeliverMessage(sim_, &machine_->network(), site.ctx->coord,
                          site.exec, config_.hw.control_message_bytes,
                          site.sq);
  }
  // An aux site's reply carries the processor list (8 bytes per
  // qualifying entry), up to one packet, and is not charged to the query.
  const hw::HwParams& hw = config_.hw;
  if (site.kind == SiteKind::kAux) {
    return DeliverMessage(
        sim_, &machine_->network(), site.exec, site.ctx->coord,
        static_cast<int>(std::min<int64_t>(
            hw.max_packet_bytes,
            hw.control_message_bytes + 8 * site.plan.tuples)));
  }
  return DeliverMessage(sim_, &machine_->network(), site.exec,
                        site.ctx->coord, hw.control_message_bytes, site.sq);
}

Status System::BuildSitePlan(const QueryContext& ctx, SiteKind kind,
                             int slice, bool backup_read, AccessPlan* plan) {
  const SystemCatalog& cat = *bindings_[static_cast<size_t>(ctx.rel)].catalog;
  if (kind == SiteKind::kAux) {
    return !backup_read ? cat.PlanAuxAccessInto(slice, ctx.pred, plan)
                        : cat.PlanBackupAuxAccessInto(slice, ctx.pred, plan);
  }
  return !backup_read ? cat.PlanAccessInto(slice, ctx.pred,
                                           ctx.sequential_scan, plan)
                      : cat.PlanBackupAccessInto(slice, ctx.pred,
                                                 ctx.sequential_scan, plan);
}

void System::ReportServe(QueryContext& ctx, SiteKind kind, int slice,
                         int site_idx, int exec, SiteRead read) {
  const bool aux = kind == SiteKind::kAux;
  // An aux site reports serves of the slice's primary copy only.
  if (config_.audit != nullptr && (!aux || read != SiteRead::kBackup)) {
    config_.audit->OnFragmentServe(
        slice, exec, /*primary_read=*/read != SiteRead::kBackup,
        /*primary_serving=*/read != SiteRead::kPrimary ||
            config_.recovery == nullptr ||
            config_.recovery->ServingPrimary(exec),
        /*first_serve=*/aux || ctx.serving[static_cast<size_t>(site_idx)] < 0);
  }
  if (!aux) ctx.serving[static_cast<size_t>(site_idx)] = exec;
}

int System::NextSiteNode(const QueryContext& ctx, SiteKind kind, int slice,
                         int failed, SiteRead* read, Status* st) {
  const SystemCatalog& cat = *bindings_[static_cast<size_t>(ctx.rel)].catalog;
  const sim::SimTime deadline_ms = ctx.fault.deadline_ms;
  // Migration-aware retry: a migration epoch flip may have moved the slice
  // while the dispatch was in flight (or its old owner was drained away).
  // One redirect to the freshly resolved owner, still deadline-bounded.
  if (*read == SiteRead::kPrimary && config_.resize != nullptr &&
      sim_->now() < deadline_ms) {
    const int owner_now = cat.OwnerOf(slice);
    if (owner_now != failed && SiteUp(owner_now)) {
      config_.resize->OnMigrationRedirect();
      *read = SiteRead::kRedirect;
      return owner_now;
    }
  }

  // Primary lost: chained declustering places the backup on the next node.
  if (*read == SiteRead::kBackup || !cat.has_backups()) return -1;
  if (sim_->now() >= deadline_ms) {
    ++metrics_.faults().timeouts;
    *st = Status::DeadlineExceeded(kind == SiteKind::kAux
                                       ? "deadline passed before aux failover"
                                       : "deadline passed before failover");
    return -1;
  }
  const int backup = cat.BackupNodeOf(slice);
  // Both replicas down: the fragment is unreachable.
  if (!SiteUp(backup)) return -1;
  ++metrics_.faults().failovers;
  *read = SiteRead::kBackup;
  return backup;
}

}  // namespace declust::engine
