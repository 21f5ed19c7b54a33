#include "src/audit/oracle.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "src/common/random.h"
#include "src/workload/querygen.h"

namespace declust::audit {

namespace {

constexpr size_t kMaxMessages = 16;

void Mismatch(OracleReport* report, std::string message) {
  ++report->mismatches;
  if (report->messages.size() < kMaxMessages) {
    report->messages.push_back(std::move(message));
  }
}

std::string Describe(const workload::QueryInstance& q) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "attr=%d [%lld, %lld]", q.attr,
                static_cast<long long>(q.lo), static_cast<long long>(q.hi));
  return std::string(buf);
}

/// Checks the site list is duplicate-free with every id in [0, P); returns
/// false (after recording) when malformed, so dependent checks are skipped.
bool CheckWellFormed(OracleReport* report, const std::string& strategy,
                     const workload::QueryInstance& q, const char* phase,
                     const std::vector<int>& nodes, int num_nodes) {
  ++report->checks;
  std::set<int> distinct;
  for (int n : nodes) {
    if (n < 0 || n >= num_nodes) {
      Mismatch(report, strategy + " " + Describe(q) + ": " + phase +
                           " site " + std::to_string(n) + " outside [0, " +
                           std::to_string(num_nodes) + ")");
      return false;
    }
    if (!distinct.insert(n).second) {
      Mismatch(report, strategy + " " + Describe(q) + ": duplicate " + phase +
                           " site " + std::to_string(n));
      return false;
    }
  }
  return true;
}

}  // namespace

std::string OracleReport::Summary() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "oracle: %lld queries, %lld checks, %lld mismatches",
                static_cast<long long>(queries), static_cast<long long>(checks),
                static_cast<long long>(mismatches));
  return std::string(buf);
}

OracleReport RunOracle(
    const storage::Relation& relation,
    const std::vector<const decluster::Partitioning*>& strategies,
    const workload::Workload& workload, storage::AttrId attr_a,
    storage::AttrId attr_b, OracleOptions options) {
  OracleReport report;
  if (strategies.empty()) return report;
  const int num_nodes = strategies.front()->num_nodes();
  const int64_t card = relation.cardinality();

  // Each strategy's records grouped by node, once for the whole run.
  std::vector<decluster::NodeGroups> groups;
  groups.reserve(strategies.size());
  for (const decluster::Partitioning* part : strategies) {
    groups.push_back(part->GroupByNode());
  }

  workload::QueryGenerator gen(&workload, card, RandomStream(options.seed));
  for (int i = 0; i < options.num_queries; ++i) {
    const workload::QueryInstance q = gen.Next();
    ++report.queries;
    const storage::AttrId schema_attr = q.attr == 0 ? attr_a : attr_b;
    const int64_t width = q.hi - q.lo + 1;

    // Reference executor: evaluate the predicate against every tuple.
    std::vector<storage::RecordId> reference;
    for (storage::RecordId rid = 0; rid < card; ++rid) {
      const storage::Value v = relation.value(rid, schema_attr);
      if (v >= q.lo && v <= q.hi) reference.push_back(rid);
    }
    // Wisconsin attributes are dense permutations of 0..card-1, so a window
    // of width W clamped to the domain matches exactly that many tuples.
    const int64_t expected =
        std::max<int64_t>(0, std::min(q.hi, card - 1) - std::max<int64_t>(
                                                            0, q.lo) + 1);
    ++report.checks;
    if (static_cast<int64_t>(reference.size()) != expected) {
      Mismatch(&report, "relation: " + Describe(q) + " matched " +
                            std::to_string(reference.size()) +
                            " tuples, dense domain implies " +
                            std::to_string(expected));
    }

    for (size_t p = 0; p < strategies.size(); ++p) {
      const decluster::Partitioning* part = strategies[p];
      const std::string& name = part->name();
      const decluster::Predicate pred{q.attr, q.lo, q.hi};
      const decluster::PlanSites sites = part->SitesFor(pred);

      if (!CheckWellFormed(&report, name, q, "data", sites.data_nodes,
                           num_nodes) ||
          !CheckWellFormed(&report, name, q, "aux", sites.aux_nodes,
                           num_nodes)) {
        continue;
      }

      // Retrieved set: the qualifying tuples reachable by scanning exactly
      // the activated fragments. Must equal the reference set — this is the
      // cross-strategy identity (every strategy reconstructs the same
      // answer, only its cost differs).
      std::vector<storage::RecordId> retrieved;
      for (int node : sites.data_nodes) {
        for (storage::RecordId rid : groups[p].node(node)) {
          const storage::Value v = relation.value(rid, schema_attr);
          if (v >= q.lo && v <= q.hi) retrieved.push_back(rid);
        }
      }
      std::sort(retrieved.begin(), retrieved.end());
      ++report.checks;
      if (retrieved != reference) {
        Mismatch(&report, name + " " + Describe(q) + ": retrieved " +
                              std::to_string(retrieved.size()) +
                              " tuples via data sites, reference has " +
                              std::to_string(reference.size()) +
                              " (qualifying tuple on an unactivated site?)");
        continue;
      }

      // Activation bounds (dense-domain arguments; see header).
      const int64_t cap = std::min<int64_t>(num_nodes, width);
      ++report.checks;
      if ((name == "range" || name == "BERD") && q.attr == 0 &&
          static_cast<int64_t>(sites.data_nodes.size()) > cap) {
        Mismatch(&report, name + " " + Describe(q) + ": " +
                              std::to_string(sites.data_nodes.size()) +
                              " data sites for a width-" +
                              std::to_string(width) +
                              " contiguous range (cap " +
                              std::to_string(cap) + ")");
      }
      ++report.checks;
      if (name == "hash" && q.attr == 0 && q.lo == q.hi &&
          sites.data_nodes.size() != 1) {
        Mismatch(&report, name + " " + Describe(q) + ": exact match on the "
                              "hash attribute activated " +
                              std::to_string(sites.data_nodes.size()) +
                              " sites");
      }
      if (name == "BERD" && q.attr == 1) {
        // Phase 1 covers a contiguous slice of the aux relation; phase 2 is
        // exactly the qualifying tuples' homes.
        ++report.checks;
        if (sites.aux_nodes.empty() ||
            static_cast<int64_t>(sites.aux_nodes.size()) > cap) {
          Mismatch(&report, name + " " + Describe(q) + ": " +
                                std::to_string(sites.aux_nodes.size()) +
                                " aux sites for width " +
                                std::to_string(width) + " (cap " +
                                std::to_string(cap) + ")");
        }
        std::set<int> homes;
        for (storage::RecordId rid : reference) homes.insert(part->NodeOf(rid));
        ++report.checks;
        if (std::set<int>(sites.data_nodes.begin(), sites.data_nodes.end()) !=
            homes) {
          Mismatch(&report, name + " " + Describe(q) +
                                ": data sites differ from the qualifying "
                                "tuples' home processors (" +
                                std::to_string(sites.data_nodes.size()) +
                                " vs " + std::to_string(homes.size()) + ")");
        }
      } else {
        ++report.checks;
        if (!sites.aux_nodes.empty()) {
          Mismatch(&report, name + " " + Describe(q) +
                                ": unexpected auxiliary phase (" +
                                std::to_string(sites.aux_nodes.size()) +
                                " aux sites)");
        }
      }
    }
  }
  return report;
}

}  // namespace declust::audit
