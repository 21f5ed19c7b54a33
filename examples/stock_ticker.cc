// The STOCK example of paper section 3 (figures 4 and 5): a relation
//   STOCK(ticker_symbol, name, price, closing, opening, P/E)
// where half the queries are exact matches on ticker_symbol and half are
// range selections on price. MAGIC builds a two-dimensional grid directory
// so both query types touch only a slice of the machine.
#include <iomanip>
#include <iostream>

#include "src/common/random.h"
#include "src/decluster/magic.h"
#include "src/decluster/range.h"
#include "src/workload/mixes.h"

int main() {
  using namespace declust;  // NOLINT(build/namespaces)

  // Build a STOCK relation: tickers are integer-encoded symbols (the
  // alphabetic ranges A-D, E-H, ... of figure 4 become value ranges);
  // prices in cents.
  storage::Schema schema({{"ticker_symbol"},
                          {"name"},
                          {"price"},
                          {"closing"},
                          {"opening"},
                          {"pe"}});
  storage::Relation stock("STOCK", schema);
  RandomStream rng(2026);
  const int64_t kStocks = 10'000;
  for (int64_t i = 0; i < kStocks; ++i) {
    const int64_t ticker = i;  // dense symbol space
    const int64_t price = rng.UniformInt(1, 6000);  // $0.01 .. $60.00
    (void)stock.Append(
        {ticker, i, price, price + rng.UniformInt(-50, 50),
         price + rng.UniformInt(-50, 50), rng.UniformInt(2, 80)});
  }

  // The workload of section 3: query type A = exact match on
  // ticker_symbol, query type B = range predicate on price, 50/50.
  workload::Workload wl;
  wl.name = "stock";
  workload::QueryClassSpec qa;
  qa.name = "type A (ticker exact match)";
  qa.attr = 0;
  qa.exact = true;
  qa.tuples = 1;
  qa.frequency = 0.5;
  qa.declared_cpu_ms = 6.0;  // Mi = sqrt(18/2) = 3
  qa.declared_disk_ms = 6.0;
  qa.declared_net_ms = 6.0;
  workload::QueryClassSpec qb;
  qb.name = "type B (price range)";
  qb.attr = 1;
  qb.tuples = 25;
  qb.frequency = 0.5;
  qb.declared_cpu_ms = 6.0;  // Mi = 3, symmetric with type A (figure 4)
  qb.declared_disk_ms = 6.0;
  qb.declared_net_ms = 6.0;
  wl.classes = {qa, qb};

  const int kProcessors = 36;  // the paper's illustration uses 36
  auto magic = decluster::MagicPartitioning::Create(
      stock, {/*ticker*/ 0, /*price*/ 2}, wl, kProcessors);
  if (!magic.ok()) {
    std::cerr << magic.status().ToString() << "\n";
    return 1;
  }

  const auto& plan = (*magic)->plan();
  std::cout << "MAGIC on STOCK(ticker_symbol, price), " << kProcessors
            << " processors\n";
  std::cout << "  Mi(ticker) = " << plan.mi[0] << ", Mi(price) = "
            << plan.mi[1] << "\n";
  std::cout << "  fraction splits: ticker " << plan.fraction_splits[0]
            << ", price " << plan.fraction_splits[1] << "\n";
  std::cout << "  grid directory: " << (*magic)->ShapeString()
            << " (ticker slices x price slices)\n\n";

  // Reproduce the figure-4 walkthrough: which processors serve an exact
  // ticker match vs a price range?
  auto type_a = (*magic)->SitesFor({0, 1234, 1234});
  std::cout << "select STOCK.all where ticker_symbol = #1234\n  -> "
            << type_a.data_nodes.size() << " processors:";
  for (int n : type_a.data_nodes) std::cout << " " << n;
  std::cout << "\n";

  auto type_b = (*magic)->SitesFor({1, 1000, 1015});
  std::cout << "select STOCK.all where price in [$10.00, $10.15]\n  -> "
            << type_b.data_nodes.size() << " processors:";
  for (int n : type_b.data_nodes) std::cout << " " << n;
  std::cout << "\n\n";

  // Contrast with one-dimensional range partitioning on price: type B is
  // local but type A must visit every processor (the paper's 18.5 average).
  auto range = decluster::RangePartitioning::Create(stock, {2}, kProcessors);
  if (!range.ok()) {
    std::cerr << range.status().ToString() << "\n";
    return 1;
  }
  auto r_a = (*range)->SitesFor({1, 1234, 1234});  // non-partitioning attr
  auto r_b = (*range)->SitesFor({0, 1000, 1015});  // price is attr 0 there
  std::cout << "range partitioning on price, same queries:\n";
  std::cout << "  ticker exact match -> " << r_a.data_nodes.size()
            << " processors (all of them)\n";
  std::cout << "  price range        -> " << r_b.data_nodes.size()
            << " processor(s)\n";
  std::cout << "  average "
            << (static_cast<double>(r_a.data_nodes.size()) +
                static_cast<double>(r_b.data_nodes.size())) /
                   2.0
            << " vs MAGIC's "
            << (static_cast<double>(type_a.data_nodes.size()) +
                static_cast<double>(type_b.data_nodes.size())) /
                   2.0
            << "\n";
  return 0;
}
