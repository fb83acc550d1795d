#ifndef DURASSD_WORKLOADS_TPCC_H_
#define DURASSD_WORKLOADS_TPCC_H_

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "db/database.h"

namespace durassd {

/// TPC-C workload over minibase (the commercial-RDBMS experiment of
/// Sec. 4.3.2). Full schema (warehouse, district, customer, history, item,
/// stock, orders, new_order, order_line) with realistic row sizes, and the
/// five transaction types at the standard mix:
///   NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%.
/// tpmC = NewOrder transactions committed per simulated minute.
class Tpcc {
 public:
  struct Config {
    uint32_t warehouses = 4;
    uint32_t districts_per_warehouse = 10;
    uint32_t customers_per_district = 300;   ///< Spec: 3000; scaled.
    uint32_t items = 10000;                  ///< Spec: 100000; scaled.
    uint32_t clients = 32;
    uint64_t transactions = 20000;
    uint64_t seed = 99;
  };

  struct Result {
    double tpmc = 0;          ///< NewOrder commits per simulated minute.
    double tps_all = 0;       ///< All transactions per second.
    SimTime duration = 0;
    uint64_t new_orders = 0;
    Histogram new_order_latency;
    /// Operations that returned a non-OK status other than an expected
    /// NotFound. A correct run has none; the benches fail when any occur.
    uint64_t failed_ops = 0;
  };

  Tpcc(Database* db, Config config);

  Status Load(IoContext& io);
  StatusOr<Result> Run();

 private:
  struct Trees {
    uint32_t warehouse, district, customer, history, item, stock, orders,
        new_order, order_line;
  };

  SimTime RunOne(uint32_t client, SimTime now);
  Status DoNewOrder(IoContext& io, Random& rng, bool* committed);
  Status DoPayment(IoContext& io, Random& rng);
  Status DoOrderStatus(IoContext& io, Random& rng);
  Status DoDelivery(IoContext& io, Random& rng);
  Status DoStockLevel(IoContext& io, Random& rng);

  uint32_t PickWarehouse(Random& rng) const {
    return static_cast<uint32_t>(rng.Uniform(cfg_.warehouses));
  }
  /// TPC-C NURand-style skewed customer/item selection.
  uint32_t NuRand(Random& rng, uint32_t a, uint32_t n) const {
    return static_cast<uint32_t>(
        ((rng.Uniform(a + 1) | rng.Uniform(n)) % n));
  }

  Database* db_;
  Config cfg_;
  SimTime start_time_ = 0;
  Trees trees_{};
  std::vector<Random> rngs_;
  /// Next order id per (warehouse, district).
  std::vector<uint64_t> next_order_id_;
  /// Oldest undelivered order per (warehouse, district).
  std::vector<uint64_t> next_delivery_id_;
  Result result_;
};

}  // namespace durassd

#endif  // DURASSD_WORKLOADS_TPCC_H_
