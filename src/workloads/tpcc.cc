#include "workloads/tpcc.h"

#include <string>

#include "sim/client_scheduler.h"
#include "workloads/keys.h"

namespace durassd {

namespace {

// Row payloads sized like the TPC-C schema (bytes).
constexpr uint32_t kWarehouseRow = 90;
constexpr uint32_t kDistrictRow = 95;
constexpr uint32_t kCustomerRow = 500;  // Dominated by C_DATA.
constexpr uint32_t kHistoryRow = 46;
constexpr uint32_t kItemRow = 82;
constexpr uint32_t kStockRow = 306;
constexpr uint32_t kOrderRow = 32;
constexpr uint32_t kNewOrderRow = 8;
constexpr uint32_t kOrderLineRow = 54;

std::string Row(uint32_t size, char tag) { return std::string(size, tag); }

uint64_t WdKey(uint32_t w, uint32_t d, uint32_t districts) {
  return static_cast<uint64_t>(w) * districts + d;
}

}  // namespace

Tpcc::Tpcc(Database* db, Config config) : db_(db), cfg_(config) {
  rngs_.reserve(cfg_.clients);
  for (uint32_t c = 0; c < cfg_.clients; ++c) {
    rngs_.emplace_back(cfg_.seed * 31 + c);
  }
  const size_t wd = static_cast<size_t>(cfg_.warehouses) *
                    cfg_.districts_per_warehouse;
  next_order_id_.assign(wd, 1);
  next_delivery_id_.assign(wd, 1);
}

Status Tpcc::Load(IoContext& io) {
  const char* names[] = {"tpcc_warehouse", "tpcc_district", "tpcc_customer",
                         "tpcc_history",   "tpcc_item",     "tpcc_stock",
                         "tpcc_orders",    "tpcc_new_order",
                         "tpcc_order_line"};
  uint32_t* slots[] = {&trees_.warehouse, &trees_.district, &trees_.customer,
                       &trees_.history,   &trees_.item,     &trees_.stock,
                       &trees_.orders,    &trees_.new_order,
                       &trees_.order_line};
  for (size_t i = 0; i < 9; ++i) {
    StatusOr<uint32_t> id = db_->CreateTree(io, names[i]);
    if (!id.ok()) return id.status();
    *slots[i] = *id;
  }

  constexpr uint64_t kBatch = 512;
  uint64_t in_batch = 0;
  TxnId txn = 0;
  const auto put = [&](uint32_t tree, const std::string& key,
                       const std::string& value) -> Status {
    if (in_batch == 0) {
      StatusOr<TxnId> t = db_->Begin(io);
      if (!t.ok()) return t.status();
      txn = *t;
    }
    DURASSD_RETURN_IF_ERROR(db_->Put(io, txn, tree, key, value));
    if (++in_batch >= kBatch) {
      in_batch = 0;
      return db_->Commit(io, txn);
    }
    return Status::OK();
  };

  for (uint32_t i = 0; i < cfg_.items; ++i) {
    DURASSD_RETURN_IF_ERROR(put(trees_.item, KeyU64(i), Row(kItemRow, 'i')));
  }
  for (uint32_t w = 0; w < cfg_.warehouses; ++w) {
    DURASSD_RETURN_IF_ERROR(
        put(trees_.warehouse, KeyU64(w), Row(kWarehouseRow, 'w')));
    for (uint32_t i = 0; i < cfg_.items; ++i) {
      DURASSD_RETURN_IF_ERROR(
          put(trees_.stock, KeyU64U32(w, i), Row(kStockRow, 's')));
    }
    for (uint32_t d = 0; d < cfg_.districts_per_warehouse; ++d) {
      const uint64_t wd = WdKey(w, d, cfg_.districts_per_warehouse);
      DURASSD_RETURN_IF_ERROR(
          put(trees_.district, KeyU64(wd), Row(kDistrictRow, 'd')));
      for (uint32_t c = 0; c < cfg_.customers_per_district; ++c) {
        DURASSD_RETURN_IF_ERROR(
            put(trees_.customer, KeyU64U32(wd, c), Row(kCustomerRow, 'c')));
      }
    }
  }
  if (in_batch != 0) {
    DURASSD_RETURN_IF_ERROR(db_->Commit(io, txn));
  }
  DURASSD_RETURN_IF_ERROR(db_->Checkpoint(io));
  start_time_ = io.now;  // Run continues where the load ended.
  return Status::OK();
}

Status Tpcc::DoNewOrder(IoContext& io, Random& rng, bool* committed) {
  *committed = false;
  const uint32_t w = PickWarehouse(rng);
  const uint32_t d =
      static_cast<uint32_t>(rng.Uniform(cfg_.districts_per_warehouse));
  const uint64_t wd = WdKey(w, d, cfg_.districts_per_warehouse);
  const uint32_t c = NuRand(rng, 1023, cfg_.customers_per_district);
  const uint32_t n_lines = static_cast<uint32_t>(rng.UniformRange(5, 15));

  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  std::string row;
  DURASSD_RETURN_IF_ERROR(db_->Get(io, trees_.warehouse, KeyU64(w), &row));
  DURASSD_RETURN_IF_ERROR(db_->Get(io, trees_.customer, KeyU64U32(wd, c),
                                   &row));
  // District read + D_NEXT_O_ID update.
  DURASSD_RETURN_IF_ERROR(db_->Get(io, trees_.district, KeyU64(wd), &row));
  DURASSD_RETURN_IF_ERROR(
      db_->Put(io, *txn, trees_.district, KeyU64(wd), Row(kDistrictRow, 'D')));
  const uint64_t o_id = next_order_id_[wd]++;

  for (uint32_t l = 0; l < n_lines; ++l) {
    const uint32_t item = NuRand(rng, 8191, cfg_.items);
    DURASSD_RETURN_IF_ERROR(db_->Get(io, trees_.item, KeyU64(item), &row));
    DURASSD_RETURN_IF_ERROR(
        db_->Get(io, trees_.stock, KeyU64U32(w, item), &row));
    DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, trees_.stock,
                                     KeyU64U32(w, item),
                                     Row(kStockRow, 'S')));
    DURASSD_RETURN_IF_ERROR(db_->Put(
        io, *txn, trees_.order_line,
        KeyU64U32U64(wd, static_cast<uint32_t>(o_id), l),
        Row(kOrderLineRow, 'o')));
  }
  DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, trees_.orders,
                                   KeyU64U32(wd, static_cast<uint32_t>(o_id)),
                                   Row(kOrderRow, 'O')));
  DURASSD_RETURN_IF_ERROR(
      db_->Put(io, *txn, trees_.new_order,
               KeyU64U32(wd, static_cast<uint32_t>(o_id)),
               Row(kNewOrderRow, 'n')));
  DURASSD_RETURN_IF_ERROR(db_->Commit(io, *txn));
  *committed = true;
  return Status::OK();
}

Status Tpcc::DoPayment(IoContext& io, Random& rng) {
  const uint32_t w = PickWarehouse(rng);
  const uint32_t d =
      static_cast<uint32_t>(rng.Uniform(cfg_.districts_per_warehouse));
  const uint64_t wd = WdKey(w, d, cfg_.districts_per_warehouse);
  const uint32_t c = NuRand(rng, 1023, cfg_.customers_per_district);

  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  std::string row;
  DURASSD_RETURN_IF_ERROR(db_->Get(io, trees_.warehouse, KeyU64(w), &row));
  DURASSD_RETURN_IF_ERROR(
      db_->Put(io, *txn, trees_.warehouse, KeyU64(w), Row(kWarehouseRow, 'W')));
  DURASSD_RETURN_IF_ERROR(db_->Get(io, trees_.district, KeyU64(wd), &row));
  DURASSD_RETURN_IF_ERROR(
      db_->Put(io, *txn, trees_.district, KeyU64(wd), Row(kDistrictRow, 'E')));
  DURASSD_RETURN_IF_ERROR(
      db_->Get(io, trees_.customer, KeyU64U32(wd, c), &row));
  DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, trees_.customer,
                                   KeyU64U32(wd, c), Row(kCustomerRow, 'C')));
  DURASSD_RETURN_IF_ERROR(db_->Put(
      io, *txn, trees_.history,
      KeyU64U32U64(wd, c, static_cast<uint64_t>(io.now)),
      Row(kHistoryRow, 'h')));
  return db_->Commit(io, *txn);
}

Status Tpcc::DoOrderStatus(IoContext& io, Random& rng) {
  const uint32_t w = PickWarehouse(rng);
  const uint32_t d =
      static_cast<uint32_t>(rng.Uniform(cfg_.districts_per_warehouse));
  const uint64_t wd = WdKey(w, d, cfg_.districts_per_warehouse);
  const uint32_t c = NuRand(rng, 1023, cfg_.customers_per_district);
  std::string row;
  DURASSD_RETURN_IF_ERROR(
      db_->Get(io, trees_.customer, KeyU64U32(wd, c), &row));
  const uint64_t last = next_order_id_[wd];
  if (last > 1) {
    const uint32_t o_id = static_cast<uint32_t>(last - 1);
    Status s = db_->Get(io, trees_.orders, KeyU64U32(wd, o_id), &row);
    if (!s.ok() && !s.IsNotFound()) return s;
    std::vector<std::pair<std::string, std::string>> lines;
    DURASSD_RETURN_IF_ERROR(db_->Scan(io, trees_.order_line,
                                      KeyU64U32U64(wd, o_id, 0), 15, &lines));
  }
  return Status::OK();
}

Status Tpcc::DoDelivery(IoContext& io, Random& rng) {
  const uint32_t w = PickWarehouse(rng);
  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  for (uint32_t d = 0; d < cfg_.districts_per_warehouse; ++d) {
    const uint64_t wd = WdKey(w, d, cfg_.districts_per_warehouse);
    if (next_delivery_id_[wd] >= next_order_id_[wd]) continue;
    const uint32_t o_id = static_cast<uint32_t>(next_delivery_id_[wd]++);
    Status s =
        db_->Delete(io, *txn, trees_.new_order, KeyU64U32(wd, o_id));
    if (!s.ok() && !s.IsNotFound()) return s;
    std::string row;
    s = db_->Get(io, trees_.orders, KeyU64U32(wd, o_id), &row);
    if (s.ok()) {
      DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, trees_.orders,
                                       KeyU64U32(wd, o_id),
                                       Row(kOrderRow, 'P')));
    } else if (!s.IsNotFound()) {
      return s;
    }
    const uint32_t c = NuRand(rng, 1023, cfg_.customers_per_district);
    DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, trees_.customer,
                                     KeyU64U32(wd, c),
                                     Row(kCustomerRow, 'B')));
  }
  return db_->Commit(io, *txn);
}

Status Tpcc::DoStockLevel(IoContext& io, Random& rng) {
  const uint32_t w = PickWarehouse(rng);
  const uint32_t d =
      static_cast<uint32_t>(rng.Uniform(cfg_.districts_per_warehouse));
  const uint64_t wd = WdKey(w, d, cfg_.districts_per_warehouse);
  std::string row;
  DURASSD_RETURN_IF_ERROR(db_->Get(io, trees_.district, KeyU64(wd), &row));
  // Last 20 orders' lines, then the referenced stocks.
  const uint64_t last = next_order_id_[wd];
  const uint64_t first = last > 20 ? last - 20 : 1;
  std::vector<std::pair<std::string, std::string>> lines;
  DURASSD_RETURN_IF_ERROR(
      db_->Scan(io, trees_.order_line,
                KeyU64U32U64(wd, static_cast<uint32_t>(first), 0), 40,
                &lines));
  for (int i = 0; i < 10; ++i) {
    const uint32_t item = NuRand(rng, 8191, cfg_.items);
    Status s = db_->Get(io, trees_.stock, KeyU64U32(w, item), &row);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

SimTime Tpcc::RunOne(uint32_t client, SimTime now) {
  Random& rng = rngs_[client];
  const double roll = rng.NextDouble() * 100.0;
  IoContext io{now};
  Status s;
  if (roll < 45.0) {
    bool committed = false;
    s = DoNewOrder(io, rng, &committed);
    if (committed) {
      result_.new_orders++;
      result_.new_order_latency.Record(io.now - now);
    }
  } else if (roll < 88.0) {
    s = DoPayment(io, rng);
  } else if (roll < 92.0) {
    s = DoOrderStatus(io, rng);
  } else if (roll < 96.0) {
    s = DoDelivery(io, rng);
  } else {
    s = DoStockLevel(io, rng);
  }
  // Each Do* already maps the NotFound its transaction expects to OK.
  if (!s.ok()) result_.failed_ops++;
  return io.now;
}

StatusOr<Tpcc::Result> Tpcc::Run() {
  result_ = Result{};
  const auto fn = [this](uint32_t client, SimTime now) {
    return RunOne(client, now);
  };
  const ClientScheduler::RunResult run =
      ClientScheduler::Run(cfg_.clients, cfg_.transactions, start_time_, fn);
  result_.duration = run.makespan;
  result_.tps_all = run.OpsPerSecond();
  const double minutes =
      static_cast<double>(run.makespan) / (60.0 * kSecond);
  result_.tpmc = minutes <= 0 ? 0 : result_.new_orders / minutes;
  return result_;
}

}  // namespace durassd
