#include "workloads/ycsb.h"

#include <string>

#include "sim/sim_executor.h"

namespace durassd {

namespace {
std::string UserKey(uint64_t id) { return "user" + std::to_string(id); }
}  // namespace

Ycsb::Ycsb(KvStore* store, Config config)
    : store_(store), cfg_(config), zipf_(config.records, config.zipf_theta) {
  rngs_.reserve(cfg_.clients);
  for (uint32_t c = 0; c < cfg_.clients; ++c) {
    rngs_.emplace_back(cfg_.seed * 29 + c);
  }
}

Status Ycsb::Load(IoContext& io) {
  const std::string value(cfg_.value_size, 'y');
  for (uint64_t i = 0; i < cfg_.records; ++i) {
    DURASSD_RETURN_IF_ERROR(store_->Put(io, UserKey(i), value));
  }
  DURASSD_RETURN_IF_ERROR(store_->Commit(io));
  start_time_ = io.now;  // Run continues where the load ended.
  return Status::OK();
}

SimTime Ycsb::RunOne(uint32_t client, SimTime now) {
  Random& rng = rngs_[client];
  const uint64_t id = zipf_.NextScrambled(rng);
  IoContext io{now};
  if (rng.NextDouble() < cfg_.update_fraction) {
    const std::string value(cfg_.value_size, 'u');
    if (!store_->Put(io, UserKey(id), value).ok()) result_.failed_ops++;
    result_.update_latency.Record(io.now - now);
  } else {
    // Load wrote every key, so a read must find it.
    std::string value;
    if (!store_->Get(io, UserKey(id), &value).ok()) result_.failed_ops++;
    result_.read_latency.Record(io.now - now);
  }
  return io.now;
}

StatusOr<Ycsb::Result> Ycsb::Run() {
  result_ = Result{};
  const auto fn = [this](uint32_t client, SimTime now) {
    return RunOne(client, now);
  };
  const SerialExecutor::RunResult run =
      SerialExecutor().Run(cfg_.clients, cfg_.operations, start_time_, fn);
  result_.ops_per_sec = run.OpsPerSecond();
  result_.duration = run.makespan;
  return result_;
}

}  // namespace durassd
