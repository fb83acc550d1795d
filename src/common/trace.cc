#include "common/trace.h"

#include <algorithm>

#include "common/json.h"

namespace durassd {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kCmdStart: return "cmd_start";
    case TraceEventType::kCmdAck: return "cmd_ack";
    case TraceEventType::kReadStart: return "read_start";
    case TraceEventType::kReadDone: return "read_done";
    case TraceEventType::kDestageDone: return "destage_done";
    case TraceEventType::kFlushStart: return "flush_start";
    case TraceEventType::kFlushDone: return "flush_done";
    case TraceEventType::kGcStart: return "gc_start";
    case TraceEventType::kGcEnd: return "gc_end";
    case TraceEventType::kPowerCut: return "power_cut";
    case TraceEventType::kPowerOn: return "power_on";
    case TraceEventType::kDump: return "dump";
    case TraceEventType::kReplay: return "replay";
    case TraceEventType::kTxnCommit: return "txn_commit";
    case TraceEventType::kFsync: return "fsync";
    case TraceEventType::kWalAppend: return "wal_append";
    case TraceEventType::kDoubleWrite: return "double_write";
    case TraceEventType::kKvCommit: return "kv_commit";
    case TraceEventType::kDegraded: return "degraded";
    case TraceEventType::kTxnAbort: return "txn_abort";
    case TraceEventType::kInvariantViolation: return "invariant_violation";
    case TraceEventType::kDestageBatch: return "destage_batch";
    case TraceEventType::kBarrier: return "barrier";
  }
  return "unknown";
}

Tracer::Tracer(size_t capacity) : buf_(std::max<size_t>(capacity, 1)) {}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for (uint64_t i = next_ - size(); i < next_; ++i) {
    out.push_back(buf_[i % buf_.size()]);
  }
  return out;
}

void Tracer::AppendJsonl(std::string* out) const {
  for (const TraceEvent& e : Events()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("t");
    w.Int(e.t);
    w.Key("type");
    w.String(TraceEventTypeName(e.type));
    w.Key("a0");
    w.Uint(e.a0);
    w.Key("a1");
    w.Uint(e.a1);
    w.EndObject();
    out->append(w.str());
    out->push_back('\n');
  }
}

}  // namespace durassd
