#include "spans.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSim:
      return "sim";
    case Layer::kDb:
      return "db";
    case Layer::kKv:
      return "kv";
    case Layer::kHost:
      return "host";
    case Layer::kSsd:
      return "ssd";
    default:
      return "?";
  }
}

int32_t SpanRecorder::Begin(const char* name, Layer layer, SimTime v_issue) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request_;
  s.v_issue = v_issue;
  const auto idx = static_cast<int32_t>(spans_.size());
  stack_.push_back(idx);
  s.wall_start = WallNs();
  spans_.push_back(s);
  return idx;
}

void SpanRecorder::End(int32_t idx, SimTime v_done, bool ok) {
  const int64_t now = WallNs();
  Span& s = spans_[static_cast<size_t>(idx)];
  s.wall_end = now;
  s.v_done = v_done;
  s.ok = ok;
  stack_.pop_back();
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f,
          "idx\tparent\trequest\tlayer\tname\tok\twall_start_ns\twall_end_ns\t"
          "v_issue_ns\tv_done_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fprintf(f, "%zu\t%d\t%llu\t%s\t%s\t%d\t%lld\t%lld\t%lld\t%lld\n", i,
            s.parent, static_cast<unsigned long long>(s.request),
            LayerName(s.layer), s.name, s.ok ? 1 : 0,
            static_cast<long long>(s.wall_start),
            static_cast<long long>(s.wall_end),
            static_cast<long long>(s.v_issue),
            static_cast<long long>(s.v_done));
  }
  return fclose(f) == 0;
}

durassd::BlockDevice::Result TracingDevice::Execute(SimTime t,
                                                    const Command& cmd) {
  const char* name = "ssd.flush";
  switch (cmd.op) {
    case Command::Op::kWrite:
      name = "ssd.write";
      break;
    case Command::Op::kRead:
      name = "ssd.read";
      break;
    case Command::Op::kFlush:
      name = "ssd.flush";
      break;
    case Command::Op::kBarrier:
      name = "ssd.barrier";
      break;
  }
  const int32_t idx =
      rec_->enabled() ? rec_->Begin(name, Layer::kSsd, t) : -1;
  Result r;
  switch (cmd.op) {
    case Command::Op::kWrite:
      r = inner_->Write(t, cmd.lpn, cmd.data);
      break;
    case Command::Op::kRead:
      r = inner_->Read(t, cmd.lpn, cmd.nsec, cmd.out);
      break;
    case Command::Op::kFlush:
      r = inner_->Flush(t);
      break;
    case Command::Op::kBarrier:
      r = inner_->Barrier(t);
      break;
  }
  if (!r.status.ok()) failed_cmds_++;
  if (idx >= 0) rec_->End(idx, r.done, r.status.ok());
  return r;
}

double SpanSummary::MeanUs(const char* name) const {
  for (const PerName& p : by_name) {
    if (strcmp(p.name, name) == 0) {
      return p.calls == 0 ? 0.0
                          : static_cast<double>(p.wall_ns) / 1e3 /
                                static_cast<double>(p.calls);
    }
  }
  return 0.0;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary sum;
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.wall_end - s.wall_start;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t dur = s.wall_end - s.wall_start;
    sum.self_ns[static_cast<size_t>(s.layer)] += dur - child_ns[i];
    SpanSummary::PerName* slot = nullptr;
    for (SpanSummary::PerName& p : sum.by_name) {
      if (p.name == s.name || strcmp(p.name, s.name) == 0) slot = &p;
    }
    if (slot == nullptr) {
      sum.by_name.push_back({s.name, 0, 0});
      slot = &sum.by_name.back();
    }
    slot->calls++;
    slot->wall_ns += dur;
  }
  return sum;
}

}  // namespace perfbench
