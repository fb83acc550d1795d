#include "ssd/destage_scheduler.h"

#include <algorithm>

namespace durassd {

bool DestageScheduler::Add(Lpn lpn, SimTime now) {
  last_add_time_ = now;
  if (!pending_.try_emplace(lpn, 0).second) {
    return false;  // Absorbed: already pending, bytes refreshed in place.
  }
  fifo_.push_back(lpn);
  return true;
}

void DestageScheduler::Clear() {
  fifo_.clear();
  pending_.clear();
}

void DestageScheduler::CompactFifo() {
  if (fifo_.size() <= 2 * pending_.size() + 64) return;
  std::deque<Lpn> live;
  for (Lpn lpn : fifo_) {
    if (pending_.count(lpn) != 0) live.push_back(lpn);
  }
  fifo_ = std::move(live);
}

std::vector<Lpn> DestageScheduler::TakePending(size_t max_sectors) {
  std::vector<Lpn> out;
  out.reserve(std::min(max_sectors, pending_.size()));
  while (!fifo_.empty() && out.size() < max_sectors) {
    const Lpn lpn = fifo_.front();
    fifo_.pop_front();
    if (pending_.erase(lpn) == 0) continue;  // Stale (absorbed or removed).
    out.push_back(lpn);
  }
  return out;
}

Status DestageScheduler::DrainRound(SimTime t, size_t max_pages) {
  if (max_pages == 0) max_pages = opts_.batch_pages;
  return Drain(t, max_pages, /*include_partial=*/false);
}

Status DestageScheduler::DrainAll(SimTime t) {
  while (!pending_.empty()) {
    DURASSD_RETURN_IF_ERROR(
        Drain(t, opts_.batch_pages, /*include_partial=*/true));
  }
  return Status::OK();
}

Status DestageScheduler::Drain(SimTime t, size_t max_pages,
                               bool include_partial) {
  CompactFifo();

  // Pair pending sectors into pages in arrival order. Stale fifo entries
  // (absorbed or removed since) are skipped, and so is a second fifo entry
  // of a sector this drain already staged; each group is removed from
  // pending_ only once its program was issued, so a failed issue leaves
  // the remainder queued for a later retry.
  const uint64_t stamp = ++drain_stamp_;
  size_t full = 0;  // Full pages staged: groups_[0, full).
  size_t tail = 0;  // Sectors staged in the partial page groups_[full].
  for (Lpn lpn : fifo_) {
    if (full == max_pages) break;
    auto it = pending_.find(lpn);
    if (it == pending_.end() || it->second == stamp) continue;
    it->second = stamp;
    if (tail == 0) {
      if (full == groups_.size()) groups_.emplace_back();
      groups_[full].clear();
    }
    groups_[full].push_back(lpn);
    if (++tail == opts_.sectors_per_page) {
      ++full;
      tail = 0;
    }
  }
  const size_t n =
      full + (include_partial && tail > 0 && full < max_pages ? 1 : 0);

  size_t i = 0;
  while (i < n) {
    const bool full_pair =
        opts_.multi_plane && i + 1 < n &&
        groups_[i].size() == opts_.sectors_per_page &&
        groups_[i + 1].size() == opts_.sectors_per_page;
    if (full_pair) {
      DURASSD_RETURN_IF_ERROR(
          sink_->DestagePagePair(t, groups_[i], groups_[i + 1]));
      for (Lpn lpn : groups_[i]) pending_.erase(lpn);
      for (Lpn lpn : groups_[i + 1]) pending_.erase(lpn);
      i += 2;
    } else {
      DURASSD_RETURN_IF_ERROR(sink_->DestagePage(t, groups_[i]));
      for (Lpn lpn : groups_[i]) pending_.erase(lpn);
      i += 1;
    }
  }
  return Status::OK();
}

}  // namespace durassd
