#ifndef DURASSD_SSD_DESTAGE_SCHEDULER_H_
#define DURASSD_SSD_DESTAGE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace durassd {

/// Lazy destage scheduler between the write cache and the FTL (Sec. 3.1.1:
/// a few MB of durable buffer suffice to fill every internal pipeline).
/// Dirty sectors accumulate here after acknowledgement and are issued to
/// NAND in batches — up to one page per plane per round — instead of
/// synchronously inside each write command. Pending sectors pair into full
/// pages at drain time, and two full pages drain as one multi-plane program
/// when the geometry has sibling planes.
///
/// Durability is unaffected: acknowledged-but-unissued sectors sit in the
/// durable cache with program_done == never, which is exactly what the
/// capacitor dump saves on power failure. The scheduler only changes *when
/// NAND is programmed*, never when the host is told data is durable.
///
/// Drain triggers (all invoked by the owner):
///   - batch threshold: a full batch of pages is pending (DrainRound),
///   - idle media: fewer than one page per plane in flight (DrainRound),
///   - frame pressure: the write buffer is out of frames (DrainRound, or
///     DrainAll when nothing is in flight),
///   - FLUSH CACHE / clean shutdown (DrainAll),
///   - idle threshold: the device exploits its own idle time (DrainAll),
///   - power cut: the dump covers pending sectors, and the scheduler goes
///     with the owner's power session.
class DestageScheduler {
 public:
  /// Owner-side destage executors. The scheduler decides *what* to issue
  /// and *how it is grouped*; the owner performs the program and its cache
  /// bookkeeping (program windows, frame release times, histograms).
  class Sink {
   public:
    virtual ~Sink() = default;
    /// Programs one page of 1..sectors_per_page cached sectors.
    virtual Status DestagePage(SimTime t, const std::vector<Lpn>& group) = 0;
    /// Programs two full pages as one multi-plane command on sibling
    /// planes of the least-busy chip.
    virtual Status DestagePagePair(SimTime t, const std::vector<Lpn>& a,
                                   const std::vector<Lpn>& b) = 0;
  };

  struct Options {
    uint32_t sectors_per_page = 2;
    /// Pages one DrainRound may issue (~ one per plane per round).
    uint32_t batch_pages = 256;
    /// Pair two full pages into one multi-plane program command.
    bool multi_plane = false;
  };

  DestageScheduler(Sink* sink, Options options)
      : sink_(sink), opts_(options) {}

  /// Movable, so a power session holding one can be replaced whole.
  DestageScheduler(DestageScheduler&&) = default;
  DestageScheduler& operator=(DestageScheduler&&) = default;

  /// Queues a dirty sector for destage. Returns false when the sector is
  /// already pending — the rewrite was absorbed in place (the caller
  /// refreshed the cached bytes) and no second NAND program will happen.
  bool Add(Lpn lpn, SimTime now);

  bool IsPending(Lpn lpn) const { return pending_.count(lpn) != 0; }
  /// Drops one sector (a rejected command's rollback, or entry removal).
  void Remove(Lpn lpn) { pending_.erase(lpn); }

  size_t pending_sectors() const { return pending_.size(); }
  /// Full pages currently formable from pending sectors.
  size_t pending_full_pages() const {
    return pending_.size() / opts_.sectors_per_page;
  }
  bool empty() const { return pending_.empty(); }
  /// Virtual time of the most recent Add (idle-threshold trigger).
  SimTime last_add_time() const { return last_add_time_; }

  /// Issues up to max_pages *full* pages at time t (batch_pages when 0),
  /// leaving a partial tail pending so it can pair with future writes.
  /// Stops at the first destage error (unissued sectors stay pending for a
  /// later retry). Frame-pressure callers pass the plane count — one page
  /// per plane per round — so most of the buffer keeps absorbing rewrites.
  Status DrainRound(SimTime t, size_t max_pages = 0);
  /// Issues everything pending, partial tail included (FLUSH, shutdown,
  /// frame pressure).
  Status DrainAll(SimTime t);

  /// Pops up to `max_sectors` pending sectors in arrival order (stale fifo
  /// entries skipped), removing them from the pending set. Log-structured
  /// destage uses this to build one segment and issue it as a whole; the
  /// caller owns the popped sectors and must re-Add any it fails to
  /// program.
  std::vector<Lpn> TakePending(size_t max_sectors);

 private:
  Status Drain(SimTime t, size_t max_pages, bool include_partial);
  /// Drops fifo_ entries whose LPN is no longer pending (absorbed rewrites
  /// keep their original queue position; removed sectors leave holes).
  void CompactFifo();

  Sink* sink_;
  Options opts_;
  /// Issue order. May contain stale LPNs (no longer in pending_); drains
  /// skip them and CompactFifo bounds the growth.
  std::deque<Lpn> fifo_;
  /// Pending sectors, each with the stamp of the last drain that staged it
  /// (0 until one does). A drain stages a sector only when its stamp is
  /// older than the drain's own, so a sector that sits in fifo_ twice
  /// (removed, then re-added) is staged once, at its first fifo slot.
  std::unordered_map<Lpn, uint64_t> pending_;
  uint64_t drain_stamp_ = 0;
  /// Page groups staged by the current drain; the buffers are reused
  /// across drains, so a drain allocates nothing once they have grown.
  std::vector<std::vector<Lpn>> groups_;
  SimTime last_add_time_ = 0;
};

}  // namespace durassd

#endif  // DURASSD_SSD_DESTAGE_SCHEDULER_H_
