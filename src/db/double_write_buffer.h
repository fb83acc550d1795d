#ifndef DURASSD_DB_DOUBLE_WRITE_BUFFER_H_
#define DURASSD_DB_DOUBLE_WRITE_BUFFER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "db/io_context.h"
#include "host/durability_mode.h"
#include "host/sim_file.h"

namespace durassd {

/// InnoDB-style double-write buffer (Sec. 2.1): evicted page images are
/// first written sequentially to a dedicated region and fsynced, then
/// written to their home locations, then the data file is fsynced before
/// the region is reused. After a crash, any torn home page is restored from
/// its intact double-write copy. This is exactly the redundancy DuraSSD's
/// atomic page writes make unnecessary.
class DoubleWriteBuffer {
 public:
  struct Options {
    uint32_t page_size = 4 * kKiB;
    /// Pages accumulated in memory before one batched double-write pass.
    uint32_t batch_pages = 16;
    /// Owner's metrics registry; the buffer registers under the "dwb."
    /// prefix. May be null (no metrics collected).
    MetricsRegistry* metrics = nullptr;
    /// Both fsyncs of the double-write protocol exist to *order* phases
    /// (region images before home writes, home writes before region reuse);
    /// in kBarrier mode they become barrier submissions and the batch stops
    /// waiting on media between phases.
    DurabilityMode durability_mode = DurabilityMode::kDurableOrderedNcq;
  };

  DoubleWriteBuffer(SimFile* dwb_file, SimFile* data_file, Options options);

  /// Queues a sealed page image (checksummed) destined for
  /// `page_id * page_size` in the data file. Triggers a batch flush when
  /// the batch is full.
  Status Add(IoContext& io, PageId page_id, std::string image);

  /// Forces out any pending batch (checkpoint path).
  Status FlushBatch(IoContext& io);

  /// True if the given page has a pending (not yet home-written) image.
  /// The buffer pool must serve reads of such pages from here.
  const std::string* PendingImage(PageId page_id) const;

  /// Recovery: returns the page images in the double-write region whose
  /// checksums are intact.
  Status RecoverImages(IoContext& io,
                       std::vector<std::pair<PageId, std::string>>* out);

  struct Stats {
    uint64_t batches = 0;
    uint64_t pages_double_written = 0;
    uint64_t restored_pages = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Attaches (or detaches, with nullptr) an event tracer.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  SimFile* dwb_file_;
  SimFile* data_file_;
  Options opts_;
  std::vector<std::pair<PageId, std::string>> pending_;
  Stats stats_;

  Tracer* tracer_ = nullptr;
  /// Registered metrics (null when no registry was supplied).
  Histogram* h_batch_ns_ = nullptr;
};

}  // namespace durassd

#endif  // DURASSD_DB_DOUBLE_WRITE_BUFFER_H_
