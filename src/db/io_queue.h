#ifndef DURASSD_DB_IO_QUEUE_H_
#define DURASSD_DB_IO_QUEUE_H_

#include <cassert>
#include <cstdint>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "db/io_context.h"
#include "host/sim_file.h"

namespace durassd {

/// Bounded queue-depth submitter over SimFile's asynchronous write path.
/// SubmitWrite keeps up to `depth` file commands in flight, advancing the
/// caller's clock to the earliest completion when the window is full (the
/// host analogue of a full NCQ). Drain consumes every outstanding
/// completion — always, even after an error — so stale completions never
/// leak to a later user of the file, and returns the first error seen with
/// the time the last completion landed.
class FileIoQueue {
 public:
  FileIoQueue(SimFile* file, uint32_t depth) : file_(file), depth_(depth) {
    assert(depth >= 1);
  }

  FileIoQueue(const FileIoQueue&) = delete;
  FileIoQueue& operator=(const FileIoQueue&) = delete;

  /// Submits one write, stalling (in virtual time) while the window is
  /// full. Errors are deferred to Drain.
  void SubmitWrite(IoContext& io, uint64_t offset, Slice data) {
    while (file_->pending_count() >= depth_) {
      io.AdvanceTo(file_->EarliestPendingDone());
      for (const SimFile::Completion& c : file_->Poll(io.now)) Absorb(c);
    }
    file_->SubmitWrite(io.now, offset, data);
  }

  /// Waits for everything in flight; returns the first error seen across
  /// the queue's whole lifetime (OK if none).
  Status Drain(IoContext& io) {
    while (file_->pending_count() > 0) {
      io.AdvanceTo(file_->EarliestPendingDone());
      for (const SimFile::Completion& c : file_->Poll(io.now)) Absorb(c);
    }
    return first_error_;
  }

 private:
  void Absorb(const SimFile::Completion& c) {
    if (first_error_.ok() && !c.status.ok()) first_error_ = c.status;
  }

  SimFile* file_;
  uint32_t depth_;
  Status first_error_;
};

}  // namespace durassd

#endif  // DURASSD_DB_IO_QUEUE_H_
