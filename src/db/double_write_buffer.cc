#include "db/double_write_buffer.h"

#include "db/page.h"

namespace durassd {

DoubleWriteBuffer::DoubleWriteBuffer(SimFile* dwb_file, SimFile* data_file,
                                     Options options)
    : dwb_file_(dwb_file), data_file_(data_file), opts_(options) {
  if (opts_.metrics != nullptr) {
    h_batch_ns_ = opts_.metrics->GetHistogram("dwb.batch_ns");
  }
}

Status DoubleWriteBuffer::Add(IoContext& io, PageId page_id,
                              std::string image) {
  // Coalesce: a newer image of the same page supersedes the pending one.
  for (auto& [id, img] : pending_) {
    if (id == page_id) {
      img = std::move(image);
      return Status::OK();
    }
  }
  pending_.emplace_back(page_id, std::move(image));
  if (pending_.size() >= opts_.batch_pages) {
    return FlushBatch(io);
  }
  return Status::OK();
}

const std::string* DoubleWriteBuffer::PendingImage(PageId page_id) const {
  for (const auto& [id, img] : pending_) {
    if (id == page_id) return &img;
  }
  return nullptr;
}

Status DoubleWriteBuffer::FlushBatch(IoContext& io) {
  if (pending_.empty()) return Status::OK();
  const SimTime entered = io.now;
  const uint64_t batch_pages = pending_.size();
  stats_.batches++;
  stats_.pages_double_written += pending_.size();

  // 1. One sequential write of the whole batch into the region, then fsync:
  //    after this the images are recoverable.
  std::string blob;
  blob.reserve(pending_.size() * opts_.page_size);
  for (const auto& [id, img] : pending_) blob.append(img);
  const bool use_barrier =
      opts_.durability_mode == DurabilityMode::kBarrier;
  SimFile::IoResult r = dwb_file_->Write(io.now, 0, blob);
  DURASSD_RETURN_IF_ERROR(r.status);
  io.AdvanceTo(r.done);
  r = use_barrier ? dwb_file_->Barrier(io.now) : dwb_file_->Sync(io.now);
  DURASSD_RETURN_IF_ERROR(r.status);
  io.AdvanceTo(r.done);

  // 2. Home-location writes: all issued at once, then wait for the slowest.
  SimTime latest = io.now;
  for (const auto& [id, img] : pending_) {
    const SimFile::IoResult w = data_file_->Write(
        io.now, static_cast<uint64_t>(id) * opts_.page_size, img);
    DURASSD_RETURN_IF_ERROR(w.status);
    if (w.done > latest) latest = w.done;
  }
  io.AdvanceTo(latest);

  // 3. fsync the data file before the region may be overwritten — pure
  // ordering again, so barrier mode barriers instead.
  r = use_barrier ? data_file_->Barrier(io.now) : data_file_->Sync(io.now);
  DURASSD_RETURN_IF_ERROR(r.status);
  io.AdvanceTo(r.done);

  pending_.clear();
  if (h_batch_ns_) h_batch_ns_->Record(io.now - entered);
  if (tracer_) {
    tracer_->Record(io.now, TraceEventType::kDoubleWrite, batch_pages,
                    static_cast<uint64_t>(io.now - entered));
  }
  return Status::OK();
}

Status DoubleWriteBuffer::RecoverImages(
    IoContext& io, std::vector<std::pair<PageId, std::string>>* out) {
  out->clear();
  const uint64_t region_bytes = dwb_file_->size();
  for (uint64_t off = 0; off + opts_.page_size <= region_bytes;
       off += opts_.page_size) {
    std::string raw;
    const SimFile::IoResult r =
        dwb_file_->Read(io.now, off, opts_.page_size, &raw);
    DURASSD_RETURN_IF_ERROR(r.status);
    io.AdvanceTo(r.done);
    Page page(opts_.page_size);
    page.CopyFrom(raw);
    if (page.header()->magic != Page::kMagic) continue;
    if (!page.VerifyChecksum()) continue;  // This copy itself is torn.
    out->emplace_back(page.page_id(), std::move(raw));
  }
  return Status::OK();
}

}  // namespace durassd
