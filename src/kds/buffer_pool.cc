#include "kds/buffer_pool.h"

#include <cassert>

namespace mlds::kds {

BufferPool::BufferPool(size_t capacity, size_t page_bytes)
    : capacity_(capacity), page_bytes_(page_bytes) {}

BufferPool::~BufferPool() = default;

Result<BufferPool::Frame*> BufferPool::Fetch(PageFile* file, uint64_t page,
                                             IoStats* io) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = frames_.find({file, page});
  if (it != frames_.end()) {
    Frame* frame = it->second.get();
    if (capacity_ == 0) {
      // Write-through mode has no cache: the frame is resident only
      // because a writer holds it pinned (the fill page). A reader
      // landing on it still pays the logical block read, keeping the
      // mode's blocks_read == distinct-pages-touched contract exact.
      ++counters_.misses;
      if (io != nullptr) ++io->blocks_read;
    } else {
      ++counters_.hits;
    }
    if (frame->in_lru) {
      lru_.erase(frame->lru_pos);
      frame->in_lru = false;
    }
    ++frame->pins;
    return frame;
  }
  auto frame = std::make_unique<Frame>();
  frame->file = file;
  frame->page = page;
  frame->data.resize(page_bytes_);
  Status s = file->ReadPage(page, frame->data.data());
  if (!s.ok()) return s;
  ++counters_.misses;
  if (io != nullptr) ++io->blocks_read;
  frame->pins = 1;
  Frame* raw = frame.get();
  frames_.emplace(std::make_pair(file, page), std::move(frame));
  return raw;
}

BufferPool::Frame* BufferPool::Create(PageFile* file, uint64_t page) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto frame = std::make_unique<Frame>();
  frame->file = file;
  frame->page = page;
  frame->data.assign(page_bytes_, '\0');
  frame->pins = 1;
  Frame* raw = frame.get();
  frames_[{file, page}] = std::move(frame);
  return raw;
}

void BufferPool::MarkDirty(Frame* frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  frame->dirty = true;
}

Status BufferPool::WriteThrough(Frame* frame, IoStats* io) {
  std::lock_guard<std::mutex> lock(mutex_);
  Status s = frame->file->WritePage(frame->page, frame->data.data());
  if (!s.ok()) {
    if (sticky_error_.ok()) sticky_error_ = s;
    return s;
  }
  frame->dirty = false;
  if (io != nullptr) ++io->blocks_written;
  return Status::OK();
}

Status BufferPool::WriteBackLocked(Frame* frame, IoStats* io, bool eviction) {
  if (!frame->dirty) return Status::OK();
  Status s = frame->file->WritePage(frame->page, frame->data.data());
  if (!s.ok()) {
    if (sticky_error_.ok()) sticky_error_ = s;
    return s;
  }
  frame->dirty = false;
  ++counters_.dirty_writebacks;
  if (io != nullptr) ++io->blocks_written;
  (void)eviction;
  return Status::OK();
}

void BufferPool::RemoveFrameLocked(Frame* frame) {
  if (frame->in_lru) {
    lru_.erase(frame->lru_pos);
    frame->in_lru = false;
  }
  frames_.erase({frame->file, frame->page});
}

void BufferPool::EvictOverflowLocked(IoStats* io) {
  // A victim whose dirty write-back fails must NOT be discarded: its
  // on-disk page is stale, so dropping the frame would silently serve
  // old bytes on the next fetch. The victim is rotated to the MRU end
  // instead and the next candidate is tried; if every unpinned frame
  // fails, the pool temporarily exceeds capacity and the sticky error
  // surfaces through Flush().
  size_t attempts = lru_.size();
  while (lru_.size() > capacity_ && attempts-- > 0) {
    Frame* victim = lru_.front();
    if (!WriteBackLocked(victim, io, /*eviction=*/true).ok()) {
      lru_.erase(victim->lru_pos);
      victim->lru_pos = lru_.insert(lru_.end(), victim);
      continue;
    }
    ++counters_.evictions;
    RemoveFrameLocked(victim);
  }
}

void BufferPool::Unpin(Frame* frame, IoStats* io) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(frame->pins > 0);
  if (--frame->pins > 0) return;
  if (capacity_ == 0) {
    // Write-through mode: no cache. Persist any deferred bytes and drop.
    // On a failed write-back the frame stays resident (the disk copy is
    // stale), so later fetches still see the true bytes and a later
    // Flush retries; the failure is sticky and surfaces there.
    if (WriteBackLocked(frame, io, /*eviction=*/false).ok()) {
      RemoveFrameLocked(frame);
    }
    return;
  }
  frame->lru_pos = lru_.insert(lru_.end(), frame);
  frame->in_lru = true;
  EvictOverflowLocked(io);
}

Status BufferPool::Flush(PageFile* file, IoStats* io) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = frames_.begin(); it != frames_.end();) {
    Frame* frame = it->second.get();
    if (file != nullptr && frame->file != file) {
      ++it;
      continue;
    }
    MLDS_RETURN_IF_ERROR(WriteBackLocked(frame, io, false));
    // Write-through mode holds no cache: a frame kept resident only
    // because an earlier write-back failed is released once its bytes
    // finally land.
    if (capacity_ == 0 && frame->pins == 0 && !frame->dirty) {
      it = frames_.erase(it);
      continue;
    }
    ++it;
  }
  Status s = sticky_error_;
  sticky_error_ = Status::OK();
  return s;
}

void BufferPool::Drop(PageFile* file) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = frames_.begin(); it != frames_.end();) {
    Frame* frame = it->second.get();
    if (frame->file == file) {
      if (frame->in_lru) lru_.erase(frame->lru_pos);
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

PoolCounters BufferPool::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace mlds::kds
