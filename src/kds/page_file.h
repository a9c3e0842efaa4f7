#ifndef MLDS_KDS_PAGE_FILE_H_
#define MLDS_KDS_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "kds/file_io.h"
#include "kds/page.h"

namespace mlds::kds {

/// Fixed-size page array with an attached metadata blob, either purely in
/// memory (no backing path: tests, benches, engines without a data dir)
/// or backed by one file on disk.
///
/// On-disk layout (format 2, checksummed):
///   header page at offset 0 —
///     "MLDSPAGE 2\n" magic, u32 page_bytes, u32 meta_len,
///     u64 next_generation, u64 header_checksum (PageHash64 — the
///     lane-parallel FNV-1a variant — over the header page with this
///     field zeroed), meta bytes —
///   then data *frame* i at offset page_bytes + i * (page_bytes + 16).
///   Each frame is the page payload followed by a 16-byte trailer:
///     u64 checksum — PageHash64 over the payload, folded word-wise
///                    with the page index and generation, so a torn
///                    write, a bit flip, or a misdirected write all
///                    fail the verify —
///     u64 generation — monotonic per-file write stamp (page LSN).
///   A frame of all zeroes is a never-written gap page (eviction can
///   extend the file out of page order) and reads back as a zero page.
///
/// Every ReadPage verifies the frame checksum and returns a structured
/// Status::Corruption on mismatch — the engine never sees garbage bytes.
/// Header updates are crash-atomic via a sidecar journal: the new header
/// is first committed to "<path>.hdr" (write-temp + fsync + rename), then
/// written in place; Open prefers a valid sidecar, so a crash between the
/// two writes can never lose the newer header. Sync() is a real fsync.
///
/// Reads and writes are internally serialized: buffer-pool eviction may
/// write back a page of file B while the caller holds only file A's
/// store lock.
class PageFile {
 public:
  /// Creates an in-memory page file.
  explicit PageFile(size_t page_bytes);

  /// Opens (or creates) the page file at `path` through `io` (the real
  /// POSIX seam when nullptr). An existing file must carry the format-2
  /// magic, a verifying header, and the same page size; integrity events
  /// are recorded in `counters` when provided.
  static Result<std::unique_ptr<PageFile>> Open(
      const std::string& path, size_t page_bytes, FileIo* io = nullptr,
      AtomicIntegrityCounters* counters = nullptr);

  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  size_t page_bytes() const { return page_bytes_; }

  /// Largest metadata blob SetMeta accepts when on disk: the header-page
  /// bytes left after the magic and fixed header fields.
  size_t meta_capacity() const;
  const std::string& path() const { return path_; }
  bool on_disk() const { return file_ != nullptr; }

  /// Number of data pages written so far.
  uint64_t page_count() const;

  /// Reads data page `page` into `buf` (page_bytes long), verifying the
  /// frame checksum. Returns Status::Corruption on a failed verify.
  Status ReadPage(uint64_t page, char* buf) const;

  /// Writes data page `page` from `buf`; `page == page_count()` extends
  /// the file by one page. Stamps a fresh generation + checksum trailer.
  Status WritePage(uint64_t page, const char* buf);

  /// Replaces the metadata blob; persisted immediately when on disk.
  Status SetMeta(std::string meta);
  std::string meta() const;

  /// Drops all data pages (metadata survives). Used by compaction.
  Status Truncate();

  /// Fsyncs the file to stable storage (no-op in memory mode) and
  /// retires the header sidecar once the in-place header is current.
  Status Sync();

  /// Toggles checksum verification on reads (on by default). Only the
  /// integrity bench turns this off, to price the verify itself.
  void set_verify_reads(bool verify) { verify_reads_ = verify; }

 private:
  PageFile(std::string path, std::unique_ptr<FileHandle> file, FileIo* io,
           AtomicIntegrityCounters* counters, size_t page_bytes,
           uint64_t page_count, uint64_t next_generation, std::string meta);

  Status WriteHeaderLocked();

  mutable std::mutex mutex_;
  const size_t page_bytes_;
  const std::string path_;
  std::unique_ptr<FileHandle> file_;  // nullptr in memory mode
  FileIo* io_ = nullptr;              // nullptr in memory mode
  AtomicIntegrityCounters* counters_ = nullptr;  // optional
  uint64_t page_count_ = 0;
  uint64_t next_generation_ = 1;
  bool header_in_place_ = true;  // in-place header matches the sidecar
  bool verify_reads_ = true;
  std::vector<std::string> pages_;  // memory mode backing store
  std::string meta_;
};

}  // namespace mlds::kds

#endif  // MLDS_KDS_PAGE_FILE_H_
