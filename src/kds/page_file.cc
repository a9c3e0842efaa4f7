#include "kds/page_file.h"

#include <cstring>
#include <string_view>
#include <utility>

#include "common/checksum.h"

namespace mlds::kds {

namespace {

constexpr char kMagic[] = "MLDSPAGE 2\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;
// Header layout: magic, u32 page_bytes, u32 meta_len, u64 next_generation,
// u64 header_checksum, meta bytes.
constexpr size_t kHdrPageBytesOff = kMagicLen;
constexpr size_t kHdrMetaLenOff = kMagicLen + 4;
constexpr size_t kHdrGenerationOff = kMagicLen + 8;
constexpr size_t kHdrChecksumOff = kMagicLen + 16;
constexpr size_t kHdrMetaOff = kMagicLen + 24;
// Data frame trailer: u64 checksum, u64 generation.
constexpr size_t kTrailerBytes = 16;

void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = char((v >> (8 * i)) & 0xff);
}

uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(uint8_t(in[i])) << (8 * i);
  return v;
}

void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = char((v >> (8 * i)) & 0xff);
}

uint64_t GetU64(const char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(uint8_t(in[i])) << (8 * i);
  return v;
}

/// Checksum for data frame `page`: the payload continued with the page
/// index and generation, so torn, flipped, and misdirected writes all
/// fail the verify.
uint64_t FrameChecksum(const char* payload, size_t page_bytes, uint64_t page,
                       uint64_t generation) {
  // PageHash64: lane-parallel over the payload, so the verify-on-fetch
  // runs at memory speed; the page index and generation fold in
  // word-wise on top of the already-mixed digest.
  uint64_t state = common::PageHash64(std::string_view(payload, page_bytes));
  state = common::Fnv1a64Word(state, page);
  return common::Fnv1a64Word(state, generation);
}

/// Builds the header page for `meta` / `next_generation`, checksummed
/// over the whole page with the checksum field zeroed.
std::string BuildHeader(size_t page_bytes, const std::string& meta,
                        uint64_t next_generation) {
  std::string header(page_bytes, '\0');
  std::memcpy(header.data(), kMagic, kMagicLen);
  PutU32(header.data() + kHdrPageBytesOff, uint32_t(page_bytes));
  PutU32(header.data() + kHdrMetaLenOff, uint32_t(meta.size()));
  PutU64(header.data() + kHdrGenerationOff, next_generation);
  std::memcpy(header.data() + kHdrMetaOff, meta.data(), meta.size());
  const uint64_t checksum = common::PageHash64(header);
  PutU64(header.data() + kHdrChecksumOff, checksum);
  return header;
}

/// Verifies and parses a candidate header page. Returns false when the
/// magic, size, or checksum does not hold.
bool ParseHeader(std::string_view header, size_t page_bytes,
                 std::string* meta, uint64_t* next_generation) {
  if (header.size() != page_bytes) return false;
  if (std::memcmp(header.data(), kMagic, kMagicLen) != 0) return false;
  if (GetU32(header.data() + kHdrPageBytesOff) != page_bytes) return false;
  const uint32_t meta_len = GetU32(header.data() + kHdrMetaLenOff);
  if (kHdrMetaOff + size_t(meta_len) > page_bytes) return false;
  const uint64_t stored = GetU64(header.data() + kHdrChecksumOff);
  std::string zeroed(header);
  std::memset(zeroed.data() + kHdrChecksumOff, 0, 8);
  if (common::PageHash64(zeroed) != stored) return false;
  *meta = std::string(header.substr(kHdrMetaOff, meta_len));
  *next_generation = GetU64(header.data() + kHdrGenerationOff);
  return true;
}

bool AllZero(const char* buf, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (buf[i] != '\0') return false;
  }
  return true;
}

/// Counts one storage event when the engine attached its counters.
void Count(AtomicIntegrityCounters* counters,
           uint64_t IntegrityCounters::*member) {
  if (counters != nullptr) counters->Add(member);
}

}  // namespace

PageFile::PageFile(size_t page_bytes) : page_bytes_(page_bytes) {}

PageFile::PageFile(std::string path, std::unique_ptr<FileHandle> file,
                   FileIo* io, AtomicIntegrityCounters* counters,
                   size_t page_bytes, uint64_t page_count,
                   uint64_t next_generation, std::string meta)
    : page_bytes_(page_bytes),
      path_(std::move(path)),
      file_(std::move(file)),
      io_(io),
      counters_(counters),
      page_count_(page_count),
      next_generation_(next_generation),
      meta_(std::move(meta)) {}

PageFile::~PageFile() = default;

Result<std::unique_ptr<PageFile>> PageFile::Open(
    const std::string& path, size_t page_bytes, FileIo* io,
    AtomicIntegrityCounters* counters) {
  if (page_bytes < 64 || page_bytes > kMaxPageBytes) {
    return Status::InvalidArgument("page_file: unsupported page size");
  }
  if (io == nullptr) io = FileIo::Default();
  auto opened = io->Open(path, /*create=*/true);
  if (!opened.ok()) {
    Count(counters, &IntegrityCounters::io_errors_real);
    return opened.status();
  }
  std::unique_ptr<FileHandle> file = std::move(*opened);
  auto size = file->Size();
  if (!size.ok()) return size.status();

  if (*size == 0) {
    auto pf = std::unique_ptr<PageFile>(new PageFile(
        path, std::move(file), io, counters, page_bytes, 0, 1, ""));
    std::lock_guard<std::mutex> lock(pf->mutex_);
    MLDS_RETURN_IF_ERROR(pf->WriteHeaderLocked());
    return pf;
  }

  // Existing file: the newest header is the sidecar when one survives
  // (a crash between sidecar commit and the in-place write), else the
  // in-place header page.
  std::string in_place;
  if (*size >= page_bytes) {
    in_place.resize(page_bytes);
    auto got = file->ReadAt(0, in_place.data(), page_bytes);
    if (!got.ok() || *got != page_bytes) in_place.clear();
  }
  std::string meta;
  uint64_t next_generation = 1;
  bool header_ok = false;
  const std::string sidecar_path = path + ".hdr";
  if (io->Exists(sidecar_path)) {
    auto sidecar = io->ReadFile(sidecar_path);
    if (sidecar.ok() &&
        ParseHeader(*sidecar, page_bytes, &meta, &next_generation)) {
      header_ok = true;
      // Repair the (possibly torn) in-place header from the sidecar.
      if (in_place != *sidecar) {
        MLDS_RETURN_IF_ERROR(file->WriteAt(0, sidecar->data(), page_bytes));
      }
    }
  }
  if (!header_ok) {
    header_ok = ParseHeader(in_place, page_bytes, &meta, &next_generation);
  }
  if (!header_ok) {
    Count(counters, &IntegrityCounters::checksum_failures);
    return Status::Corruption("page_file: bad header in " + path);
  }

  const uint64_t frame_bytes = page_bytes + kTrailerBytes;
  const uint64_t data_bytes = *size > page_bytes ? *size - page_bytes : 0;
  if (data_bytes % frame_bytes != 0) {
    Count(counters, &IntegrityCounters::checksum_failures);
    return Status::Corruption("page_file: torn frame tail in " + path);
  }
  return std::unique_ptr<PageFile>(
      new PageFile(path, std::move(file), io, counters, page_bytes,
                   data_bytes / frame_bytes, next_generation,
                   std::move(meta)));
}

uint64_t PageFile::page_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return page_count_;
}

Status PageFile::ReadPage(uint64_t page, char* buf) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (page >= page_count_) {
    return Status::NotFound("page_file: page out of range");
  }
  if (file_ == nullptr) {
    std::memcpy(buf, pages_[page].data(), page_bytes_);
    return Status::OK();
  }
  const uint64_t frame_bytes = page_bytes_ + kTrailerBytes;
  const uint64_t offset = page_bytes_ + page * frame_bytes;
  // Reused across calls: a fresh zero-initialized vector per read costs
  // an alloc + 8KB memset on the hot fetch path.
  thread_local std::vector<char> frame;
  frame.resize(frame_bytes);
  auto got = file_->ReadAt(offset, frame.data(), frame_bytes);
  if (!got.ok()) {
    Count(counters_, &IntegrityCounters::io_errors_real);
    return got.status();
  }
  if (*got != frame_bytes) {
    Count(counters_, &IntegrityCounters::io_errors_real);
    return Status::Corruption("page_file: short read in " + path_);
  }
  if (verify_reads_) {
    const uint64_t stored = GetU64(frame.data() + page_bytes_);
    const uint64_t generation = GetU64(frame.data() + page_bytes_ + 8);
    if (stored == 0 && generation == 0) {
      // A never-written gap page (eviction extends the file out of page
      // order): legitimate only when the whole frame is zero.
      if (!AllZero(frame.data(), page_bytes_)) {
        Count(counters_, &IntegrityCounters::checksum_failures);
        return Status::Corruption("page_file: corrupt gap page " +
                                  std::to_string(page) + " in " + path_);
      }
    } else if (FrameChecksum(frame.data(), page_bytes_, page, generation) !=
               stored) {
      Count(counters_, &IntegrityCounters::checksum_failures);
      return Status::Corruption("page_file: checksum mismatch on page " +
                                std::to_string(page) + " in " + path_);
    }
  }
  std::memcpy(buf, frame.data(), page_bytes_);
  return Status::OK();
}

Status PageFile::WritePage(uint64_t page, const char* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Writes may extend the file out of page-number order: LRU eviction
  // flushes frames in recency order, so page 5 can reach the medium
  // before pages 3 and 4. Gap pages stay zeroed (slot_count 0), which
  // every scan skips.
  if (file_ == nullptr) {
    if (page >= page_count_) {
      pages_.resize(page + 1, std::string(page_bytes_, '\0'));
      page_count_ = page + 1;
    }
    pages_[page].assign(buf, page_bytes_);
    return Status::OK();
  }
  const uint64_t frame_bytes = page_bytes_ + kTrailerBytes;
  const uint64_t generation = next_generation_++;
  thread_local std::vector<char> frame;
  frame.resize(frame_bytes);
  std::memcpy(frame.data(), buf, page_bytes_);
  PutU64(frame.data() + page_bytes_,
         FrameChecksum(buf, page_bytes_, page, generation));
  PutU64(frame.data() + page_bytes_ + 8, generation);
  Status wrote = file_->WriteAt(page_bytes_ + page * frame_bytes,
                                frame.data(), frame_bytes);
  if (!wrote.ok()) {
    Count(counters_, &IntegrityCounters::io_errors_real);
    return wrote;
  }
  if (page >= page_count_) page_count_ = page + 1;
  return Status::OK();
}

size_t PageFile::meta_capacity() const {
  return page_bytes_ > kHdrMetaOff ? page_bytes_ - kHdrMetaOff : 0;
}

Status PageFile::SetMeta(std::string meta) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr && kHdrMetaOff + meta.size() > page_bytes_) {
    return Status::InvalidArgument(
        "page_file: metadata exceeds header page");
  }
  meta_ = std::move(meta);
  if (file_ == nullptr) return Status::OK();
  return WriteHeaderLocked();
}

std::string PageFile::meta() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return meta_;
}

Status PageFile::WriteHeaderLocked() {
  const std::string header = BuildHeader(page_bytes_, meta_, next_generation_);
  // Commit point one: the sidecar lands atomically (temp + fsync +
  // rename), so the newest header survives a crash before the in-place
  // write below. Open prefers a valid sidecar for exactly this reason.
  header_in_place_ = false;
  Status sidecar = io_->WriteFileAtomic(path_ + ".hdr", header);
  if (!sidecar.ok()) {
    Count(counters_, &IntegrityCounters::io_errors_real);
    return sidecar;
  }
  Count(counters_, &IntegrityCounters::fsyncs);
  Status in_place = file_->WriteAt(0, header.data(), page_bytes_);
  if (!in_place.ok()) {
    Count(counters_, &IntegrityCounters::io_errors_real);
    return in_place;
  }
  header_in_place_ = true;
  return Status::OK();
}

Status PageFile::Truncate() {
  std::lock_guard<std::mutex> lock(mutex_);
  page_count_ = 0;
  if (file_ == nullptr) {
    pages_.clear();
    return Status::OK();
  }
  Status truncated = file_->Truncate(page_bytes_);
  if (!truncated.ok()) {
    Count(counters_, &IntegrityCounters::io_errors_real);
    return truncated;
  }
  return WriteHeaderLocked();
}

Status PageFile::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::OK();
  Status synced = file_->Sync();
  if (!synced.ok()) {
    Count(counters_, &IntegrityCounters::io_errors_real);
    return synced;
  }
  Count(counters_, &IntegrityCounters::fsyncs);
  // The in-place header is durable and matches the sidecar: the journal
  // has served its purpose.
  if (header_in_place_) (void)io_->Remove(path_ + ".hdr");
  return Status::OK();
}

}  // namespace mlds::kds
