#ifndef MLDS_KFS_CHUNK_SOURCE_H_
#define MLDS_KFS_CHUNK_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

namespace mlds::kfs {

/// Incremental producer of one rendered result body. The wire server
/// pulls chunks as its write buffer drains, so a million-row RETRIEVE
/// renders O(chunk) bytes at a time instead of one giant string.
/// Concatenating every chunk yields exactly the bytes the buffered
/// formatter produces — byte-identity is the contract streaming is
/// tested against.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// True once every byte has been produced.
  virtual bool done() const = 0;

  /// Produces the next chunk, at most ~`max_bytes` long (one line may
  /// overshoot so progress is always made). Empty only when done().
  virtual std::string Next(size_t max_bytes) = 0;

  /// Exact size of the full rendering, known up front.
  virtual size_t total_bytes() const = 0;

  /// Produces every remaining byte at once: the buffered form of the
  /// body, byte-identical to concatenating the chunks.
  virtual std::string Drain() {
    std::string out;
    out.reserve(total_bytes());
    while (!done()) out += Next(size_t{1} << 20);
    return out;
  }
};

/// ChunkSource over an already-rendered body: bounds the *receiver's*
/// frame sizes (and the sender's write buffer) when a formatter has no
/// incremental form.
class StringChunkSource : public ChunkSource {
 public:
  explicit StringChunkSource(std::string body) : body_(std::move(body)) {}

  bool done() const override { return pos_ == body_.size(); }
  size_t total_bytes() const override { return body_.size(); }

  std::string Next(size_t max_bytes) override {
    const size_t n = std::min(max_bytes, body_.size() - pos_);
    std::string chunk = body_.substr(pos_, n);
    pos_ += n;
    return chunk;
  }

  /// Hands the body over without copying it.
  std::string Drain() override {
    std::string rest = pos_ == 0 ? std::move(body_) : body_.substr(pos_);
    body_.clear();
    pos_ = 0;
    return rest;
  }

 private:
  std::string body_;
  size_t pos_ = 0;
};

}  // namespace mlds::kfs

#endif  // MLDS_KFS_CHUNK_SOURCE_H_
