// Minimal binary (de)serialization substrate for snapshots.
//
// Fixed-width little-endian encoding, bounds-checked reads, and the one
// envelope (magic + version + FNV-1a payload checksum) every persisted
// format is framed in. No exceptions: every read returns Status.
#ifndef STARDUST_COMMON_SERIALIZE_H_
#define STARDUST_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace stardust {

/// Appends primitives to a growing byte buffer.
class Writer {
 public:
  void U8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  /// Allocator-generic so over-aligned hot arrays (common/aligned.h)
  /// serialize identically to plain vectors.
  template <typename Alloc>
  void DoubleVector(const std::vector<double, Alloc>& values) {
    DoubleSpan(values.data(), values.size());
  }
  /// The DoubleVector encoding of `count` values read from `values`.
  void DoubleSpan(const double* values, std::size_t count) {
    U64(count);
    for (std::size_t i = 0; i < count; ++i) F64(values[i]);
  }

  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked sequential reader over a byte buffer.
class Reader {
 public:
  explicit Reader(const std::string& buffer) : buffer_(buffer) {}

  std::size_t remaining() const { return buffer_.size() - offset_; }
  bool AtEnd() const { return remaining() == 0; }

  Status U8(std::uint8_t* out) {
    if (remaining() < 1) return Truncated();
    *out = static_cast<std::uint8_t>(buffer_[offset_++]);
    return Status::OK();
  }

  Status U32(std::uint32_t* out) {
    if (remaining() < 4) return Truncated();
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(buffer_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 4;
    *out = v;
    return Status::OK();
  }

  Status U64(std::uint64_t* out) {
    if (remaining() < 8) return Truncated();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(buffer_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 8;
    *out = v;
    return Status::OK();
  }

  Status F64(double* out) {
    std::uint64_t bits = 0;
    SD_RETURN_NOT_OK(U64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  /// Reads `size` raw bytes into `out`.
  Status Bytes(std::uint64_t size, std::string* out) {
    if (size > remaining()) return Truncated();
    out->assign(buffer_, offset_, static_cast<std::size_t>(size));
    offset_ += static_cast<std::size_t>(size);
    return Status::OK();
  }

  /// Reads a length-prefixed vector with a sanity cap against corrupt
  /// lengths blowing up memory. Allocator-generic (see Writer).
  template <typename Alloc>
  Status DoubleVector(std::vector<double, Alloc>* out,
                      std::uint64_t max_size = (1ULL << 32)) {
    std::uint64_t size = 0;
    SD_RETURN_NOT_OK(U64(&size));
    if (size > max_size || size * 8 > remaining()) return Truncated();
    out->resize(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      SD_RETURN_NOT_OK(F64(&(*out)[i]));
    }
    return Status::OK();
  }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("snapshot truncated or corrupt");
  }

  const std::string& buffer_;
  std::size_t offset_ = 0;
};

/// FNV-1a 64-bit checksum.
inline std::uint64_t Fnv1a(const std::string& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Size of the envelope header: 4-byte magic, u32 version, u64 checksum.
inline constexpr std::size_t kEnvelopeHeaderBytes = 16;

/// Frames `payload` in the envelope every persisted format uses: the
/// format's magic, its version, the FNV-1a checksum of the payload, then
/// the payload itself.
inline std::string WrapEnvelope(const char (&magic)[4], std::uint32_t version,
                                const std::string& payload) {
  Writer envelope;
  envelope.Bytes(magic, sizeof(magic));
  envelope.U32(version);
  envelope.U64(Fnv1a(payload));
  envelope.Bytes(payload.data(), payload.size());
  return std::move(envelope.TakeBuffer());
}

/// Checks a WrapEnvelope frame's size, magic and payload checksum, and
/// extracts its version and payload; `what` names the format in the
/// diagnostics. The caller checks the version.
inline Status UnwrapEnvelope(const std::string& bytes,
                             const char (&magic)[4], const char* what,
                             std::uint32_t* version, std::string* payload) {
  if (bytes.size() < kEnvelopeHeaderBytes) {
    return Status::InvalidArgument(std::string(what) + " too small");
  }
  if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(std::string(what) +
                                   " has the wrong magic");
  }
  const std::string header = bytes.substr(sizeof(magic), 12);
  Reader reader(header);
  std::uint64_t checksum = 0;
  SD_RETURN_NOT_OK(reader.U32(version));
  SD_RETURN_NOT_OK(reader.U64(&checksum));
  *payload = bytes.substr(kEnvelopeHeaderBytes);
  if (Fnv1a(*payload) != checksum) {
    return Status::InvalidArgument(std::string(what) + " checksum mismatch");
  }
  return Status::OK();
}

}  // namespace stardust

#endif  // STARDUST_COMMON_SERIALIZE_H_
