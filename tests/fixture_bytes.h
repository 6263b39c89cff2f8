// Helpers for tests that pin on-disk formats with frozen bytes.
#ifndef STARDUST_TESTS_FIXTURE_BYTES_H_
#define STARDUST_TESTS_FIXTURE_BYTES_H_

#include <cstdint>
#include <string>
#include <utility>

namespace stardust {

/// Decodes a lowercase hex string (two digits per byte).
inline std::string FromHex(const std::string& hex) {
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const auto nibble = [](char c) -> unsigned {
      if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
      return static_cast<unsigned>(c - 'a') + 10;
    };
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return bytes;
}

/// Overwrites the `width`-byte little-endian integer at `offset` — how
/// tests plant a hostile count or id in otherwise valid bytes.
inline std::string Patched(std::string bytes, std::size_t offset,
                           std::uint64_t value, int width = 8) {
  for (int i = 0; i < width; ++i) {
    bytes[offset + i] = static_cast<char>(value >> (8 * i));
  }
  return bytes;
}

/// Rewrites the version field of a 4-byte magic + u32 version + u64
/// checksum envelope. The checksum covers only the payload, so it stays
/// valid and the version check is what a reader trips on.
inline std::string WithVersion(std::string bytes, std::uint32_t version) {
  return Patched(std::move(bytes), 4, version, 4);
}

}  // namespace stardust

#endif  // STARDUST_TESTS_FIXTURE_BYTES_H_
