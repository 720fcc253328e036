#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.h"

/// SHA-256 (FIPS 180-4), implemented from scratch so the repository has no
/// external crypto dependency. Used by HMAC-SHA256, which in turn backs the
/// simulated signature scheme in crypto/signature.h.
namespace stclock::crypto {

inline constexpr std::size_t kDigestSize = 32;
using Digest = std::array<std::uint8_t, kDigestSize>;

/// Incremental hasher: update() any number of times, then finish().
class Sha256 {
 public:
  /// The eight-word chaining value between 64-byte blocks.
  using State = std::array<std::uint32_t, 8>;

  Sha256();

  /// Resumes a hash whose first `blocks` 64-byte blocks left the chaining
  /// value `state` (see midstate()). HMAC uses this to hash its fixed
  /// ipad/opad key block once per key instead of once per message.
  Sha256(const State& state, std::uint64_t blocks);

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);

  /// Finalizes and returns the digest; the hasher must not be reused after.
  [[nodiscard]] Digest finish();

  /// The chaining value so far. Only defined at a block boundary (the bytes
  /// fed are a multiple of 64), and only before finish().
  [[nodiscard]] const State& midstate() const;

 private:
  void process_block(const std::uint8_t* block);

  State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finished_ = false;
};

/// One-shot convenience.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Digest sha256(std::string_view s);

}  // namespace stclock::crypto
