#pragma once

#include <span>

#include "crypto/sha256.h"

/// HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on the local SHA-256.
namespace stclock::crypto {

/// A key's HMAC schedule: the SHA-256 chaining values after its ipad and its
/// opad block. A MAC under a prepared key skips those two compressions, so a
/// message of up to 55 bytes costs 2 compressions instead of 4.
struct HmacKey {
  Sha256::State inner{};
  Sha256::State outer{};
};

[[nodiscard]] HmacKey hmac_key(std::span<const std::uint8_t> key);

[[nodiscard]] Digest hmac_sha256(const HmacKey& key, std::span<const std::uint8_t> message);

/// One-shot form: hmac_sha256(hmac_key(key), message).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

}  // namespace stclock::crypto
