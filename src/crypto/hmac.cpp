#include "crypto/hmac.h"

#include <algorithm>
#include <array>

namespace stclock::crypto {

namespace {

constexpr std::size_t kBlockSize = 64;

Sha256::State pad_midstate(const std::array<std::uint8_t, kBlockSize>& block_key,
                           std::uint8_t pad) {
  std::array<std::uint8_t, kBlockSize> padded{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    padded[i] = static_cast<std::uint8_t>(block_key[i] ^ pad);
  }
  Sha256 h;
  h.update(padded);
  return h.midstate();
}

}  // namespace

HmacKey hmac_key(std::span<const std::uint8_t> key) {
  // Keys longer than one block are hashed first.
  std::array<std::uint8_t, kBlockSize> block_key{};
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), block_key.begin());
  } else {
    std::copy(key.begin(), key.end(), block_key.begin());
  }
  return HmacKey{pad_midstate(block_key, 0x36), pad_midstate(block_key, 0x5c)};
}

Digest hmac_sha256(const HmacKey& key, std::span<const std::uint8_t> message) {
  Sha256 inner(key.inner, 1);
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer(key.outer, 1);
  outer.update(inner_digest);
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  return hmac_sha256(hmac_key(key), message);
}

}  // namespace stclock::crypto
