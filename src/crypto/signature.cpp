#include "crypto/signature.h"

#include <algorithm>

#include "util/bytes.h"
#include "util/contracts.h"

namespace stclock::crypto {

KeyRegistry::KeyRegistry(std::uint32_t n, std::uint64_t master_seed) : memo_(n) {
  ST_REQUIRE(n > 0, "KeyRegistry: need at least one node");
  ByteWriter master;
  master.str("stclock-master-key");
  master.u64(master_seed);
  const HmacKey master_key = hmac_key(sha256(master.data()));

  // Node i's secret is HMAC(master key, str("node-secret") ‖ u32(i)). The
  // message is built once and its trailing little-endian u32 patched per
  // node; with the master midstates that is 2 compressions per secret, and
  // 2 more for the node's own midstates.
  ByteWriter node;
  node.str("node-secret");
  node.u32(0);
  Bytes message = std::move(node).take();
  const std::size_t id_at = message.size() - 4;

  keys_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      message[id_at + b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    keys_.push_back(hmac_key(hmac_sha256(master_key, message)));
  }
}

Signer KeyRegistry::signer_for(NodeId id) const {
  ST_REQUIRE(id < keys_.size(), "signer_for: node id out of range");
  return Signer(id, this);
}

Digest KeyRegistry::compute_mac(NodeId signer, std::span<const std::uint8_t> payload) const {
  mac_computations_.fetch_add(1, std::memory_order_relaxed);
  return hmac_sha256(keys_[signer], payload);
}

Digest KeyRegistry::true_mac(NodeId signer, std::span<const std::uint8_t> payload) const {
  if (payload.size() > kMemoPayloadBytes) return compute_mac(signer, payload);

  const std::lock_guard lock(stripes_[signer % kStripes]);
  Memo& memo = memo_[signer];
  for (std::uint8_t s = 0; s < memo.slots.size(); ++s) {
    const MemoSlot& slot = memo.slots[s];
    if (slot.len == payload.size() &&
        std::equal(payload.begin(), payload.end(), slot.payload.begin())) {
      memo.victim = static_cast<std::uint8_t>(1 - s);
      return slot.mac;
    }
  }
  const Digest mac = compute_mac(signer, payload);
  MemoSlot& slot = memo.slots[memo.victim];
  std::copy(payload.begin(), payload.end(), slot.payload.begin());
  slot.len = static_cast<std::uint8_t>(payload.size());
  slot.mac = mac;
  memo.victim = static_cast<std::uint8_t>(1 - memo.victim);
  return mac;
}

Signature KeyRegistry::sign_as(NodeId signer, std::span<const std::uint8_t> payload) const {
  ST_REQUIRE(signer < keys_.size(), "sign_as: node id out of range");
  return Signature{signer, true_mac(signer, payload)};
}

bool KeyRegistry::verify(const Signature& sig, std::span<const std::uint8_t> payload) const {
  if (sig.signer >= keys_.size()) return false;
  return true_mac(sig.signer, payload) == sig.mac;
}

Signature Signer::sign(std::span<const std::uint8_t> payload) const {
  return registry_->sign_as(id_, payload);
}

}  // namespace stclock::crypto
