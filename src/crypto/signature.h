#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "crypto/hmac.h"
#include "util/types.h"

/// Simulated digital signatures.
///
/// The Srikanth–Toueg authenticated algorithm assumes unforgeable signatures.
/// We model them with per-node HMAC-SHA256 keys held by a KeyRegistry:
///
///  - *Signing* requires a `Signer` capability handle. The simulation runner
///    hands each honest protocol instance only its own handle and hands the
///    adversary the handles of corrupted nodes — so adversary code is
///    structurally unable to sign on behalf of honest nodes, which is exactly
///    the unforgeability assumption. (A "forger" adversary that fabricates
///    MAC bytes exists in src/adversary/ and is rejected with overwhelming
///    probability by verification; a test pins this down.)
///  - *Verification* is public: anyone may call KeyRegistry::verify. In a real
///    deployment this would be public-key verification against a PKI; using a
///    registry-mediated MAC keeps the trust model identical inside one
///    simulation while exercising a real crypto code path.
///
/// Verify once. Every round, all n nodes check the same few signatures over
/// the same round payload, so the registry computes each *true* MAC once and
/// remembers it:
///
///  - Keys are stored as HMAC ipad/opad midstates (crypto/hmac.h), so one MAC
///    over a round payload costs 2 SHA-256 compressions, not 4.
///  - Each signer has a memo of the true MACs of the last two payloads it was
///    asked about (signed or verified), keyed by the payload bytes; payloads
///    longer than kMemoPayloadBytes bypass it. sign() and verify() read the
///    true MAC from the memo, or compute and store it on a miss.
///  - The memo caches true MACs, never verdicts. verify() still compares
///    `sig.mac` with the true MAC for that exact signer and payload, so a
///    forged MAC fails however often it is presented, and a valid signature
///    replayed on another payload (round j's signature shown for round k)
///    fails even while both payloads sit in the memo. verify() therefore
///    stays a pure function of (sig, payload): results are bit-identical to
///    recomputing every MAC.
///  - Locking: signer s's memo entry is guarded by stripe s mod kStripes of
///    a fixed set of mutexes, held across the lookup and, on a miss, the MAC
///    computation, so threads may share one registry and a concurrent miss
///    on one (signer, payload) is computed once. (Each scenario run builds
///    its own registry; the sharing is checked by a 4-thread test.)
namespace stclock::crypto {

struct Signature {
  NodeId signer = 0;
  Digest mac{};

  friend bool operator==(const Signature&, const Signature&) = default;
};

class KeyRegistry;

/// Capability to sign as one node. Copyable but only obtainable from the
/// registry; ownership discipline in core/runner.cpp provides unforgeability.
class Signer {
 public:
  [[nodiscard]] Signature sign(std::span<const std::uint8_t> payload) const;
  [[nodiscard]] NodeId id() const { return id_; }

 private:
  friend class KeyRegistry;
  Signer(NodeId id, const KeyRegistry* registry) : id_(id), registry_(registry) {}

  NodeId id_;
  const KeyRegistry* registry_;
};

class KeyRegistry {
 public:
  /// Derives n per-node secrets deterministically from the master seed.
  KeyRegistry(std::uint32_t n, std::uint64_t master_seed);

  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(keys_.size()); }

  /// Obtains the signing capability for one node. The caller is responsible
  /// for handing it only to that node's protocol instance (or to the
  /// adversary, if the node is corrupted).
  [[nodiscard]] Signer signer_for(NodeId id) const;

  /// Public verification: checks that `sig` is a valid signature by
  /// `sig.signer` over `payload`.
  [[nodiscard]] bool verify(const Signature& sig, std::span<const std::uint8_t> payload) const;

  /// True MACs computed so far by sign() and verify() together: memo misses
  /// plus payloads too long for the memo. Read-only telemetry.
  [[nodiscard]] std::uint64_t mac_computations() const {
    return mac_computations_.load(std::memory_order_relaxed);
  }

  /// Longest payload the memo holds; a round payload is 20 bytes.
  static constexpr std::size_t kMemoPayloadBytes = 24;

 private:
  friend class Signer;
  [[nodiscard]] Signature sign_as(NodeId signer, std::span<const std::uint8_t> payload) const;
  /// The true MAC of `payload` under `signer`'s key, memoized when it fits.
  [[nodiscard]] Digest true_mac(NodeId signer, std::span<const std::uint8_t> payload) const;
  [[nodiscard]] Digest compute_mac(NodeId signer, std::span<const std::uint8_t> payload) const;

  static constexpr std::uint8_t kEmptySlot = 0xff;
  static_assert(kMemoPayloadBytes < kEmptySlot, "a payload length must not read as empty");
  static constexpr std::size_t kStripes = 64;

  struct MemoSlot {
    std::array<std::uint8_t, kMemoPayloadBytes> payload{};
    Digest mac{};
    std::uint8_t len = kEmptySlot;
  };
  struct Memo {
    std::array<MemoSlot, 2> slots;
    std::uint8_t victim = 0;  ///< slot the next miss overwrites (least recently used)
  };
  std::vector<HmacKey> keys_;
  /// memo_[s] is guarded by stripes_[s % kStripes].
  mutable std::vector<Memo> memo_;
  mutable std::array<std::mutex, kStripes> stripes_;
  mutable std::atomic<std::uint64_t> mac_computations_{0};
};

}  // namespace stclock::crypto
