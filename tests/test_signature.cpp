#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/signature.h"
#include "sim/message.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace stclock {
namespace {

/// Node `id`'s secret as KeyRegistry derives it, spelled out with one-shot
/// primitives: HMAC(SHA-256(str("stclock-master-key") || u64(seed)),
/// str("node-secret") || u32(id)). The reference for the memo tests below.
crypto::Digest reference_secret(std::uint64_t master_seed, NodeId id) {
  ByteWriter master;
  master.str("stclock-master-key");
  master.u64(master_seed);
  ByteWriter node;
  node.str("node-secret");
  node.u32(id);
  return crypto::hmac_sha256(crypto::sha256(master.data()), node.data());
}

/// Memo-free true MACs: entry [signer * payloads.size() + payload].
std::vector<crypto::Digest> reference_macs(std::uint64_t master_seed, std::uint32_t signers,
                                           const std::vector<Bytes>& payloads) {
  std::vector<crypto::Digest> macs;
  for (NodeId s = 0; s < signers; ++s) {
    const crypto::Digest secret = reference_secret(master_seed, s);
    for (const Bytes& p : payloads) macs.push_back(crypto::hmac_sha256(secret, p));
  }
  return macs;
}

TEST(Signature, SignVerifyRoundTrip) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(7);
  const crypto::Signature sig = registry.signer_for(2).sign(payload);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(registry.verify(sig, payload));
}

TEST(Signature, WrongPayloadRejected) {
  const crypto::KeyRegistry registry(4, 1);
  const crypto::Signature sig = registry.signer_for(0).sign(round_signing_payload(7));
  EXPECT_FALSE(registry.verify(sig, round_signing_payload(8)));
}

TEST(Signature, CrossSignerRejected) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(1);
  crypto::Signature sig = registry.signer_for(0).sign(payload);
  sig.signer = 1;  // claim somebody else signed it
  EXPECT_FALSE(registry.verify(sig, payload));
}

TEST(Signature, TamperedMacRejected) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(1);
  crypto::Signature sig = registry.signer_for(0).sign(payload);
  sig.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(sig, payload));
}

TEST(Signature, UnknownSignerRejected) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(1);
  crypto::Signature sig = registry.signer_for(3).sign(payload);
  for (const NodeId id : {NodeId{4}, NodeId{99}}) {  // not registered nodes
    sig.signer = id;
    EXPECT_FALSE(registry.verify(sig, payload)) << id;
  }
}

TEST(Signature, DistinctRegistriesIncompatible) {
  // Two systems with different master seeds must not accept each other's
  // signatures (models separate PKIs).
  const crypto::KeyRegistry a(4, 1), b(4, 2);
  const Bytes payload = round_signing_payload(3);
  const crypto::Signature sig = a.signer_for(0).sign(payload);
  EXPECT_FALSE(b.verify(sig, payload));
}

TEST(Signature, DeterministicAcrossReconstruction) {
  const Bytes payload = round_signing_payload(5);
  const crypto::KeyRegistry a(4, 99), b(4, 99);
  EXPECT_EQ(a.signer_for(3).sign(payload), b.signer_for(3).sign(payload));
}

TEST(Signature, SignerOutOfRangeThrows) {
  const crypto::KeyRegistry registry(4, 1);
  EXPECT_THROW((void)registry.signer_for(4), std::logic_error);
}

TEST(Signature, RoundPayloadsAreInjective) {
  EXPECT_NE(round_signing_payload(1), round_signing_payload(2));
  EXPECT_NE(round_signing_payload(0), round_signing_payload(1));
  // Large rounds too (bit patterns beyond 32 bits).
  EXPECT_NE(round_signing_payload(1ULL << 40), round_signing_payload((1ULL << 40) + 1));
}

TEST(Signature, MatchesReferenceDerivation) {
  // Sign through the registry's prepared keys must give exactly the MAC of
  // the documented key derivation: this is what keeps golden bytes fixed.
  const crypto::KeyRegistry registry(300, 0x5eed);
  for (const NodeId id : {NodeId{0}, NodeId{1}, NodeId{255}, NodeId{256}, NodeId{299}}) {
    const Bytes payload = round_signing_payload(id + 1);
    EXPECT_EQ(registry.signer_for(id).sign(payload).mac,
              crypto::hmac_sha256(reference_secret(0x5eed, id), payload))
        << id;
  }
}

TEST(Signature, ForgedMacRejectedBeforeAndAfterMemoized) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes payload = round_signing_payload(7);
  crypto::Signature forged{2, {}};
  forged.mac.fill(0xab);
  EXPECT_FALSE(registry.verify(forged, payload));  // miss: computes, memoizes
  const crypto::Signature valid = registry.signer_for(2).sign(payload);
  EXPECT_FALSE(registry.verify(forged, payload));  // hit: still rejected
  EXPECT_TRUE(registry.verify(valid, payload));
  crypto::Signature flipped = valid;
  flipped.mac[31] ^= 0x80;
  EXPECT_FALSE(registry.verify(flipped, payload));
  EXPECT_EQ(registry.mac_computations(), 1u);
}

TEST(Signature, CrossPayloadReplayRejectedWhileBothMemoized) {
  const crypto::KeyRegistry registry(4, 1);
  const Bytes round_j = round_signing_payload(5);
  const Bytes round_k = round_signing_payload(6);
  const crypto::Signature sig_j = registry.signer_for(1).sign(round_j);
  const crypto::Signature sig_k = registry.signer_for(1).sign(round_k);
  // Both true MACs now sit in signer 1's memo.
  EXPECT_FALSE(registry.verify(sig_j, round_k));
  EXPECT_FALSE(registry.verify(sig_k, round_j));
  EXPECT_TRUE(registry.verify(sig_j, round_j));
  EXPECT_TRUE(registry.verify(sig_k, round_k));
  EXPECT_EQ(registry.mac_computations(), 2u);
}

TEST(Signature, VerifyOnceCostsOneMac) {
  const crypto::KeyRegistry registry(8, 3);
  const Bytes payload = round_signing_payload(11);
  crypto::Signature forged{5, {}};
  forged.mac[0] = 1;
  for (int i = 0; i < 1000; ++i) ASSERT_FALSE(registry.verify(forged, payload));
  EXPECT_EQ(registry.mac_computations(), 1u);

  const crypto::Signature valid = registry.signer_for(6).sign(payload);  // one miss
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(registry.verify(valid, payload));
  EXPECT_EQ(registry.mac_computations(), 2u);
}

TEST(Signature, ThreePayloadsAlternatingEvictCorrectly) {
  // Two slots per signer, three payloads in rotation: every access misses
  // and evicts the least recently used slot, and every verdict stays right.
  const std::uint64_t seed = 9;
  const crypto::KeyRegistry registry(3, seed);
  const Bytes payloads[] = {round_signing_payload(1), round_signing_payload(2),
                            round_signing_payload(3)};
  crypto::Signature sigs[3];
  for (int p = 0; p < 3; ++p) {
    sigs[p] = crypto::Signature{0, crypto::hmac_sha256(reference_secret(seed, 0), payloads[p])};
  }
  std::uint64_t calls = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (int p = 0; p < 3; ++p) {
      EXPECT_TRUE(registry.verify(sigs[p], payloads[p]));
      EXPECT_FALSE(registry.verify(sigs[(p + 1) % 3], payloads[p]));  // hit right after
      calls += 1;
    }
  }
  EXPECT_EQ(registry.mac_computations(), calls);
  // The two most recent payloads (2 and 3) are memoized; payload 1 was evicted.
  (void)registry.verify(sigs[1], payloads[1]);
  (void)registry.verify(sigs[2], payloads[2]);
  EXPECT_EQ(registry.mac_computations(), calls);
  (void)registry.verify(sigs[0], payloads[0]);
  EXPECT_EQ(registry.mac_computations(), calls + 1);

  // Eviction is least recently used, not first in: the memo now holds 1
  // (inserted last) and 3 (inserted before it). Touch 3, then miss on 2:
  // 1 is evicted and 3 stays.
  (void)registry.verify(sigs[2], payloads[2]);
  (void)registry.verify(sigs[1], payloads[1]);
  EXPECT_EQ(registry.mac_computations(), calls + 2);
  (void)registry.verify(sigs[2], payloads[2]);
  EXPECT_EQ(registry.mac_computations(), calls + 2);
}

TEST(Signature, PayloadLongerThanMemoSlotVerifies) {
  const std::uint64_t seed = 4;
  const crypto::KeyRegistry registry(4, seed);
  const Bytes inline_max(crypto::KeyRegistry::kMemoPayloadBytes, 0x11);
  const Bytes too_long(crypto::KeyRegistry::kMemoPayloadBytes + 1, 0x11);
  const crypto::Signature sig_long = registry.signer_for(3).sign(too_long);
  EXPECT_EQ(sig_long.mac, crypto::hmac_sha256(reference_secret(seed, 3), too_long));
  EXPECT_TRUE(registry.verify(sig_long, too_long));
  EXPECT_FALSE(registry.verify(sig_long, inline_max));  // shares a 24-byte prefix
  crypto::Signature flipped = sig_long;
  flipped.mac[7] ^= 0x01;
  EXPECT_FALSE(registry.verify(flipped, too_long));
  // Long payloads bypass the memo: every call computes.
  EXPECT_EQ(registry.mac_computations(), 4u);
}

TEST(Signature, DifferentialAgainstMemoFreeReference) {
  // 10^5 random verifications over many signers and payloads (round
  // payloads and raw payloads of 0..40 bytes, so some bypass the memo),
  // valid, bit-flipped, or claimed by the wrong signer, must agree with
  // recomputing the MAC from scratch.
  const std::uint64_t seed = 77;
  constexpr std::uint32_t kSigners = 37;
  const crypto::KeyRegistry registry(kSigners, seed);
  Rng rng(2024);

  std::vector<Bytes> payloads;
  for (Round k = 0; k < 8; ++k) payloads.push_back(round_signing_payload(k));
  for (std::size_t len = 0; len <= 40; len += 5) {
    Bytes raw(len);
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next_u64());
    payloads.push_back(raw);
  }
  const std::vector<crypto::Digest> true_macs = reference_macs(seed, kSigners, payloads);

  int accepted = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, kSigners - 1));
    const std::size_t p = rng.uniform_int(0, payloads.size() - 1);
    crypto::Signature sig{s, true_macs[s * payloads.size() + p]};
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const std::size_t bit = rng.uniform_int(0, 255);
        sig.mac[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        break;
      }
      case 1:
        sig.signer = static_cast<NodeId>((s + 1 + rng.uniform_int(0, kSigners - 2)) % kSigners);
        break;
      default:
        break;  // valid
    }
    const bool verdict = registry.verify(sig, payloads[p]);
    ASSERT_EQ(verdict, sig.mac == true_macs[sig.signer * payloads.size() + p]) << "op " << i;
    accepted += verdict;
  }
  EXPECT_GT(accepted, 40000);  // about half the draws are valid
}

TEST(Signature, ConcurrentSignAndVerifyShareOneRegistry) {
  // Four threads sign and verify on one registry with overlapping signers
  // and payloads, as the parallel engine's workers do. Run under
  // ThreadSanitizer by scripts/check.sh --tsan.
  const std::uint64_t seed = 13;
  constexpr std::uint32_t kSigners = 6;
  const crypto::KeyRegistry registry(kSigners, seed);
  const std::vector<Bytes> payloads = {round_signing_payload(1), round_signing_payload(2),
                                       round_signing_payload(3), Bytes(40, 0x5a)};
  const std::vector<crypto::Digest> true_macs = reference_macs(seed, kSigners, payloads);

  std::vector<int> wrong(4, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const auto s = static_cast<NodeId>((i + t) % kSigners);
        const std::size_t p = static_cast<std::size_t>(i / 3 + t) % payloads.size();
        const crypto::Digest& expected = true_macs[s * payloads.size() + p];
        const crypto::Signature sig = registry.signer_for(s).sign(payloads[p]);
        crypto::Signature forged = sig;
        forged.mac[i % 32] ^= 0x04;
        wrong[t] += sig.mac != expected;
        wrong[t] += !registry.verify(sig, payloads[p]);
        wrong[t] += registry.verify(forged, payloads[p]);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace stclock
