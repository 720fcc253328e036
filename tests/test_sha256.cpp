#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>

#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "util/bytes.h"

namespace stclock::crypto {
namespace {

std::string hex_of(const Digest& d) { return to_hex(d); }

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes = exactly one block; padding then occupies a full extra block.
  const std::string block(64, 'x');
  const Digest one_shot = sha256(block);

  Sha256 incremental;
  incremental.update(std::string_view(block).substr(0, 13));
  incremental.update(std::string_view(block).substr(13));
  EXPECT_EQ(one_shot, incremental.finish());
}

TEST(Sha256, IncrementalMatchesOneShotAcrossSplits) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog, repeatedly and at length, "
      "to exercise multi-block hashing paths";
  const Digest expected = sha256(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: padding fits in the same block; 56: spills into the next.
  EXPECT_EQ(hex_of(sha256(std::string(55, 'a'))),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(hex_of(sha256(std::string(56, 'a'))),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("round-1"), sha256("round-2"));
  EXPECT_NE(sha256("a"), sha256("b"));
}

TEST(Sha256, ReuseAfterFinishThrows) {
  Sha256 h;
  h.update("data");
  (void)h.finish();
  EXPECT_THROW(h.update("more"), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
}

TEST(Sha256, ResumedFromMidstateMatchesUninterrupted) {
  // Save the chaining value after 1, 2 and 3 whole blocks, resume a fresh
  // hasher from it, and feed the rest: the digest must not notice. Tails
  // cover the in-block padding, the spill to an extra block, and several
  // further blocks.
  std::string msg;
  for (int i = 0; i < 400; ++i) msg.push_back(static_cast<char>('a' + i % 26));
  for (std::size_t blocks = 1; blocks <= 3; ++blocks) {
    for (std::size_t tail : {0, 1, 55, 56, 64, 200}) {
      const std::string_view whole = std::string_view(msg).substr(0, 64 * blocks + tail);
      Sha256 prefix;
      prefix.update(whole.substr(0, 64 * blocks));
      Sha256 resumed(prefix.midstate(), blocks);
      resumed.update(whole.substr(64 * blocks));
      EXPECT_EQ(resumed.finish(), sha256(whole)) << blocks << " blocks + " << tail;
    }
  }
}

TEST(Sha256, MidstateOffBlockBoundaryThrows) {
  Sha256 h;
  h.update(std::string(65, 'x'));
  EXPECT_THROW((void)h.midstate(), std::logic_error);
  Sha256 at_boundary;
  at_boundary.update(std::string(64, 'x'));
  EXPECT_NO_THROW((void)at_boundary.midstate());
}

// Sha256 hashes through whichever compression the CPU supports; these two
// tests reach the candidates directly, so the portable reference is checked
// on every host and the SHA-NI one wherever it can run.

TEST(Sha256Compress, PortableMatchesFipsAbcBlock) {
  // "abc" padded to one block, from the standard initial value.
  std::array<std::uint8_t, 64> block{};
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // message length in bits
  Sha256::State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::compress_portable(state, block.data());
  const Sha256::State expected = {0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
                                  0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad};
  EXPECT_EQ(state, expected);
}

TEST(Sha256Compress, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks the SHA extensions";
#if defined(__x86_64__)
  std::mt19937_64 rng(0x5a256);
  for (int i = 0; i < 20000; ++i) {
    Sha256::State state{};
    for (std::uint32_t& w : state) w = static_cast<std::uint32_t>(rng());
    std::array<std::uint8_t, 64> block{};
    for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng());
    Sha256::State portable = state;
    Sha256::State sha_ni = state;
    detail::compress_portable(portable, block.data());
    detail::compress_sha_ni(sha_ni, block.data());
    ASSERT_EQ(sha_ni, portable) << "pair " << i;
  }
#endif
}

}  // namespace
}  // namespace stclock::crypto
