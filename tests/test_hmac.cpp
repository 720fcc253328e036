#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "crypto/hmac.h"
#include "util/bytes.h"

namespace stclock::crypto {
namespace {

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

struct Rfc4231Case {
  const char* name;
  Bytes key;
  Bytes msg;
  const char* mac_hex;
};

Bytes counting_bytes(std::uint8_t from, std::uint8_t to) {
  Bytes out;
  for (unsigned b = from; b <= to; ++b) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

// RFC 4231 test vectors for HMAC-SHA256 (case 5, a truncated MAC, omitted).
std::vector<Rfc4231Case> rfc4231_cases() {
  return {
      {"case1", Bytes(20, 0x0b), bytes_of("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"case2", bytes_of("Jefe"), bytes_of("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {"case3", Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {"case4", counting_bytes(0x01, 0x19), Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      // Keys longer than one block are hashed first.
      {"case6_long_key", Bytes(131, 0xaa),
       bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      // Long key and a 152-byte message: the inner hash spans several blocks.
      {"case7_long_key_long_msg", Bytes(131, 0xaa),
       bytes_of("This is a test using a larger than block-size key and a larger than "
                "block-size data. The key needs to be hashed before being used by the "
                "HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

TEST(Hmac, Rfc4231Vectors) {
  for (const Rfc4231Case& c : rfc4231_cases()) {
    EXPECT_EQ(to_hex(hmac_sha256(c.key, c.msg)), c.mac_hex) << c.name;
  }
}

TEST(Hmac, PreparedKeyMatchesOneShotOnRfc4231Vectors) {
  for (const Rfc4231Case& c : rfc4231_cases()) {
    const HmacKey key = hmac_key(c.key);
    EXPECT_EQ(to_hex(hmac_sha256(key, c.msg)), c.mac_hex) << c.name;
    // A prepared key is reusable: a second MAC under it is unchanged.
    EXPECT_EQ(to_hex(hmac_sha256(key, c.msg)), c.mac_hex) << c.name;
  }
}

// RFC 2104 spelled out with one-shot hashes, for a key of at most one block:
// H((K ^ opad) || H((K ^ ipad) || m)).
Digest textbook_hmac(const Bytes& key, const Bytes& msg) {
  Bytes inner(64, 0x36), outer(64, 0x5c);
  for (std::size_t i = 0; i < key.size(); ++i) {
    inner[i] ^= key[i];
    outer[i] ^= key[i];
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Digest inner_digest = sha256(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return sha256(outer);
}

TEST(Hmac, PreparedKeyMatchesTextbookAcrossMessageLengths) {
  // Lengths around the one-block padding limit (55/56) and block multiples.
  const Bytes key = bytes_of("node-secret");
  const HmacKey prepared = hmac_key(key);
  for (std::size_t len = 0; len <= 200; ++len) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
    EXPECT_EQ(hmac_sha256(prepared, msg), textbook_hmac(key, msg)) << "length " << len;
  }
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = bytes_of("message");
  EXPECT_NE(hmac_sha256(bytes_of("key-1"), msg), hmac_sha256(bytes_of("key-2"), msg));
}

TEST(Hmac, MessageSensitivity) {
  const Bytes key = bytes_of("key");
  EXPECT_NE(hmac_sha256(key, bytes_of("round 1")), hmac_sha256(key, bytes_of("round 2")));
}

TEST(Hmac, EmptyMessage) {
  const Bytes key = bytes_of("key");
  const Bytes empty;
  // Deterministic and well-defined.
  EXPECT_EQ(hmac_sha256(key, empty), hmac_sha256(key, empty));
}

TEST(Hmac, ExactlyBlockSizedKeyUsedVerbatim) {
  const Bytes key64(64, 0x42);
  const Bytes msg = bytes_of("m");
  // Must differ from the digest under the hashed version of the same key —
  // i.e. the <= blocksize path must not hash.
  const Digest direct = hmac_sha256(key64, msg);
  const Digest key_digest = sha256(key64);
  const Digest hashed_key = hmac_sha256(Bytes(key_digest.begin(), key_digest.end()), msg);
  EXPECT_NE(direct, hashed_key);
}

}  // namespace
}  // namespace stclock::crypto
