#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_compress.h"
#include "util/contracts.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace stclock::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int k) {
  return (x >> k) | (x << (32 - k));
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256::Sha256(const State& state, std::uint64_t blocks) : state_(state) {
  // FIPS 180-4 padding stores the message length in bits as a 64-bit value.
  ST_REQUIRE(blocks < (std::uint64_t{1} << 55), "Sha256: resumed block count overflows");
  total_bits_ = blocks * 512;
}

const Sha256::State& Sha256::midstate() const {
  ST_REQUIRE(!finished_ && buffered_ == 0, "Sha256: midstate off a block boundary");
  return state_;
}

namespace detail {

void compress_portable(Sha256::State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

// The x86 SHA extensions keep the state as two lanes of four words, ABEF and
// CDGH; sha256rnds2 runs two rounds, sha256msg1/msg2 extend the schedule
// four words at a time. Same arithmetic as compress_portable, word for word.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(Sha256::State& state,
                                                                 const std::uint8_t* block) {
  // Big-endian words: byte-reverse each 32-bit lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // w[k % 4] holds schedule words 4k..4k+3.
  __m128i w[4] = {};
#pragma GCC unroll 16
  for (int k = 0; k < 16; ++k) {
    __m128i wk;
    if (k < 4) {
      wk = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * k)), bswap);
    } else {
      const __m128i w16 = w[k % 4];        // words 4k-16 ..
      const __m128i w12 = w[(k + 1) % 4];  // words 4k-12 ..
      const __m128i w8 = w[(k + 2) % 4];   // words 4k-8 ..
      const __m128i w4 = w[(k + 3) % 4];   // words 4k-4 ..
      wk = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
      wk = _mm_sha256msg2_epu32(wk, w4);
    }
    w[k % 4] = wk;
    __m128i kw = _mm_add_epi32(
        wk, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * k])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
    kw = _mm_shuffle_epi32(kw, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, kw);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

bool sha_ni_available() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;
  const bool sse41 = (c & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

#else

bool sha_ni_available() { return false; }

#endif

}  // namespace detail

namespace {

using CompressFn = void (*)(Sha256::State&, const std::uint8_t*);

CompressFn pick_compress() {
#if defined(__x86_64__)
  if (detail::sha_ni_available()) return detail::compress_sha_ni;
#endif
  return detail::compress_portable;
}

}  // namespace

void Sha256::process_block(const std::uint8_t* block) {
  // Chosen once per process; both candidates give identical output.
  static const CompressFn compress = pick_compress();
  compress(state_, block);
}

void Sha256::update(std::span<const std::uint8_t> data) {
  ST_REQUIRE(!finished_, "Sha256: update after finish");
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t pos = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos += take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (data.size() - pos >= 64) {
    process_block(data.data() + pos);
    pos += 64;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

void Sha256::update(std::string_view s) {
  update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                       s.size()));
}

Digest Sha256::finish() {
  ST_REQUIRE(!finished_, "Sha256: finish called twice");
  finished_ = true;

  // Padding, written in place: 0x80, zeros up to byte 56 of a block (a
  // second block when fewer than 9 bytes are left), then the message length
  // in bits as a 64-bit big-endian value.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (8 * (7 - i)));
  }
  process_block(buffer_.data());
  buffered_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

}  // namespace stclock::crypto
