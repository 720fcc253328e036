#pragma once

#include <cstdint>

#include "crypto/sha256.h"

/// Internal: the SHA-256 compression functions behind Sha256. The hasher
/// picks one once per process — the x86 SHA extensions when the CPU has
/// them, the portable code otherwise — and both produce the same state for
/// every (state, block). Exposed only so test_sha256 can hold one against
/// the other; nothing else should call these.
namespace stclock::crypto::detail {

/// Folds one 64-byte block into `state` (FIPS 180-4 §6.2.2). The reference.
void compress_portable(Sha256::State& state, const std::uint8_t* block);

#if defined(__x86_64__)
/// The same compression on the SHA-NI instructions. Call only where
/// sha_ni_available() is true; elsewhere the instructions fault.
void compress_sha_ni(Sha256::State& state, const std::uint8_t* block);
#endif

/// CPUID says the SHA extensions, SSSE3 and SSE4.1 are present (leaf 7
/// EBX bit 29; leaf 1 ECX bits 9 and 19). Always false off x86-64.
[[nodiscard]] bool sha_ni_available();

}  // namespace stclock::crypto::detail
