// SHA-256 compression functions behind digest::Sha256, internal to
// dm_digest (and to digest_test, which checks them against each other).
//
// Each block function folds `blocks` consecutive 64-byte blocks starting at
// `data` into `state` (the eight working words, a..h). Sha256 calls the
// one chosen once per process: the x86 SHA extensions kernel where the CPU
// has them, the portable loop everywhere else.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dockmine::digest::detail {

using Sha256BlockFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                               std::size_t blocks) noexcept;

/// Straight FIPS 180-4 rounds; runs on every CPU.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t blocks) noexcept;

#if defined(__x86_64__) || defined(__i386__)
#define DOCKMINE_SHA256_SHANI 1
/// x86 SHA-NI rounds (sha256rnds2/msg1/msg2). Call only where
/// sha256_shani_supported() is true.
void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t blocks) noexcept;
#endif

/// True when this CPU can run sha256_blocks_shani (SHA + SSE4.1).
bool sha256_shani_supported() noexcept;

/// The kernel Sha256 uses, chosen from CPUID on first call.
Sha256BlockFn sha256_blocks() noexcept;

}  // namespace dockmine::digest::detail
