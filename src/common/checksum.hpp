// End-to-end integrity checksums. CRC32C (Castagnoli polynomial,
// iSCSI/ext4 flavour) over object and shard payloads: cheap enough to
// recompute on every read in the simulator, strong enough to catch the
// silent single-/few-bit corruption class the scrubber hunts for.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/buffer.hpp"

namespace corec {

/// CRC32C over `len` bytes, continuing from `seed` (pass the previous
/// result to checksum a payload in pieces). `crc32c(nullptr, 0) == 0`.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed = 0);

inline std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0) {
  return crc32c(data.data(), data.size(), seed);
}

/// CRC32C of the concatenation A·B from `crc_a` = crc32c(A),
/// `crc_b` = crc32c(B) and `len_b` = |B|, without reading either.
/// O(log len_b) carry-less multiplies modulo the polynomial.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::size_t len_b);

/// CRC32C of A followed by `zeros` zero bytes, from `crc_a` alone.
/// `crc32c_zero_extend(0, n)` is the CRC32C of n zero bytes.
std::uint32_t crc32c_zero_extend(std::uint32_t crc_a, std::size_t zeros);

}  // namespace corec
