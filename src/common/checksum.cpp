#include "common/checksum.hpp"

#include <array>

namespace corec {
namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C

// Slice-by-8 lookup tables: table[0] is the classic byte-at-a-time
// table; table[j] folds a byte that sits j positions deeper into the
// running CRC, letting the hot loop consume 8 bytes per iteration with
// no data dependency between the table lookups.
struct Tables {
  std::uint32_t t[8][256];
};

Tables make_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tb.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tb.t[0][i];
    for (int j = 1; j < 8; ++j) {
      crc = (crc >> 8) ^ tb.t[0][crc & 0xffu];
      tb.t[j][i] = crc;
    }
  }
  return tb;
}

const Tables& tables() {
  static const Tables tb = make_tables();
  return tb;
}

// GF(2) polynomial arithmetic modulo the CRC polynomial, in the
// reflected bit order the table-driven CRC uses: bit 31 is x^0, bit 0
// is x^31. Appending n zero bytes to a message multiplies its raw CRC
// register by x^(8n); crc32c_combine and crc32c_zero_extend are built
// on that one operator.

// a(x) * b(x) mod P(x); a must be non-zero (every power of x is).
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// x^(2^i) mod P(x) for i in [0, 67): x^(8n) for any 64-bit byte count n
// without relying on the multiplicative order of x.
struct PowerTable {
  std::uint32_t x2n[67];
};

PowerTable make_powers() {
  PowerTable pt{};
  std::uint32_t p = 1u << 30;  // x^1
  pt.x2n[0] = p;
  for (int i = 1; i < 67; ++i) pt.x2n[i] = p = multmodp(p, p);
  return pt;
}

// x^(8 * bytes) mod P(x).
std::uint32_t x8nmodp(std::size_t bytes) {
  static const PowerTable pt = make_powers();
  std::uint32_t p = 1u << 31;  // x^0
  for (int i = 3; bytes != 0; bytes >>= 1, ++i) {
    if (bytes & 1u) p = multmodp(pt.x2n[i], p);
  }
  return p;
}

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed) {
  const Tables& tb = tables();
  std::uint32_t crc = ~seed;
  while (len >= 8) {
    std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[0]) |
                              static_cast<std::uint32_t>(data[1]) << 8 |
                              static_cast<std::uint32_t>(data[2]) << 16 |
                              static_cast<std::uint32_t>(data[3]) << 24);
    crc = tb.t[7][lo & 0xffu] ^ tb.t[6][(lo >> 8) & 0xffu] ^
          tb.t[5][(lo >> 16) & 0xffu] ^ tb.t[4][lo >> 24] ^
          tb.t[3][data[4]] ^ tb.t[2][data[5]] ^ tb.t[1][data[6]] ^
          tb.t[0][data[7]];
    data += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *data++) & 0xffu];
  }
  return ~crc;
}

// With R(M) the raw register after M from a zero start and L_n the
// multiply-by-x^(8n) operator, crc32c(M) = ~R(M) for a start of ~0, and
// feeding B after A gives R = L_|B|(~crc_a) ^ R0(B); the ~0 start terms
// cancel against crc_b's, leaving L_|B|(crc_a) ^ crc_b.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::size_t len_b) {
  if (len_b == 0) return crc_a;
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

// Zero bytes carry no data, so the register after A·0^n is just
// L_n(~crc_a); the result is its complement.
std::uint32_t crc32c_zero_extend(std::uint32_t crc_a, std::size_t zeros) {
  if (zeros == 0) return crc_a;
  return ~multmodp(x8nmodp(zeros), ~crc_a);
}

}  // namespace corec
