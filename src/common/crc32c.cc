#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#include <wmmintrin.h>
#define HERE_CRC32C_X86 1
#endif

namespace here::common {
namespace {

// 256-entry table for the reflected Castagnoli polynomial, generated at
// compile time (bitwise algorithm, 8 steps per entry).
constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

// a * b mod P over reflected operands (x^0 is bit 31), one bit of `a` a
// step.
constexpr std::uint32_t multiply_mod(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 0x80000000u; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPolyReflected : b >> 1;
  }
  return product;
}

// kSquares[k] = x^(2^k) mod P, reflected.
constexpr std::array<std::uint32_t, 64> make_squares() {
  std::array<std::uint32_t, 64> squares{};
  squares[0] = 0x40000000u;  // x^1
  for (std::size_t k = 1; k < squares.size(); ++k) {
    squares[k] = multiply_mod(squares[k - 1], squares[k - 1]);
  }
  return squares;
}

constexpr std::array<std::uint32_t, 64> kSquares = make_squares();

#ifdef HERE_CRC32C_X86
// The SSE4.2 `crc32` instruction implements exactly this reflected
// Castagnoli step. Eight bytes per instruction on x86-64; a little-endian
// load feeds them in stream order, so the result matches the byte loop.
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  state = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) state = _mm_crc32_u8(state, *p);
  return state;
}

// Three-way kernel. One `crc32` has a 3-cycle latency but issues every
// cycle, so a single dependent stream runs at a third of the unit's rate.
// A block is cut into three streams of kStreamBytes, each CRC'd on its own
// (the second and third from state 0), and merged by linearity:
//
//   crc(s, A B C) = crc(s, A) * x^(16 L) + crc(0, B) * x^(8 L) + crc(0, C)
//
// with L = kStreamBytes and * taken mod P. The two shifts are one
// carry-less multiply each by a constant x^(8 n - 33) mod P: the reflected
// product carries one extra factor of x, and a `crc32` of the 64-bit
// product from state 0 multiplies by x^32 and reduces mod P (Gopal et al.,
// "Fast CRC computation for iSCSI polynomial using CRC32 instruction",
// Intel 2011). Three streams of 1,360 bytes cover a 4 KiB page but its last
// 16 bytes; anything shorter than a block runs as a single stream.
constexpr std::size_t kStreamBytes = 1360;
constexpr std::size_t kBlockBytes = 3 * kStreamBytes;

// x^k mod P, reflected (x^0 is bit 31).
constexpr std::uint32_t x_pow_mod(std::uint64_t k) {
  std::uint32_t v = 0x80000000u;
  for (; k > 0; --k) v = (v & 1u) ? (v >> 1) ^ kPolyReflected : v >> 1;
  return v;
}

constexpr std::uint32_t kShiftOneStream = x_pow_mod(8 * kStreamBytes - 33);
constexpr std::uint32_t kShiftTwoStreams = x_pow_mod(16 * kStreamBytes - 33);

__attribute__((target("sse4.2,pclmul"))) std::uint64_t shift_by_constant(
    std::uint64_t crc, std::uint32_t constant) {
  const __m128i product = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(crc)),
      _mm_cvtsi32_si128(static_cast<int>(constant)), 0x00);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(product));
}

__attribute__((target("sse4.2,pclmul"))) std::uint32_t update_three_way(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t a = state;
  for (; n >= kBlockBytes; p += kBlockBytes, n -= kBlockBytes) {
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < kStreamBytes; i += 8) {
      std::uint64_t words[3];
      std::memcpy(&words[0], p + i, 8);
      std::memcpy(&words[1], p + kStreamBytes + i, 8);
      std::memcpy(&words[2], p + 2 * kStreamBytes + i, 8);
      a = _mm_crc32_u64(a, words[0]);
      b = _mm_crc32_u64(b, words[1]);
      c = _mm_crc32_u64(c, words[2]);
    }
    a = _mm_crc32_u64(0, shift_by_constant(a, kShiftTwoStreams) ^
                             shift_by_constant(b, kShiftOneStream)) ^
        c;
  }
  return update_sse42(static_cast<std::uint32_t>(a), {p, n});
}
#endif

enum class Kernel : std::uint8_t { kTable, kSingleStream, kThreeWay };

Kernel detect_kernel() {
#ifdef HERE_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2") == 0) return Kernel::kTable;
  if (__builtin_cpu_supports("pclmul") == 0) return Kernel::kSingleStream;
  return Kernel::kThreeWay;
#else
  return Kernel::kTable;
#endif
}

Kernel kernel() {
  static const Kernel chosen = detect_kernel();
  return chosen;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_update_table(std::uint32_t state,
                                  std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    state = (state >> 8) ^ kTable[(state ^ byte) & 0xFFu];
  }
  return state;
}

const char* crc32c_kernel_name() {
  switch (kernel()) {
    case Kernel::kTable:
      return "table";
    case Kernel::kSingleStream:
      return "sse4.2";
    case Kernel::kThreeWay:
      return "sse4.2x3";
  }
  return "table";
}

}  // namespace detail

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::uint8_t> data) {
#ifdef HERE_CRC32C_X86
  switch (kernel()) {
    case Kernel::kTable:
      break;
    case Kernel::kSingleStream:
      return update_sse42(state, data);
    case Kernel::kThreeWay:
      return update_three_way(state, data);
  }
#endif
  return detail::crc32c_update_table(state, data);
}

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  return crc32c_final(crc32c_update(crc32c_init(), data));
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) {
  // x^(8 len_b) mod P from the squares table: bit k of 8 len_b picks
  // x^(2^k).
  std::uint32_t shift = 0x80000000u;  // x^0
  std::size_t k = 0;
  for (std::uint64_t bits = len_b << 3; bits != 0; bits >>= 1, ++k) {
    if ((bits & 1u) != 0) shift = multiply_mod(kSquares[k], shift);
  }
  return multiply_mod(shift, crc_a) ^ crc_b;
}

}  // namespace here::common
