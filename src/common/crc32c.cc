#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
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

#ifdef HERE_CRC32C_X86
// The SSE4.2 `crc32` instruction implements exactly this reflected
// Castagnoli step. Eight bytes per instruction on x86-64; a little-endian
// load feeds them in stream order, so the result matches the byte loop.
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  std::uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  state = static_cast<std::uint32_t>(crc);
#endif
  for (; n > 0; ++p, --n) state = _mm_crc32_u8(state, *p);
  return state;
}
#endif

bool detect_hardware() {
#ifdef HERE_CRC32C_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
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

bool crc32c_hardware() {
  static const bool hardware = detect_hardware();
  return hardware;
}

}  // namespace detail

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::uint8_t> data) {
#ifdef HERE_CRC32C_X86
  if (detail::crc32c_hardware()) return update_sse42(state, data);
#endif
  return detail::crc32c_update_table(state, data);
}

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  return crc32c_final(crc32c_update(crc32c_init(), data));
}

}  // namespace here::common
