// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the checkpoint wire layer stamps on every 2 MiB region frame and
// the durable store stamps on every record.
//
// crc32c_update() picks its kernel once, at first use, from CPUID:
//   * x86-64 with SSE4.2 and PCLMULQDQ: a three-way kernel. Each block of
//     3 x 1,360 bytes runs as three independent `crc32` streams, merged with
//     two carry-less multiplies by x^(8n) mod P shift constants (Gopal et
//     al., Intel 2011; Linux `crc32c-pcl-intel`). Input shorter than a block,
//     and the tail after the last block, runs as one stream;
//   * x86-64 with SSE4.2 only: one `crc32` stream, eight bytes a step;
//   * anything else: a one-lookup-per-byte table loop.
// All three compute the same function, so every stamped CRC is bit-identical
// whichever one a host takes (the integrity tests golden-compare digests
// across runs); detail::crc32c_update_table() exposes the table loop as the
// reference the tests check the dispatched kernel against.
#pragma once

#include <cstdint>
#include <span>

namespace here::common {

// One-shot CRC32C over `data`. Standard init/final XOR with 0xFFFFFFFF.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data);

// Incremental form: feed `crc32c_init()` through one or more
// `crc32c_update()` calls, then `crc32c_final()`.
//   std::uint32_t c = crc32c_init();
//   c = crc32c_update(c, chunk1);
//   c = crc32c_update(c, chunk2);
//   std::uint32_t crc = crc32c_final(c);
[[nodiscard]] constexpr std::uint32_t crc32c_init() { return 0xFFFFFFFFu; }
[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t state,
                                          std::span<const std::uint8_t> data);
[[nodiscard]] constexpr std::uint32_t crc32c_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

// The CRC32C of A followed by B, from crc32c(A), crc32c(B) and B's length:
// crc32c(A) is multiplied by x^(8 len_b) mod P and XORed with crc32c(B)
// (zlib's crc32_combine method; the init and final XORs cancel). Lets
// workers CRC disjoint byte ranges of one record and join the results in
// order. O(log len_b) carry-less products, no byte is read.
[[nodiscard]] std::uint32_t crc32c_combine(std::uint32_t crc_a,
                                           std::uint32_t crc_b,
                                           std::uint64_t len_b);

namespace detail {

// The portable table loop, same contract as crc32c_update(). It is the
// fallback on CPUs without SSE4.2 and the oracle for the hardware path.
[[nodiscard]] std::uint32_t crc32c_update_table(
    std::uint32_t state, std::span<const std::uint8_t> data);

// The kernel crc32c_update() runs on this CPU: "sse4.2x3", "sse4.2" or
// "table" (benchmark labels).
[[nodiscard]] const char* crc32c_kernel_name();

}  // namespace detail
}  // namespace here::common
