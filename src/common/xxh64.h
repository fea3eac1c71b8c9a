// XXH64 (Yann Collet's xxHash, 64-bit variant): four independent 64-bit
// multiply-rotate lanes over 32-byte stripes, an 8/4/1-byte tail and the
// standard avalanche finalizer. It is the page-content digest family
// (hv::page_digest) and runs at memory bandwidth, where a byte-serial hash
// is latency-bound on one multiply per byte. Inputs are read little-endian,
// so a digest is the same value on every host.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace here::common {

namespace detail {

inline constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ULL;

template <typename T>
inline T xxh_load_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof v == 8) {
      v = __builtin_bswap64(v);
    } else {
      v = __builtin_bswap32(v);
    }
  }
  return v;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kXxhPrime2, 31) * kXxhPrime1;
}

inline std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kXxhPrime1 + kXxhPrime4;
}

}  // namespace detail

[[nodiscard]] inline std::uint64_t xxh64(std::span<const std::uint8_t> bytes,
                                         std::uint64_t seed = 0) {
  using namespace detail;
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint64_t h = seed + kXxhPrime5;
  if (bytes.size() >= 32) {
    std::uint64_t v1 = seed + kXxhPrime1 + kXxhPrime2;
    std::uint64_t v2 = seed + kXxhPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxhPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh_round(v1, xxh_load_le<std::uint64_t>(p));
      v2 = xxh_round(v2, xxh_load_le<std::uint64_t>(p + 8));
      v3 = xxh_round(v3, xxh_load_le<std::uint64_t>(p + 16));
      v4 = xxh_round(v4, xxh_load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h ^= xxh_round(0, xxh_load_le<std::uint64_t>(p));
    h = std::rotl(h, 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (end - p >= 4) {
    h ^= std::uint64_t{xxh_load_le<std::uint32_t>(p)} * kXxhPrime1;
    h = std::rotl(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= std::uint64_t{*p} * kXxhPrime5;
    h = std::rotl(h, 11) * kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace here::common
