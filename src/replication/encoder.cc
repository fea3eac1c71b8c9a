#include "replication/encoder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

namespace here::rep {

using common::kPageSize;

namespace {

constexpr std::size_t kWords = kPageSize / 8;
constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;

// Word `w` of page XOR base, page byte 8w + k in bits 8k..8k+7.
std::uint64_t xor_word(const std::uint8_t* page, const std::uint8_t* base,
                       std::size_t w) {
  std::uint64_t a;
  std::uint64_t b;
  std::memcpy(&a, page + 8 * w, 8);
  std::memcpy(&b, base + 8 * w, 8);
  std::uint64_t x = a ^ b;
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap64(x);
  }
  return x;
}

// 0x80 in each byte of `x` that is zero, 0 elsewhere. Exact: no carry
// crosses a byte, so every flagged byte is a zero byte.
std::uint64_t zero_bytes(std::uint64_t x) {
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

// First byte at or after `pos` where page and base differ (kDiffer) or agree
// (!kDiffer); kPageSize when there is none.
template <bool kDiffer>
std::size_t next_byte(const std::uint8_t* page, const std::uint8_t* base,
                      std::size_t pos) {
  if (pos >= kPageSize) return kPageSize;
  const auto hits = [&](std::size_t w) {
    const std::uint64_t x = xor_word(page, base, w);
    return kDiffer ? x : zero_bytes(x);
  };
  std::size_t w = pos / 8;
  std::uint64_t m = hits(w) & (~std::uint64_t{0} << (8 * (pos % 8)));
  if constexpr (kDiffer) {
    // Long equal runs are the common case: once the scan reaches a 32-byte
    // boundary, step over equal blocks four words at a time, then find the
    // word that differs inside the first unequal block.
    while (m == 0 && ++w % 4 != 0) m = hits(w);
    while (m == 0 && w < kWords) {
      if ((xor_word(page, base, w) | xor_word(page, base, w + 1) |
           xor_word(page, base, w + 2) | xor_word(page, base, w + 3)) == 0) {
        w += 4;
      } else {
        while ((m = hits(w)) == 0) ++w;
      }
    }
    if (m == 0) return kPageSize;
  } else {
    while (m == 0) {
      if (++w == kWords) return kPageSize;
      m = hits(w);
    }
  }
  return w * 8 + static_cast<std::size_t>(std::countr_zero(m)) / 8;
}

// Calls `literal(offset, bytes)` for each record of a delta, after checking
// that the record's header is complete and that it stays inside the page.
// Returns the first violation; calls nothing for the record it refuses.
template <typename Literal>
Status walk_records(std::span<const std::uint8_t> delta, Literal&& literal) {
  std::size_t in = 0;
  std::size_t pos = 0;
  while (in < delta.size()) {
    if (delta.size() - in < 4) {
      return Status::data_loss("xor-rle delta: truncated record header");
    }
    const std::size_t zeros = delta[in] | (std::size_t{delta[in + 1]} << 8);
    const std::size_t lits = delta[in + 2] | (std::size_t{delta[in + 3]} << 8);
    in += 4;
    if (pos + zeros + lits > kPageSize || delta.size() - in < lits) {
      return Status::data_loss("xor-rle delta: record overruns the page");
    }
    pos += zeros;
    literal(pos, delta.subspan(in, lits));
    pos += lits;
    in += lits;
  }
  return Status::ok_status();
}

}  // namespace

std::vector<std::uint8_t> xor_rle_encode(std::span<const std::uint8_t> page,
                                         std::span<const std::uint8_t> base) {
  // Record = [u16 zero-run][u16 literal-len][literals]; a literal run ends
  // at the page edge or where >= kBreakEven consecutive XOR zeros begin
  // (shorter gaps cost less inline than a fresh 4-byte record header).
  // Records are written to a stack buffer: a record starts only while the
  // output is under kPageSize and adds at most 4 + kPageSize bytes.
  constexpr std::size_t kBreakEven = 4;
  const std::uint8_t* p = page.data();
  const std::uint8_t* b = base.data();
  std::array<std::uint8_t, 2 * kPageSize + 4> buf;
  std::size_t n = 0;
  std::size_t i = 0;
  // Trailing zeros are implicit: the loop ends at the last difference.
  std::size_t lit_begin = next_byte<true>(p, b, 0);
  while (lit_begin < kPageSize && n < kPageSize) {
    std::size_t lit_end = next_byte<false>(p, b, lit_begin);
    std::size_t next = next_byte<true>(p, b, lit_end);
    while (next < kPageSize && next - lit_end < kBreakEven) {
      lit_end = next_byte<false>(p, b, next);
      next = next_byte<true>(p, b, lit_end);
    }
    const std::size_t zeros = lit_begin - i;
    const std::size_t lits = lit_end - lit_begin;
    buf[n] = static_cast<std::uint8_t>(zeros & 0xFFu);
    buf[n + 1] = static_cast<std::uint8_t>(zeros >> 8);
    buf[n + 2] = static_cast<std::uint8_t>(lits & 0xFFu);
    buf[n + 3] = static_cast<std::uint8_t>(lits >> 8);
    n += 4;
    for (std::size_t k = 0; k < lits; ++k) {
      buf[n + k] =
          static_cast<std::uint8_t>(p[lit_begin + k] ^ b[lit_begin + k]);
    }
    n += lits;
    i = lit_end;
    lit_begin = next;
  }
  return {buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n)};
}

Status xor_rle_verify(std::span<const std::uint8_t> delta) {
  return walk_records(delta, [](std::size_t, std::span<const std::uint8_t>) {});
}

void xor_rle_apply_in_place(std::span<const std::uint8_t> delta,
                            std::span<std::uint8_t> page) {
  if (page.size() != kPageSize) {
    throw std::out_of_range(
        "xor_rle_apply_in_place: page-sized buffer required");
  }
  const Status s = walk_records(
      delta, [&](std::size_t pos, std::span<const std::uint8_t> lits) {
        std::uint8_t* dst = page.data() + pos;
        for (std::size_t k = 0; k < lits.size(); ++k) dst[k] ^= lits[k];
      });
  if (!s.ok()) {
    throw std::out_of_range("xor_rle_apply_in_place: " + s.message());
  }
}

EncoderPipeline::EncoderPipeline(EncoderConfig config, std::uint64_t pages)
    : config_(config), pages_(pages) {
  if (config_.delta || config_.hash_skip) {
    committed_hash_.assign(pages_, 0);
    has_ref_.assign(pages_, 0);
  }
  if (config_.delta) shadow_.emplace(pages_, 1);
}

void EncoderPipeline::baseline(const hv::GuestMemory& memory) {
  std::lock_guard lock(mu_);
  pending_.clear();
  if (config_.delta || config_.hash_skip) {
    for (common::Gfn g = 0; g < pages_; ++g) {
      committed_hash_[g] = memory.page_digest(g);
      has_ref_[g] = 1;
    }
  }
  if (config_.delta) {
    for (common::Gfn g = 0; g < pages_; ++g) shadow_->copy_page(g, memory);
  }
}

void EncoderPipeline::encode_region(const hv::GuestMemory& memory,
                                    wire::RegionFrame& frame,
                                    EncodeWork& work) {
  // The committed references are only written on the sim thread between
  // epochs (commit/abort/invalidate); during the encode shards they are
  // read-only, so workers read them without mu_ — the lock guards only the
  // shared pending/stats stage below.
  const bool track_refs = config_.delta || config_.hash_skip;
  frame.version = wire::kWireVersionEncoded;
  frame.pages.clear();
  frame.pages.reserve(frame.gfns.size());
  frame.bytes.clear();
  std::vector<PendingPage> staged;
  if (track_refs) staged.reserve(frame.gfns.size());
  EncodeStats local;
  for (const common::Gfn gfn : frame.gfns) {
    const auto page = memory.page(gfn);
    wire::PageMeta meta;
    std::uint64_t hash = 0;
    bool hashed = false;
    bool encoded = false;
    std::vector<std::uint8_t> delta;
    if (config_.zero_elide) {
      ++work.zero_scans;
      if (!memory.backed(gfn) || hv::is_zero_page(page)) {
        meta.enc = wire::PageEncoding::kZero;
        encoded = true;
        ++local.pages_zero;
      }
    }
    if (!encoded && track_refs && has_ref_[gfn] != 0) {
      hash = memory.page_digest(gfn);
      hashed = true;
      ++work.hashes;
      if (config_.hash_skip && hash == committed_hash_[gfn]) {
        meta.enc = wire::PageEncoding::kSkip;
        meta.aux = committed_hash_[gfn];
        encoded = true;
        ++local.pages_skipped;
      } else if (config_.delta) {
        delta = xor_rle_encode(page, shadow_->page(gfn));
        ++work.delta_pages;
        if (delta.size() < kPageSize) {
          meta.enc = wire::PageEncoding::kDelta;
          meta.aux = committed_hash_[gfn];
          meta.length = static_cast<std::uint32_t>(delta.size());
          frame.bytes.insert(frame.bytes.end(), delta.begin(), delta.end());
          encoded = true;
          ++local.pages_delta;
        }
      }
    }
    if (!encoded) {
      meta.enc = wire::PageEncoding::kRaw;
      meta.length = static_cast<std::uint32_t>(kPageSize);
      frame.bytes.insert(frame.bytes.end(), page.begin(), page.end());
      ++local.pages_raw;
      ++work.raw_pages;
    }
    frame.pages.push_back(meta);
    ++local.pages_in;
    if (track_refs) {
      PendingPage p;
      p.gfn = gfn;
      // The committed content after this epoch lands is exactly what we just
      // encoded; kSkip keeps the old reference, everything else re-hashes.
      p.hash = meta.enc == wire::PageEncoding::kSkip ? committed_hash_[gfn]
               : hashed                              ? hash
                                                     : memory.page_digest(gfn);
      if (!hashed && meta.enc != wire::PageEncoding::kSkip) ++work.hashes;
      p.enc = meta.enc;
      if (config_.delta && meta.enc == wire::PageEncoding::kRaw) {
        p.bytes.assign(page.begin(), page.end());
      } else if (meta.enc == wire::PageEncoding::kDelta) {
        p.bytes = std::move(delta);
      }
      staged.push_back(std::move(p));
    }
  }
  local.bytes_in = frame.gfns.size() * kPageSize;
  local.bytes_out = frame.bytes.size();
  work.bytes_out += frame.bytes.size();

  std::lock_guard lock(mu_);
  stats_.pages_in += local.pages_in;
  stats_.pages_raw += local.pages_raw;
  stats_.pages_zero += local.pages_zero;
  stats_.pages_delta += local.pages_delta;
  stats_.pages_skipped += local.pages_skipped;
  stats_.bytes_in += local.bytes_in;
  stats_.bytes_out += local.bytes_out;
  pending_.insert(pending_.end(), std::make_move_iterator(staged.begin()),
                  std::make_move_iterator(staged.end()));
}

void EncoderPipeline::commit_epoch() {
  std::lock_guard lock(mu_);
  for (const PendingPage& p : pending_) {
    if (!committed_hash_.empty()) {
      committed_hash_[p.gfn] = p.hash;
      has_ref_[p.gfn] = 1;
    }
    if (!config_.delta) continue;
    switch (p.enc) {
      case wire::PageEncoding::kRaw:
        shadow_->install_page(p.gfn, p.bytes);
        break;
      case wire::PageEncoding::kZero:
        shadow_->install_page(p.gfn, hv::kZeroPage);
        break;
      case wire::PageEncoding::kDelta:
        if (!p.bytes.empty()) {
          xor_rle_apply_in_place(p.bytes, shadow_->page_mut(p.gfn));
        }
        break;
      case wire::PageEncoding::kSkip:
        break;  // the shadow already holds this content
    }
  }
  pending_.clear();
}

void EncoderPipeline::abort_epoch() {
  std::lock_guard lock(mu_);
  pending_.clear();
}

void EncoderPipeline::invalidate_region(std::uint32_t region) {
  std::lock_guard lock(mu_);
  if (has_ref_.empty()) return;
  const std::uint64_t first = std::uint64_t{region} * common::kPagesPerRegion;
  const std::uint64_t last =
      std::min(first + common::kPagesPerRegion, pages_);
  for (std::uint64_t g = first; g < last; ++g) has_ref_[g] = 0;
}

EncodeStats EncoderPipeline::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace here::rep
