#include "replication/encoder.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

namespace here::rep {

using common::kPageSize;

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

}  // namespace

std::vector<std::uint8_t> xor_rle_encode(std::span<const std::uint8_t> page,
                                         std::span<const std::uint8_t> base) {
  // Record = [u16 zero-run][u16 literal-len][literals]; a literal run ends
  // at the page edge or where >= kBreakEven consecutive XOR zeros begin
  // (shorter gaps cost less inline than a fresh 4-byte record header).
  constexpr std::size_t kBreakEven = 4;
  std::vector<std::uint8_t> out;
  std::size_t i = 0;
  while (i < kPageSize && out.size() < kPageSize) {
    std::size_t zeros = 0;
    while (i + zeros < kPageSize && page[i + zeros] == base[i + zeros]) ++zeros;
    if (i + zeros >= kPageSize) break;  // trailing zeros are implicit
    std::size_t lit_end = i + zeros;
    std::size_t gap = 0;
    while (lit_end + gap < kPageSize) {
      if (page[lit_end + gap] == base[lit_end + gap]) {
        ++gap;
        if (gap >= kBreakEven) break;
      } else {
        lit_end += gap + 1;
        gap = 0;
      }
    }
    const std::size_t lit_len = lit_end - (i + zeros);
    put_u16(out, static_cast<std::uint16_t>(zeros));
    put_u16(out, static_cast<std::uint16_t>(lit_len));
    for (std::size_t k = i + zeros; k < lit_end; ++k) {
      out.push_back(static_cast<std::uint8_t>(page[k] ^ base[k]));
    }
    i = lit_end;
  }
  return out;
}

Status xor_rle_apply(std::span<const std::uint8_t> delta,
                     std::span<const std::uint8_t> base,
                     std::span<std::uint8_t> out) {
  if (out.size() != kPageSize || base.size() != kPageSize) {
    return Status::invalid_argument("xor_rle_apply: page-sized buffers required");
  }
  std::memcpy(out.data(), base.data(), kPageSize);
  std::size_t in = 0;
  std::size_t pos = 0;
  while (in < delta.size()) {
    if (delta.size() - in < 4) {
      return Status::data_loss("xor_rle_apply: truncated record header");
    }
    const std::size_t zeros = delta[in] | (std::size_t{delta[in + 1]} << 8);
    const std::size_t lits = delta[in + 2] | (std::size_t{delta[in + 3]} << 8);
    in += 4;
    if (pos + zeros + lits > kPageSize || delta.size() - in < lits) {
      return Status::data_loss("xor_rle_apply: record overruns the page");
    }
    pos += zeros;
    for (std::size_t k = 0; k < lits; ++k) out[pos + k] ^= delta[in + k];
    pos += lits;
    in += lits;
  }
  return Status::ok_status();
}

Expected<std::vector<std::uint8_t>> decode_frame(
    const wire::RegionFrame& frame, const hv::GuestMemory& committed) {
  std::vector<std::uint8_t> out(frame.gfns.size() * kPageSize, 0);
  std::size_t off = 0;
  for (std::size_t i = 0; i < frame.gfns.size(); ++i) {
    const common::Gfn gfn = frame.gfns[i];
    const wire::PageMeta& meta = frame.pages[i];
    const std::span<const std::uint8_t> payload{frame.bytes.data() + off,
                                                meta.length};
    const std::span<std::uint8_t> page{out.data() + i * kPageSize, kPageSize};
    switch (meta.enc) {
      case wire::PageEncoding::kRaw:
        std::memcpy(page.data(), payload.data(), kPageSize);
        break;
      case wire::PageEncoding::kZero:
        break;  // `out` is zero-initialised
      case wire::PageEncoding::kSkip:
        if (committed.page_digest(gfn) != meta.aux) {
          return Status::data_loss(
              "encoder: hash-skip base mismatch at gfn " + std::to_string(gfn) +
              " (committed image diverged from the primary's reference)");
        }
        std::memcpy(page.data(), committed.page(gfn).data(), kPageSize);
        break;
      case wire::PageEncoding::kDelta: {
        if (committed.page_digest(gfn) != meta.aux) {
          return Status::data_loss(
              "encoder: delta base stale at gfn " + std::to_string(gfn) +
              " (committed image diverged from the primary's reference)");
        }
        if (const Status s = xor_rle_apply(payload, committed.page(gfn), page);
            !s.ok()) {
          return s;
        }
        break;
      }
      default:
        return Status::data_loss("encoder: unknown page encoding " +
                                 std::to_string(static_cast<int>(meta.enc)));
    }
    off += meta.length;
  }
  return out;
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
        std::vector<std::uint8_t> enc =
            xor_rle_encode(page, shadow_->page(gfn));
        ++work.delta_pages;
        if (enc.size() < kPageSize) {
          meta.enc = wire::PageEncoding::kDelta;
          meta.aux = committed_hash_[gfn];
          meta.length = static_cast<std::uint32_t>(enc.size());
          frame.bytes.insert(frame.bytes.end(), enc.begin(), enc.end());
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
      if (config_.delta) p.content.assign(page.begin(), page.end());
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
    if (config_.delta && !p.content.empty()) {
      shadow_->install_page(p.gfn, p.content);
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
