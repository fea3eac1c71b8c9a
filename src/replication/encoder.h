// Content-aware checkpoint encoders: the α knob of t = αN/P + C.
//
// PRs 1-5 optimised the period T and the parallelism P; this stage attacks
// the per-byte copy cost itself by shrinking what ever reaches the migrator
// pool and the WFQ'd interconnect. Three encoders run between dirty-page
// capture and RegionFrame sealing (wire version 1):
//
//   * zero-page elision   — an all-zero page ships no payload at all;
//   * XOR-delta           — a page XOR'd against the *committed* shadow of
//                           itself, run-length encoded; sparse writes into a
//                           page collapse to a handful of bytes;
//   * content-hash skip   — a page that was re-dirtied but whose content
//                           equals the committed reference ships only its
//                           hash (the guest rewrote the same values).
//
// The primary keeps a per-page reference of what the replica has *committed*
// (content hashes always; a full byte shadow only when delta is enabled).
// References are staged during encode and promoted only when the epoch
// commits, so aborted epochs leave the references consistent with the
// replica's image. The shadow stage holds what each page needs to catch up:
// a raw page's content, a delta page's records (XOR'd into the shadow in
// place at commit, so a sparse write costs its changed bytes), nothing for
// a zero or skip page.
//
// Delta and skip frames carry the base hash. The replica commits in two
// phases: it first verifies every frame of the epoch — each delta/skip base
// hashed from its committed bytes, each delta's records bounds-checked
// (xor_rle_verify) — writing nothing, and only then applies each page's last
// writer in place (xor_rle_apply_in_place for deltas). Refuse-before-apply
// thus extends to stale encoder bases, so a diverged base can corrupt
// nothing. When the scrubber finds post-commit divergence it invalidates the
// region's references and the repair ships raw.
//
// Every encoder declares its cycle cost (TimeModelConfig::*_per_page) so the
// engine reports the *real* — usually cheaper — copy cost to PeriodManager
// and Algorithm 1 re-optimises T and P against the encoded stream.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/units.h"
#include "hv/guest_memory.h"
#include "replication/time_model.h"
#include "replication/wire.h"

namespace here::rep {

// Which encoders run on the checkpoint stream. All-off (the default) keeps
// the engine on wire version 0, byte-identical to the un-encoded stream.
struct EncoderConfig {
  bool zero_elide = false;
  bool delta = false;
  bool hash_skip = false;

  [[nodiscard]] bool any() const { return zero_elide || delta || hash_skip; }
  [[nodiscard]] static EncoderConfig all() { return {true, true, true}; }
};

// Cumulative encoder accounting (real page counts / real bytes, i.e. before
// model_scale). bytes_out <= bytes_in always: an encoder that would inflate
// a page falls back to raw.
struct EncodeStats {
  std::uint64_t pages_in = 0;
  std::uint64_t pages_raw = 0;
  std::uint64_t pages_zero = 0;
  std::uint64_t pages_delta = 0;
  std::uint64_t pages_skipped = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

// XOR+RLE delta transform. Encode XORs `page` against `base` and emits
// [u16 zero-run][u16 literal-len][literal bytes] records (little-endian);
// trailing zeros are implicit. Equal runs are found a 64-bit word at a time.
// Returns an encoding of size >= kPageSize when the delta would not pay for
// itself (caller ships raw instead).
[[nodiscard]] std::vector<std::uint8_t> xor_rle_encode(
    std::span<const std::uint8_t> page, std::span<const std::uint8_t> base);

// Checks that `delta` is a well-formed record stream for one page: no
// truncated record header, no record past the page. Reads only `delta`.
[[nodiscard]] Status xor_rle_verify(std::span<const std::uint8_t> delta);

// XORs `delta`'s literals into `page` (kPageSize bytes) in place: applied to
// the base it was encoded against, the page becomes the encoded page. An
// empty delta writes nothing. `delta` must have passed xor_rle_verify;
// throws std::out_of_range otherwise, having written a prefix.
void xor_rle_apply_in_place(std::span<const std::uint8_t> delta,
                            std::span<std::uint8_t> page);

// Primary-side encoder state: per-page committed references plus the
// per-epoch pending updates. encode_region() is called concurrently from
// migrator workers on *distinct* frames; the pending stage is the only
// shared state and takes the rank-250 mutex (between hv.pml_ring and
// rep.staging_commit — see docs/static_analysis.md).
class EncoderPipeline {
 public:
  EncoderPipeline(EncoderConfig config, std::uint64_t pages);

  [[nodiscard]] const EncoderConfig& config() const { return config_; }

  // Seeds every page's committed reference from `memory`. Call at the
  // epoch-0 commit, when the primary is paused and the replica image is
  // byte-identical.
  void baseline(const hv::GuestMemory& memory);

  // Encodes one region frame in place: frame.gfns must be set; fills
  // frame.pages / frame.bytes (version 1) and folds this worker's cycle
  // costs into `work`. Thread-safe across distinct frames. Stages the
  // epoch's reference updates; nothing becomes visible to later epochs until
  // commit_epoch(). A gfn is encoded at most once per epoch: its staged
  // delta is against the shadow as the epoch began.
  void encode_region(const hv::GuestMemory& memory, wire::RegionFrame& frame,
                     EncodeWork& work);

  // Epoch outcome: promote (commit) or discard (abort) the staged
  // references; commit installs raw and zero pages into the shadow and XORs
  // delta pages into it in place. The engine pairs these with
  // ReplicaStaging's commit/abort so references always describe what the
  // replica has actually committed.
  void commit_epoch();
  void abort_epoch();

  // Scrub found post-commit divergence in `region`: drop its references so
  // the repair epoch ships the region raw (a delta against a rotten base
  // would be refused forever).
  void invalidate_region(std::uint32_t region);

  [[nodiscard]] EncodeStats stats() const;

 private:
  struct PendingPage {
    common::Gfn gfn = 0;
    std::uint64_t hash = 0;
    wire::PageEncoding enc = wire::PageEncoding::kRaw;
    // Delta on only: a raw page's content or a delta page's records.
    std::vector<std::uint8_t> bytes;
  };

  EncoderConfig config_;
  std::uint64_t pages_ = 0;

  // Guards pending_, stats_ and the committed references against concurrent
  // encode workers. Leaf on the encode path (workers hold nothing else).
  mutable common::RankedMutex mu_{common::LockRank::kEncoderState,
                                  "rep.encoder_state"};
  std::vector<std::uint64_t> committed_hash_;  // per gfn
  std::vector<std::uint8_t> has_ref_;          // per gfn: reference valid
  // Committed copy of every page when delta is on, a sparse image like the
  // guest's (pages nobody wrote stay unbacked). Like the references, only
  // mutated on the sim thread between epochs, so encode workers read it
  // without mu_.
  std::optional<hv::GuestMemory> shadow_;
  std::vector<PendingPage> pending_;
  EncodeStats stats_;
};

}  // namespace here::rep
