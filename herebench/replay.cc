// Data-plane stage replay: re-drives the replication data plane's public
// functions, stage by stage, on pages the workload's own program wrote during
// the steady window, with the per-epoch dirty counts the trace recorded.
// Each stage is timed with the steady clock around the calls the benchmark
// makes (never with CPU time: a multi-threaded stage timed by the calling
// thread's CPU clock reads as if it ran for free).
//
// Replica state follows the real protocol: the staging area starts from the
// window-start image, every replayed epoch is verified and committed there,
// appended to a durable store, and at the end a fresh staging area recovers
// from that store and must reproduce the replica image.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "common/crc32c.h"
#include "common/dirty_bitmap.h"
#include "common/thread_pool.h"
#include "replication/durable_store.h"
#include "replication/encoder.h"
#include "replication/staging.h"
#include "replication/wire.h"
#include "sim/rng.h"
#include "xlate/translator.h"

namespace herebench {
namespace {

using namespace here;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxReplayEpochs = 40;
constexpr int kTranslations = 200;

// Accumulated wall time and bytes of one stage.
struct Stage {
  double seconds = 0.0;
  double bytes = 0.0;
  std::uint64_t calls = 0;
  std::uint32_t threads = 1;

  template <typename F>
  void run(SpanLog& spans, const char* layer, const char* name, std::uint64_t id,
           double stage_bytes, F&& fn) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    spans.add(layer, name, id, start, end);
    seconds += std::chrono::duration<double>(end - start).count();
    bytes += stage_bytes;
    ++calls;
  }
  [[nodiscard]] double mb_s() const { return seconds > 0 ? bytes / seconds / 1e6 : 0.0; }
};

// Single-thread memcpy bandwidth on an in-cache buffer: the fastest any
// stage can touch bytes per thread, so the self-check ceiling.
double memcpy_mb_s() {
  constexpr std::size_t kBytes = 1 << 20;
  constexpr int kRounds = 256;
  std::vector<std::uint8_t> src(kBytes, 0x5a), dst(kBytes);
  std::memcpy(dst.data(), src.data(), kBytes);  // warm
  const auto start = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    src[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    std::memcpy(dst.data(), src.data(), kBytes);
  }
  const double s = std::chrono::duration<double>(Clock::now() - start).count();
  volatile std::uint8_t sink = dst[kBytes / 2];
  (void)sink;
  return static_cast<double>(kBytes) * kRounds / s / 1e6;
}

}  // namespace

void run_stage_replay(const ReplayInput& in, SpanLog& spans, MetricTable& out,
                      std::vector<Gate>& gates) {
  const hv::GuestMemory& ref = *in.start_image;
  const hv::GuestMemory& cur = *in.end_image;
  const std::uint64_t pages = cur.pages();
  const bool encoded = in.encoders.any();
  const std::uint16_t version =
      encoded ? rep::wire::kWireVersionEncoded : rep::wire::kWireVersionRaw;

  // Pages the workload wrote during the window, in a seeded order.
  std::vector<common::Gfn> written;
  for (common::Gfn g = 0; g < pages; ++g) {
    if (std::memcmp(ref.page(g).data(), cur.page(g).data(), common::kPageSize) != 0) {
      written.push_back(g);
    }
  }
  sim::Rng rng(in.seed ^ 0x7e91a7ULL);
  for (std::size_t i = written.size(); i > 1; --i) {
    std::swap(written[i - 1], written[rng.uniform(i)]);
  }

  hv::VmSpec spec;
  spec.name = "replay";
  spec.vcpus = cur.vcpus();
  spec.pages = pages;
  rep::ReplicaStaging staging(spec, in.threads);
  Stage install;
  install.run(spans, "hv", "hv.install_page", 0,
              static_cast<double>(pages * common::kPageSize), [&] {
                for (common::Gfn g = 0; g < pages; ++g) {
                  staging.memory().install_page(g, ref.page(g));
                }
              });
  staging.adopt_recovered(0);

  std::unique_ptr<rep::EncoderPipeline> encoder;
  if (encoded) {
    encoder = std::make_unique<rep::EncoderPipeline>(in.encoders, pages);
    encoder->baseline(ref);
  }
  common::ThreadPool pool(in.threads);
  rep::DurableStore store;
  Stage snapshot, append, collect, encode, capture, seal, verify, crc, digest,
      receive, commit, live_digest;
  encode.threads = in.threads;
  snapshot.run(spans, "replication.durable_store", "wal.write_snapshot", 0, 0.0,
               [&] { store.write_snapshot(0, staging.memory(), staging.disk()); });

  bool commits_ok = true;
  std::uint64_t epoch = 0, frames_total = 0, payload_total = 0, pages_scanned = 0;
  std::size_t cursor = 0;
  for (const std::uint64_t dirty : in.epoch_dirty_pages) {
    if (epoch >= kMaxReplayEpochs) break;
    const std::size_t take =
        std::min<std::size_t>(dirty, written.size() - cursor);
    if (take == 0) break;
    ++epoch;
    common::DirtyBitmap bitmap(pages);
    for (std::size_t i = cursor; i < cursor + take; ++i) bitmap.set(written[i]);
    cursor += take;

    std::vector<common::Gfn> gfns;
    collect.run(spans, "common", "common.bitmap_collect", epoch, 0.0,
                [&] { bitmap.collect(0, pages, gfns); });
    pages_scanned += pages;

    std::vector<rep::wire::RegionFrame> frames;
    for (const common::Gfn g : gfns) {
      const auto region = static_cast<std::uint32_t>(g / common::kPagesPerRegion);
      if (frames.empty() || frames.back().region != region) {
        rep::wire::RegionFrame f;
        f.epoch = epoch;
        f.seq = frames.size();
        f.region = region;
        f.version = version;
        frames.push_back(std::move(f));
      }
      frames.back().gfns.push_back(g);
    }
    const double dirty_bytes = static_cast<double>(gfns.size() * common::kPageSize);

    if (encoded) {
      encode.run(spans, "replication.encoder", "encoder.encode_region", epoch,
                 dirty_bytes, [&] {
                   pool.run_per_worker([&](std::size_t w) {
                     rep::EncodeWork work;
                     for (std::size_t i = w; i < frames.size(); i += in.threads) {
                       encoder->encode_region(cur, frames[i], work);
                     }
                   });
                 });
    } else {
      capture.run(spans, "replication.wire", "wire.capture", epoch, dirty_bytes, [&] {
        for (rep::wire::RegionFrame& f : frames) {
          f.bytes.resize(f.gfns.size() * common::kPageSize);
          for (std::size_t i = 0; i < f.gfns.size(); ++i) {
            std::memcpy(f.bytes.data() + i * common::kPageSize, cur.page(f.gfns[i]).data(),
                        common::kPageSize);
          }
        }
      });
    }
    double payload = 0.0;
    for (const rep::wire::RegionFrame& f : frames) {
      payload += static_cast<double>(f.payload_bytes());
    }
    seal.run(spans, "replication.wire", "wire.seal_frame", epoch, payload, [&] {
      for (rep::wire::RegionFrame& f : frames) rep::wire::seal_frame(f);
    });
    rep::wire::EpochHeader header{epoch, frames.size(), rep::wire::digest_init(), version};
    for (const rep::wire::RegionFrame& f : frames) {
      header.digest = rep::wire::digest_fold(header.digest, f);
    }
    bool intact = true;
    verify.run(spans, "replication.wire", "wire.frame_intact", epoch, payload, [&] {
      for (const rep::wire::RegionFrame& f : frames) intact &= rep::wire::frame_intact(f);
    });
    std::uint32_t crc_sink = 0;
    crc.run(spans, "common", "common.crc32c", epoch, payload, [&] {
      for (const rep::wire::RegionFrame& f : frames) crc_sink ^= common::crc32c(f.bytes);
    });
    std::uint64_t digest_sink = crc_sink;
    digest.run(spans, "hv", "hv.page_digest", epoch, dirty_bytes, [&] {
      for (const common::Gfn g : gfns) digest_sink ^= cur.page_digest(g);
    });

    staging.begin_epoch(epoch);
    staging.expect_epoch(header);
    bool received = true;
    receive.run(spans, "replication.staging", "staging.receive_frame", epoch, payload,
                [&] {
                  for (const rep::wire::RegionFrame& f : frames) {
                    received &= staging.receive_frame(f) == rep::FrameVerdict::kOk;
                  }
                });
    Expected<std::uint64_t> applied = Status::internal("not run");
    commit.run(spans, "replication.staging", "staging.commit", epoch, 0.0,
               [&] { applied = staging.commit(); });
    const bool committed = intact && received && applied.ok();
    commits_ok = commits_ok && committed;
    if (!committed) {
      if (encoder) encoder->abort_epoch();
      break;
    }
    if (encoder) encoder->commit_epoch();

    rep::WalRecord record;
    record.epoch = epoch;
    record.version = version;
    record.header_digest = header.digest;
    for (const rep::wire::RegionFrame& f : frames) {
      record.region_digests.emplace_back(f.region, staging.committed_region_digest(f.region));
    }
    std::uint64_t live_sink = 0;
    live_digest.run(spans, "replication.staging", "staging.live_region_digest", epoch,
                    0.0, [&] {
                      for (const rep::wire::RegionFrame& f : frames) {
                        live_sink ^= staging.live_region_digest(f.region);
                      }
                    });
    frames_total += frames.size();
    payload_total += static_cast<std::uint64_t>(payload);
    record.frames = std::move(frames);
    append.run(spans, "replication.durable_store", "wal.append_epoch", epoch, 0.0,
               [&] { store.append_epoch(record); });
    if (store.rotation_due()) {
      snapshot.run(spans, "replication.durable_store", "wal.write_snapshot", epoch, 0.0,
                   [&] { store.write_snapshot(epoch, staging.memory(), staging.disk()); });
    }
    volatile std::uint64_t sink = digest_sink ^ live_sink;
    (void)sink;
  }
  gates.push_back({"replay epochs verify and commit", commits_ok && epoch > 0,
                   std::to_string(epoch) + " epochs replayed"});

  rep::ReplicaStaging recovered(spec, in.threads);
  Expected<rep::RecoveryResult> recovery = Status::internal("not run");
  Stage recover;
  recover.run(spans, "replication.durable_store", "wal.recover", 0, 0.0, [&] {
    recovery = rep::RecoveryManager(store).recover(recovered);
  });
  const bool recovered_ok = recovery.ok() && recovery.value().recovered_epoch == epoch &&
                            recovered.memory().full_digest() ==
                                staging.memory().full_digest();
  gates.push_back({"replay recovery reproduces the replica image", recovered_ok,
                   recovery.ok() ? "recovered epoch " +
                                       std::to_string(recovery.value().recovered_epoch)
                                 : recovery.status().to_string()});

  Stage translate;
  if (in.machine_state != nullptr && in.translation_target != nullptr) {
    translate.run(spans, "xlate", "xlate.translate_machine_state", 0, 0.0, [&] {
      for (int i = 0; i < kTranslations; ++i) {
        auto state = xlate::translate_machine_state(*in.machine_state,
                                                    *in.translation_target);
        volatile std::uint64_t sink = state->wire_bytes();
        (void)sink;
      }
    });
  }

  const double per_epoch = epoch > 0 ? static_cast<double>(epoch) : 1.0;
  out.set("hv.page_digest_mb_s", digest.mb_s(), "MB/s", Kind::kWall);
  out.set("hv.install_page_mb_s", install.mb_s(), "MB/s", Kind::kWall);
  out.set("common.crc32c_mb_s", crc.mb_s(), "MB/s", Kind::kWall);
  out.set("common.bitmap_collect_ns_per_page",
          pages_scanned > 0 ? 1e9 * collect.seconds / static_cast<double>(pages_scanned)
                            : 0.0,
          "ns", Kind::kWall);
  out.set("wire.seal_mb_s", seal.mb_s(), "MB/s", Kind::kWall);
  out.set("wire.verify_mb_s", verify.mb_s(), "MB/s", Kind::kWall);
  out.set("wire.payload_bytes_per_epoch", static_cast<double>(payload_total) / per_epoch,
          "bytes", Kind::kCount, epoch);
  out.set("wire.frames_per_epoch", static_cast<double>(frames_total) / per_epoch,
          "frames", Kind::kCount, epoch);
  out.set("encoder.encode_mb_s", encoded ? encode.mb_s() : capture.mb_s(), "MB/s",
          Kind::kWall);
  out.set("staging.commit_ms_per_epoch", 1e3 * commit.seconds / per_epoch, "ms",
          Kind::kWall);
  out.set("staging.receive_frame_mb_s", receive.mb_s(), "MB/s", Kind::kWall);
  out.set("staging.live_region_digest_us",
          frames_total > 0 ? 1e6 * live_digest.seconds / static_cast<double>(frames_total)
                           : 0.0,
          "us", Kind::kWall);
  out.set("wal.append_ms_per_epoch", 1e3 * append.seconds / per_epoch, "ms", Kind::kWall);
  out.set("wal.snapshot_ms",
          snapshot.calls > 0 ? 1e3 * snapshot.seconds / static_cast<double>(snapshot.calls)
                             : 0.0,
          "ms", Kind::kWall);
  out.set("wal.recover_ms", 1e3 * recover.seconds, "ms", Kind::kWall);
  out.set("xlate.xen_to_kvm_us", 1e6 * translate.seconds / kTranslations, "us",
          Kind::kWall);

  // Self-check: no stage may move bytes faster than memcpy could with the
  // same number of threads (each byte read once and written once).
  const double ceiling = memcpy_mb_s();
  out.set("replay.memcpy_mb_s", ceiling, "MB/s", Kind::kWall);
  std::string offenders;
  for (const auto& [name, stage] :
       {std::pair<const char*, const Stage*>{"install_page", &install},
        {"capture", &capture}, {"encode", &encode}, {"seal", &seal},
        {"verify", &verify}, {"crc32c", &crc}, {"page_digest", &digest},
        {"receive_frame", &receive}}) {
    if (stage->mb_s() > 2.0 * ceiling * stage->threads) {
      offenders += std::string(offenders.empty() ? "" : ", ") + name;
    }
  }
  gates.push_back({"no replay stage outruns memcpy", offenders.empty(),
                   offenders.empty() ? "" : "too fast: " + offenders});
}

}  // namespace herebench
