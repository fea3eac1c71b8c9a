#include "replication/seeder.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"
#include "common/units.h"

namespace here::rep {

Seeder::Seeder(sim::Simulation& simulation, const TimeModel& model,
               common::ThreadPool& pool, hv::Hypervisor& hypervisor,
               hv::Vm& vm, ReplicaStaging& staging, SeedConfig config,
               obs::Tracer* tracer)
    : sim_(simulation),
      model_(model),
      pool_(pool),
      hv_(hypervisor),
      vm_(vm),
      staging_(staging),
      config_(config),
      tracer_(tracer),
      problematic_(std::make_unique<common::DirtyBitmap>(vm.memory().pages())) {}

Seeder::~Seeder() { sim_.cancel(pending_event_); }

std::uint32_t Seeder::workers() const {
  return config_.mode == SeedMode::kHereMultithreaded ? vm_.spec().vcpus : 1;
}

std::uint64_t Seeder::model_pages(std::uint64_t real_pages) const {
  return real_pages * vm_.spec().model_scale;
}

void Seeder::start(DoneFn done) {
  done_ = std::move(done);
  started_at_ = sim_.now();
  iteration_ = 0;

  // Dirty tracking must be live before the first byte is copied so that
  // writes racing the full pass are caught by later iterations.
  hv_.enable_dirty_bitmap(vm_);
  if (config_.mode == SeedMode::kHereMultithreaded) {
    if (!hv_.supports_pml_rings()) {
      throw std::invalid_argument(
          "multithreaded PML seeding requires the Xen model's per-vCPU "
          "rings; use SeedMode::kXenDefault on this hypervisor");
    }
    hv_.enable_pml_rings(vm_);
  }

  run_full_pass();
}

void Seeder::copy_pages(const std::vector<common::Gfn>& gfns) {
  if (gfns.empty()) return;
  const hv::GuestMemory& src = vm_.memory();
  pool_.parallel_for(gfns.size(), [&](std::size_t i) {
    staging_.memory().copy_page(gfns[i], src);
  });
}

void Seeder::run_full_pass() {
  const std::uint64_t pages = vm_.memory().pages();
  // Clear the pre-existing dirty state: the full pass transfers everything.
  hv_.dirty_bitmap(vm_)->clear();

  std::vector<common::Gfn> all(pages);
  for (common::Gfn g = 0; g < pages; ++g) all[g] = g;
  copy_pages(all);

  result_.pages_sent += pages;
  result_.bytes_sent += common::pages_to_bytes(pages);
  ++iteration_;

  const std::uint64_t n_model = model_pages(pages);
  const std::uint32_t p = workers();
  sim::Duration d =
      model_.seed_copy((n_model + p - 1) / p, n_model, p);
  if (config_.mode == SeedMode::kHereMultithreaded) {
    d += TimeModel::kSeedSetup;
  }
  HERE_LOG(kDebug, "seed: full pass of %llu pages in %s",
           static_cast<unsigned long long>(n_model),
           sim::format_duration(d).c_str());
  if (tracer_ != nullptr) {
    tracer_->complete(sim_.now(), d, "seed.full_pass", "seed", 0,
                      {{"pages", n_model}});
  }
  pending_event_ = sim_.schedule_after(d, [this] { run_iteration(); },
                                       "seed-iter");
}

std::uint64_t Seeder::capture_dirty(
    std::vector<std::vector<common::Gfn>>& per_worker, sim::Duration& scan_cost) {
  const std::uint32_t p = workers();
  per_worker.assign(p, {});
  std::uint64_t total = 0;

  if (config_.mode == SeedMode::kHereMultithreaded) {
    // Each migrator thread drains its own vCPU's PML ring (no cross-vCPU
    // interruption). Duplicates within a ring are deduped locally; pages
    // seen by multiple workers become problematic.
    auto rings = hv_.pml_rings(vm_);
    std::uint64_t entries = 0;
    for (std::uint32_t w = 0; w < p; ++w) {
      std::vector<common::Gfn> drained;
      rings[w].drain(drained);
      entries += drained.size();
      std::sort(drained.begin(), drained.end());
      drained.erase(std::unique(drained.begin(), drained.end()), drained.end());
      total += drained.size();
      per_worker[w] = std::move(drained);
    }
    // Pages in more than one worker's set this round were written by
    // multiple vCPUs: their concurrent transfers may arrive out of order.
    std::vector<common::Gfn> merged;
    for (const auto& w : per_worker) {
      merged.insert(merged.end(), w.begin(), w.end());
    }
    std::sort(merged.begin(), merged.end());
    for (std::size_t i = 1; i < merged.size(); ++i) {
      if (merged[i] == merged[i - 1]) problematic_->set(merged[i]);
    }
    // The shared bitmap tracked the same writes; clear it so the final
    // stop-and-copy only sees writes after this capture.
    hv_.dirty_bitmap(vm_)->clear();
    scan_cost = model_.pml_drain(entries * vm_.spec().model_scale);
  } else {
    // Stock Xen: scan the global log-dirty bitmap (cost scales with *all*
    // pages, not just dirty ones).
    common::DirtyBitmap& scratch = hv_.scratch_bitmap(vm_);
    hv_.dirty_bitmap(vm_)->exchange_into(scratch);
    scratch.collect(0, scratch.size_pages(), per_worker[0]);
    total = per_worker[0].size();
    scan_cost = model_.scan(model_pages(vm_.memory().pages()), 1);
  }
  return total;
}

void Seeder::run_iteration() {
  if (!hv_.operational()) return;  // primary died mid-seeding: abandon
  std::vector<std::vector<common::Gfn>> per_worker;
  sim::Duration scan_cost{};
  const std::uint64_t captured = capture_dirty(per_worker, scan_cost);

  if (captured < config_.threshold_pages ||
      iteration_ >= kSeedMaxIterations) {
    // Converged (or gave up): go to stop-and-copy. The captured set still
    // needs transferring; fold it into the final paused copy by re-marking.
    for (const auto& w : per_worker) {
      for (const common::Gfn g : w) hv_.dirty_bitmap(vm_)->set(g);
    }
    final_stop_copy();
    return;
  }

  // Live round: copy the captured pages while the VM keeps running.
  std::uint64_t max_worker = 0;
  std::vector<common::Gfn> merged;
  for (const auto& w : per_worker) {
    max_worker = std::max<std::uint64_t>(max_worker, w.size());
    merged.insert(merged.end(), w.begin(), w.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  copy_pages(merged);

  result_.pages_sent += captured;
  result_.bytes_sent += common::pages_to_bytes(captured);
  ++iteration_;

  const sim::Duration d =
      scan_cost + model_.seed_copy(model_pages(max_worker),
                                   model_pages(captured), workers());
  HERE_LOG(kDebug, "seed: iteration %u sent %llu pages in %s", iteration_,
           static_cast<unsigned long long>(captured),
           sim::format_duration(d).c_str());
  if (tracer_ != nullptr) {
    tracer_->complete(sim_.now(), d, "seed.iteration", "seed", 0,
                      {{"iteration", iteration_},
                       {"pages", model_pages(captured)}});
  }
  pending_event_ = sim_.schedule_after(d, [this] { run_iteration(); },
                                       "seed-iter");
}

void Seeder::final_stop_copy() {
  if (!hv_.operational()) return;
  // Pause the VM; everything from here happens with a quiescent guest.
  hv_.pause(vm_);

  std::vector<common::Gfn> remaining;
  common::DirtyBitmap& scratch = hv_.scratch_bitmap(vm_);
  hv_.dirty_bitmap(vm_)->exchange_into(scratch);
  scratch.collect(0, scratch.size_pages(), remaining);
  // Problematic pages (multithreaded consistency hazard) are re-sent now.
  result_.problematic_pages = problematic_->count();
  problematic_->collect(0, problematic_->size_pages(), remaining);
  std::sort(remaining.begin(), remaining.end());
  remaining.erase(std::unique(remaining.begin(), remaining.end()),
                  remaining.end());
  copy_pages(remaining);

  // Drain any residual PML entries so the checkpoint phase starts clean.
  if (config_.mode == SeedMode::kHereMultithreaded) {
    for (auto& ring : hv_.pml_rings(vm_)) ring.clear();
  }

  result_.pages_sent += remaining.size();
  result_.bytes_sent += common::pages_to_bytes(remaining.size());
  result_.iterations = iteration_;

  const std::uint32_t p = workers();
  const std::uint64_t n_model = model_pages(remaining.size());
  const sim::Duration d = hv_.cost_profile().vm_pause +
                          model_.scan(model_pages(vm_.memory().pages()), p) +
                          model_.seed_copy((n_model + p - 1) / p, n_model, p);
  result_.stop_copy_time = d;
  HERE_LOG(kDebug, "seed: stop-and-copy of %zu pages in %s", remaining.size(),
           sim::format_duration(d).c_str());
  if (tracer_ != nullptr) {
    tracer_->complete(sim_.now(), d, "seed.stop_copy", "seed", 0,
                      {{"pages", n_model},
                       {"problematic", result_.problematic_pages}});
  }

  pending_event_ = sim_.schedule_after(d, [this] {
    if (!hv_.operational()) return;
    result_.total_time = sim_.now() - started_at_;
    finished_ = true;
    if (tracer_ != nullptr) {
      tracer_->instant(sim_.now(), "seed.done", "seed",
                       {{"total_ns", result_.total_time.count()},
                        {"pages_sent", result_.pages_sent},
                        {"iterations", result_.iterations}});
    }
    if (done_) done_(result_);
  }, "seed-done");
}

}  // namespace here::rep
