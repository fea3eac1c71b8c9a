// detlint fixture: L3 through an owning smart pointer. A member held by
// std::unique_ptr types as its pointee, so a call through it edges into the
// pointee's method and no other method of that name. Never compiled, only
// scanned.
// detlint: rank-table
#define FIX_L3U_RANK_TABLE(X) \
  X(kFixL3uCommit, 300, "fixl3u.commit")

#include <memory>
#include <mutex>

class FixL3uPool {
 public:
  void fix_l3u_fan_out();
};

class FixL3uLog {
 public:
  void fix_l3u_fan_out();
};

void FixL3uPool::fix_l3u_fan_out() {
  parallel_for(8, [](int) {});
}

void FixL3uLog::fix_l3u_fan_out() {}

class FixL3uStaging {
 public:
  void fix_l3u_commit();
  void fix_l3u_flush();

 private:
  common::RankedMutex mu_{common::LockRank::kFixL3uCommit, "fixl3u.commit"};
  std::unique_ptr<FixL3uPool> pool_;
  std::shared_ptr<const FixL3uLog> log_;
};

void FixL3uStaging::fix_l3u_commit() {
  std::lock_guard lock(mu_);
  pool_->fix_l3u_fan_out();  // L3: the pool submits with mu_ held
}

void FixL3uStaging::fix_l3u_flush() {
  std::lock_guard lock(mu_);
  log_->fix_l3u_fan_out();  // clean: the log's method submits nothing
}
