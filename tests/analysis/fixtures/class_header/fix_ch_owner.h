// detlint fixture: one class's members split across TUs that have no
// sibling header (fix_ch_run.cc, fix_ch_store.cc). Their receivers and
// members resolve through this header, the one that defines the class.
// Never compiled, only scanned.
// detlint: rank-table
#define FIX_CH_RANK_TABLE(X) \
  X(kFixChStore, 100, "fixch.store") \
  X(kFixChOwner, 200, "fixch.owner")

class FixChStore {
 public:
  void fix_ch_put();

 private:
  common::RankedMutex store_mu_{common::LockRank::kFixChStore, "fixch.store"};
};

// Same method name as FixChStore, but takes no lock: only a name-only
// resolution would route an owner's call here and there alike.
class FixChDecoy {
 public:
  void fix_ch_put() {}
};

class FixChOwner {
 public:
  void fix_ch_run();
  void fix_ch_quiet();

 private:
  FixChStore store_;
  FixChDecoy decoy_;
  common::RankedMutex owner_mu_{common::LockRank::kFixChOwner, "fixch.owner"};
};
