// detlint fixture: FixChStore's members, declared in fix_ch_owner.h.
// Never compiled, only scanned.

void FixChStore::fix_ch_put() {
  std::lock_guard lock(store_mu_);  // L1 when FixChOwner::fix_ch_run calls
}
