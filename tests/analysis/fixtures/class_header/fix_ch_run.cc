// detlint fixture: FixChOwner's members, declared in fix_ch_owner.h.
// Never compiled, only scanned.

void FixChOwner::fix_ch_run() {
  std::lock_guard lock(owner_mu_);
  store_.fix_ch_put();  // the store's rank 100 under the owner's rank 200
}

void FixChOwner::fix_ch_quiet() {
  std::lock_guard lock(owner_mu_);
  decoy_.fix_ch_put();  // clean: typed to FixChDecoy, which locks nothing
}
