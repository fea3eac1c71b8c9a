// detlint fixture: P1 over an enum laid out one enumerator per line, with
// trailing comments — the common layout in the tree. Never compiled.

enum class PrimaryPhase : std::uint8_t {
  kSeeding,      // until epoch 0 commits
  kReplicating,  // continuous checkpointing
  kDrained,      // inert
};

int fix_p1_multiline(PrimaryPhase p) {
  switch (p) {  // P1: misses kDrained
    case PrimaryPhase::kSeeding: return 0;
    case PrimaryPhase::kReplicating: return 1;
  }
  return -1;
}
