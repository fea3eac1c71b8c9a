// Test helper: a secondary host outage with a scheduled return, the one way
// a replica goes down and rejoins.
#pragma once

#include "replication/testbed.h"

namespace here::rep {

// Fails the testbed's secondary host now (crash by default) and repairs it
// `repair_after` later; the repair is the return that rejoins the replica.
inline void fail_secondary_for(Testbed& bed, sim::Duration repair_after,
                               hv::FaultKind fault = hv::FaultKind::kCrash) {
  bed.secondary().inject_fault(fault);
  bed.simulation().schedule_after(
      repair_after, [&bed] { bed.secondary().repair(); }, "secondary-repair");
}

}  // namespace here::rep
