#include "replication/replication_engine.h"

#include <utility>

#include "common/log.h"

namespace here::rep {

// --- Heartbeat / failover -----------------------------------------------------

void ReplicationEngine::send_heartbeat() {
  // Keep beating while a failover is in progress, and after it: a healed
  // partition must be able to deliver the fencing signal, and a primary that
  // outlived the activation learns it lost from the answer to its beat. A
  // demotion or a drain cancels the loop for good; it also ends once the
  // replica is active and the primary dead, whose return demotes it.
  if (primary_.alive() && primary_phase_ != PrimaryPhase::kArbitrating) {
    // While the resume probe is pending the recovered primary stays silent:
    // a heartbeat would fence an in-progress failover *around* the
    // arbitration, pre-empting the secondary's grant-or-deny decision.
    // Control message on the interconnect; a crashed host's packets drop, a
    // hung host never reaches this point.
    send_control(primary_.ic_node(), secondary_.ic_node(), kHeartbeatKind);
    bump(&EngineStats::heartbeats_sent);
  }
  if (failed_over() && !primary_.alive()) return;
  heartbeat_event_ = sim_.schedule_after(config_.heartbeat_interval,
                                         [this] { send_heartbeat(); },
                                         "heartbeat");
}

void ReplicationEngine::add_detector(std::unique_ptr<FailureDetector> detector) {
  detectors_.push_back(std::move(detector));
}

void ReplicationEngine::watchdog_check() {
  // Only a standby replica watches: a down or rejoining one holds no
  // committed image to fail over to.
  if (replica_phase_ == ReplicaPhase::kStandby &&
      primary_phase_ != PrimaryPhase::kSeeding) {
    if (sim_.now() - last_heartbeat_rx_ > config_.heartbeat_timeout) {
      on_heartbeat_lost();
    } else {
      // Active detectors (starvation, guest watchdog, intrusion detection):
      // a hit hands the VM over to the clean hypervisor (§8.2). Detector
      // failovers are deliberate decisions, so they are never fenced.
      for (const auto& detector : detectors_) {
        if (const auto reason = detector->check(sim_.now())) {
          begin_failover(std::string(detector->name()) + ": " + *reason,
                         /*fence_on_heartbeat=*/false);
          break;
        }
      }
    }
    // The watchdog loop parks while a failover or probe is pending; the
    // stand-down / probe-recovery paths restart it.
    if (replica_phase_ != ReplicaPhase::kStandby) return;
  }
  watchdog_event_ = sim_.schedule_after(config_.heartbeat_interval,
                                        [this] { watchdog_check(); },
                                        "watchdog");
}

void ReplicationEngine::on_heartbeat_lost() {
  if (!config_.ft.probe_on_heartbeat_loss) {
    begin_failover("heartbeat timeout", /*fence_on_heartbeat=*/true);
    return;
  }
  enter(ReplicaPhase::kProbing);
  if (!fabric_.connected(secondary_.eth_node(), primary_.eth_node())) {
    // Both networks unreachable: indistinguishable from a dead machine, so
    // the verdict is that of a probe nobody answered.
    finish_probe();
    return;
  }
  // Ask the primary over the management network. A partitioned-but-live
  // host answers; a crashed or hung one cannot.
  send_control(secondary_.eth_node(), primary_.eth_node(), kProbeRequestKind);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "watchdog.probe", "fo",
                            {{"timeout_ns", kProbeTimeout.count()}});
  }
  probe_event_ = sim_.schedule_after(
      kProbeTimeout, [this] { finish_probe(); }, "watchdog-probe");
}

void ReplicationEngine::finish_probe() {
  const bool answered = replica_phase_ == ReplicaPhase::kProbeAnswered;
  enter(ReplicaPhase::kStandby);
  if (sim_.now() - last_heartbeat_rx_ <= config_.heartbeat_timeout) {
    watchdog_check();  // heartbeats recovered while probing; resume the loop
    return;
  }
  stats_.failure_classification =
      answered ? "partition-suspected" : "crash-suspected";
  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        sim_.now(), "watchdog.classify", "fo",
        {{"classification", stats_.failure_classification}});
  }
  begin_failover("heartbeat timeout", /*fence_on_heartbeat=*/true);
}

void ReplicationEngine::trigger_failover(const std::string& reason) {
  if (!taking_over()) begin_failover(reason, /*fence_on_heartbeat=*/false);
}

void ReplicationEngine::begin_failover(const std::string& reason,
                                       bool fence_on_heartbeat) {
  if (drained()) return;
  if (!staging_ || !staging_->has_committed()) {
    HERE_LOG(kWarn, "failover requested (%s) but no committed checkpoint",
             reason.c_str());
    return;
  }
  const bool fenced =
      fence_on_heartbeat && config_.ft.fencing_window > sim::Duration::zero();
  enter(fenced ? ReplicaPhase::kFencing : ReplicaPhase::kFailingOver);
  stats_.failure_detected_at = sim_.now();
  abort_staged_epoch();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "failover.begin", "fo",
                            {{"reason", reason}});
  }

  HERE_LOG(kInfo, "failover: %s; activating replica on %s", reason.c_str(),
           secondary_.name().c_str());

  // kvmtool builds the VM around the already-resident replica memory.
  sim::Duration d = secondary_.hypervisor().cost_profile().activation();
  // Scheduler/IRQ-routing jitter observed on real activations (Fig. 7 shows
  // a 1-6 ms scatter that does not correlate with VM size).
  d += sim::from_micros(
      secondary_.hypervisor().rng().uniform_real(-600.0, 1800.0));
  // Fenced failovers hold activation for the fencing window: if the primary
  // heartbeats again within it, the replica stands down (split-brain guard).
  if (fenced) d += config_.ft.fencing_window;
  failover_activate_event_ =
      sim_.schedule_after(d, [this] { activate_replica(); },
                          "failover-activate");
}

void ReplicationEngine::stand_down_failover(bool by_probe) {
  enter(ReplicaPhase::kStandby);
  bump(&EngineStats::failovers_fenced);
  if (config_.tracer != nullptr && by_probe) {
    config_.tracer->instant(sim_.now(), "failover.fenced", "fo",
                            {{"fenced_total", stats_.failovers_fenced},
                             {"by", "resume-probe"}});
  } else if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "failover.fenced", "fo",
                            {{"fenced_total", stats_.failovers_fenced}});
  }
  // The epoch aborted at failover start folds back into the running epoch;
  // its buffered output was never dropped (that happens only at activation),
  // so the next commit releases it and clients see a gapless stream. An
  // arbitrating primary keeps its guest held and restarts on its grant.
  fold_back_epoch();
  resume_guest();
  restart_checkpointing();
  watchdog_check();
  HERE_LOG(kInfo, "failover stood down: primary %s before activation",
           by_probe ? "probed" : "heartbeat resumed");
}

void ReplicationEngine::activate_replica() {
  // Output commit: uncommitted output dies with the primary — dropped at
  // the moment the replica takes over the service address, not earlier (a
  // fenced failover must leave the buffer intact for the next commit).
  stats_.packets_dropped_at_failover = outbound_.drop_all();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        sim_.now(), "io.drop", "io",
        {{"dropped", stats_.packets_dropped_at_failover}});
  }

  // The committed image: memory, the disk mirror (applied up to the last
  // committed epoch), machine state already in the target's format and the
  // program snapshot.
  hv::Hypervisor& target = secondary_.hypervisor();
  hv::Vm& replica =
      activate_staged_image(target, *staging_, *staging_->committed_state(),
                            staging_->take_committed_program());

  // Direct egress from now on: the replica runs unprotected until the
  // control plane re-protects it in the opposite direction with a fresh
  // engine (ProtectionManager::enable_auto_reprotect).
  if (hv::NetDevice* dev = replica.net_device()) {
    dev->set_tx_hook([&fabric = fabric_, svc = service_node_](
                         const net::Packet& p) {
      net::Packet out = p;
      out.src = svc;
      fabric.send(out);
    });
  }

  stats_.replica_digest_at_activation = replica.memory().full_digest();
  stats_.committed_digest_at_activation = staging_->memory().full_digest();
  stats_.replica_disk_digest_at_activation = target.disk(replica).digest();
  stats_.committed_disk_digest_at_activation = staging_->disk().digest();

  replica_vm_ = &replica;
  target.start(replica);
  // Guest agent: unplug-old/plug-new device notification (§7.3).
  replica.agent_notify_device_switch(sim_.now(), target.rng());

  enter(ReplicaPhase::kActive);
  stats_.replica_active_at = sim_.now();
  stats_.resumption_time = sim_.now() - stats_.failure_detected_at;
  if (m_mttr_ms_ != nullptr) {
    m_mttr_ms_->add(sim::to_seconds(stats_.resumption_time) * 1e3);
  }

  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        sim_.now(), "failover.replica_active", "fo",
        {{"epoch", staging_->committed_epoch()},
         {"resumption_ns", stats_.resumption_time.count()},
         {"packets_dropped", stats_.packets_dropped_at_failover}});
  }

  HERE_LOG(kInfo, "replica active on %s after %s (epoch %llu)",
           secondary_.name().c_str(),
           sim::format_duration(stats_.resumption_time).c_str(),
           static_cast<unsigned long long>(staging_->committed_epoch()));
}

// --- Recovered-primary arbitration (ReHype microreboot race) -------------------

void ReplicationEngine::on_primary_recovered() {
  if (primary_phase_ == PrimaryPhase::kSeeding) return begin_seed_attempt();
  if (primary_phase_ != PrimaryPhase::kReplicating) return;
  if (failed_over()) {
    // The race is already over: the replica took the service address while
    // the primary was rebooting. Nothing to probe.
    demote_primary("replica already active at recovery");
    return;
  }
  // Nothing scheduled before the crash may fire mid-arbitration; the grant
  // path folds the aborted epoch back in and restarts the loop.
  enter(PrimaryPhase::kArbitrating);
  // The return resumed the preserved guests, but the protected VM must not
  // produce output until arbitration says this side still owns it (two
  // running instances of the service is exactly the split brain to prevent).
  if (vm_->state() == hv::VmState::kRunning) primary_.hypervisor().pause(*vm_);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "recovery.arbitrate", "fo",
                            {{"vm", vm_->spec().name}});
  }
  send_resume_probe();
}

void ReplicationEngine::send_resume_probe() {
  if (!primary_.alive()) {
    // Crashed again before winning: the arbitration attempt dies with the
    // host. The loops stay stopped; the next recovery starts a fresh one.
    enter(PrimaryPhase::kReplicating);
    return;
  }
  bump(&EngineStats::resume_probes);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "resume.probe", "fo",
                            {{"probes", stats_.resume_probes}});
  }
  // A replica its host's failure took down can neither arbitrate nor have
  // activated, so the recovered primary is authoritative (self-grant).
  if (replica_phase_ == ReplicaPhase::kDown) return on_resume_grant();
  send_control(primary_.ic_node(), secondary_.ic_node(), kResumeProbeKind,
               probe_token_);
  // Keep probing (partition, drop, hung secondary) until a verdict arrives.
  resume_probe_event_ = sim_.schedule_after(
      kProbeTimeout, [this] { send_resume_probe(); }, "resume-probe");
}

void ReplicationEngine::on_resume_probe(const net::Packet& packet) {
  // A drained generation no longer speaks for this VM — the successor
  // engine (same probe token) answers the arbitration instead. (A down
  // replica's host delivers nothing, so the probe retries.)
  if (drained()) return;
  // Linearization point: this handler runs atomically on the event queue, so
  // the verdict below is consistent with any failover armed or completed.
  // Once activation happened the answer is deny — forever; before it, the
  // probe cancels an armed-but-unfired failover exactly like fencing does.
  const bool deny = failed_over();
  if (!deny) {
    last_heartbeat_rx_ = sim_.now();
    // The recovered primary probed before replica activation.
    if (failover_in_progress()) stand_down_failover(/*by_probe=*/true);
  }
  send_control(secondary_.ic_node(), packet.src,
               deny ? kResumeDenyKind : kResumeGrantKind, probe_token_);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), deny ? "resume.deny" : "resume.grant",
                            "fo", {{"failed_over", deny}});
  }
}

void ReplicationEngine::on_resume_grant() {
  if (primary_phase_ != PrimaryPhase::kArbitrating || failed_over()) return;
  enter(PrimaryPhase::kReplicating);
  ++stats_.resume_grants;
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "resume.resumed", "fo",
                            {{"grants", stats_.resume_grants}});
  }
  // The epoch that died with the crash folds back into the running one so
  // the first post-recovery checkpoint re-ships it (output commit held: its
  // buffered output was never dropped, only activation drops).
  fold_back_epoch();
  resume_guest();
  restart_checkpointing();
  HERE_LOG(kInfo,
           "recovered primary won arbitration; output commit resumes");
}

void ReplicationEngine::demote_primary(const char* reason) {
  if (primary_phase_ >= PrimaryPhase::kDemoted) return;  // terminal already
  enter(PrimaryPhase::kDemoted);
  bump(&EngineStats::primary_demotions);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "primary.demoted", "fo",
                            {{"reason", reason}});
  }
  // The stale instance must never run again: its state forked from the
  // authoritative replica at the last committed epoch. Destroy it, unless the
  // control plane already did; the control plane re-seeds protection for the
  // activated replica, using this host's surviving durable store for a delta
  // seed where possible.
  hv::Vm& stale = *std::exchange(vm_, nullptr);
  if (primary_.hypervisor().owns(stale)) {
    if (stale.state() == hv::VmState::kRunning) {
      primary_.hypervisor().pause(stale);
    }
    primary_.hypervisor().destroy_vm(stale);
  }
  HERE_LOG(kInfo, "stale primary demoted (%s); re-seed candidate", reason);
}

}  // namespace here::rep
