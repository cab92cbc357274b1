#include "multiverse/event_channel.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "support/flightrec.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::multiverse {

namespace {
const char* kKindNames[2] = {"syscall", "fault"};
const char* kTransportNames[2] = {"async", "sync"};
}  // namespace

EventChannel::EventChannel(vmm::Hvm& hvm, ros::LinuxSim& linux, Sched& sched,
                           unsigned hrt_core, int id, TenantBinding tenant)
    : hvm_(&hvm), linux_(&linux), sched_(&sched), hrt_core_(hrt_core),
      id_(id), tenant_(tenant) {
  // Instruments live in the owning tenant's registry, named by the export
  // naming rule (see TenantBinding).
  metrics::Registry& reg = *tenant_.metrics;
  int mid = id_;
  if (tenant_.tenant_id != 0) {
    mid = tenant_.local_ordinal;
    tenant_args_ = strfmt(",\"tenant\":%d", tenant_.tenant_id);
    tenant_tag_ = strfmt(" tenant=%d", tenant_.tenant_id);
  }
  for (int kind = 0; kind < 2; ++kind) {
    for (int transport = 0; transport < 2; ++transport) {
      latency_metric_[kind][transport] = &reg.histogram(
          strfmt("channel/%d/latency/%s/%s", mid, kKindNames[kind],
                 kTransportNames[transport]));
    }
  }
  queue_wait_metric_ = &reg.histogram(strfmt("channel/%d/queue_wait", mid));
  occupancy_metric_ = &reg.histogram(strfmt("channel/%d/ring_occupancy", mid));
  served_metric_ = &reg.counter(strfmt("channel/%d/requests_served", mid));
  protocol_error_metric_ =
      &reg.counter(strfmt("channel/%d/protocol_errors", mid));
  contended_metric_ =
      &reg.counter(strfmt("channel/%d/contended_acquires", mid));
  doorbell_metric_ = &reg.counter(strfmt("channel/%d/doorbells", mid));
  suppressed_metric_ =
      &reg.counter(strfmt("channel/%d/doorbells_suppressed", mid));
  retry_metric_ = &reg.counter(strfmt("channel/%d/retries", mid));
  degradation_metric_ = &reg.counter(strfmt("channel/%d/degradations", mid));
  // Fleet-wide stall counter stays in the process registry on purpose (one
  // pager threshold); per-tenant attribution rides the SLO hook below.
  watchdog_stall_metric_ =
      &metrics::Registry::instance().counter("mv/watchdog/stalls");
}

EventChannel::~EventChannel() {
  FlightRecorder::instance().unregister_state_providers(this);
  // Return the ring page to the HRT allocator's freelist — channel churn
  // (tenant destroy/recreate) must not leak HRT physical memory.
  if (page_ != 0) hvm_->hrt_free_page(page_);
}

Status EventChannel::init() {
  MV_ASSIGN_OR_RETURN(page_, hvm_->hrt_alloc(hw::kPageSize));
  MV_ASSIGN_OR_RETURN(ring_, hvm_->machine().mem().frame_bytes(page_));
  page_write(Ring::kOffDepth, depth_);
  FlightRecorder::instance().register_state_provider(
      this,
      tenant_.tenant_id == 0
          ? strfmt("channel/%d", id_)
          : strfmt("tenant/%d/channel/%d", tenant_.tenant_id, id_),
      [this] { return debug_state(); });
  return Status::ok();
}

void EventChannel::set_ring_depth(unsigned depth) {
  depth_ = std::clamp<unsigned>(depth, 1, Ring::kMaxDepth);
  // Depth 1 keeps the eager doorbell: every submission pays the full
  // transport round trip, reproducing the single-slot protocol exactly.
  eager_ = depth_ == 1;
  if (ring_ != nullptr) page_write(Ring::kOffDepth, depth_);
}

std::uint64_t EventChannel::page_read(std::uint64_t off) const {
  std::uint64_t value = 0;
  std::memcpy(&value, ring_ + off, sizeof(value));
  return value;
}

void EventChannel::page_write(std::uint64_t off, std::uint64_t value) {
  std::memcpy(ring_ + off, &value, sizeof(value));
}

Cycles EventChannel::requester_cycles() const {
  return hvm_->machine().core(hrt_core_).cycles();
}

void EventChannel::set_consumer_polling(bool on, Cycles spin_window) {
  if (ring_ == nullptr) return;
  page_write(Ring::kOffConsumerPoll, on ? 1 : 0);
  spin_window_hint_ = on ? spin_window : 0;
}

Status EventChannel::enable_sync_mode(std::uint64_t sync_vaddr) {
  // One hypercall to hand the HRT the synchronization address; every later
  // round trip is pure shared memory.
  MV_RETURN_IF_ERROR(
      hvm_->hypercall(partner_ != nullptr ? partner_->core : 0,
                      vmm::Hypercall::kSetupSyncCall, sync_vaddr)
          .status());
  sync_vaddr_ = sync_vaddr;
  sync_mode_ = true;
  return Status::ok();
}

Cycles EventChannel::transport_cost() const {
  const auto& costs = hw::costs();
  if (sync_mode_) {
    const bool same_socket =
        partner_ != nullptr &&
        hvm_->machine().same_socket(hrt_core_, partner_->core);
    return costs.sync_call_roundtrip(same_socket);
  }
  return costs.async_call_roundtrip();
}

bool EventChannel::slot_is_free(std::uint64_t seq) const {
  return page_read(slot_base(seq) + Ring::kSlotState) ==
         static_cast<std::uint64_t>(Ring::kFree);
}

std::uint64_t EventChannel::claim_slot() {
  std::uint64_t tail = page_read(Ring::kOffSubTail);
  if (!slot_is_free(tail)) {
    // Queue-wait accounting: cycles the requester's core advanced between
    // joining the waiter queue and winning a slot (other requesters' round
    // trips run on the same HRT core, so its clock keeps moving).
    ++contended_acquires_;
    MV_COUNTER_INC(contended_metric_, 1);
    const Cycles wait_begin = requester_cycles();
    const TaskId self = sched_->current();
    bool queued = false;
    for (;;) {
      tail = page_read(Ring::kOffSubTail);
      if (slot_is_free(tail)) break;
      // Enqueue at most once per wait episode: a waiter that loses the race
      // after a wakeup must not add a second (stale) entry.
      if (!queued) {
        claim_waiters_.push_back(self);
        queued = true;
      }
      sched_->block();
      // A reaper's wakeup pops the entry before unblocking; any other
      // wakeup leaves it queued. Recompute membership from the queue itself.
      queued = std::find(claim_waiters_.begin(), claim_waiters_.end(), self) !=
               claim_waiters_.end();
    }
    // Stop waiting: drop our entry if it is still queued, so a later
    // completion never spuriously unblocks a task that moved on.
    if (queued) {
      claim_waiters_.erase(
          std::remove(claim_waiters_.begin(), claim_waiters_.end(), self),
          claim_waiters_.end());
    }
    MV_HISTOGRAM_RECORD(queue_wait_metric_,
                        static_cast<double>(requester_cycles() - wait_begin));
  }
  return tail;
}

void EventChannel::wake_next_claimer() {
  if (claim_waiters_.empty()) return;
  const TaskId next = claim_waiters_.front();
  claim_waiters_.pop_front();
  sched_->unblock(next);
}

void EventChannel::wake_partner() {
  if (wake_server_) {
    wake_server_();
  } else if (partner_ != nullptr) {
    // wake(), not unblock(): a wake aimed at a partner that is mid-service
    // (not blocked yet) is remembered as a pending-wake token its next
    // block() consumes, closing the checked-empty-then-blocked window.
    sched_->wake(partner_->task);
  }
}

void EventChannel::on_doorbell() { wake_partner(); }

void EventChannel::submit(std::uint64_t seq, std::uint64_t kind) {
  // Observational tenant context for the abort header (host-side only).
  FlightRecorder::instance().set_current_tenant(tenant_.tenant_id);
  SlotMeta& meta = slots_[seq % depth_];
  meta.requester = sched_->current();
  meta.begin = requester_cycles();
  meta.kind_idx = kind == kFault ? 1 : 0;
  meta.transport_idx = sync_mode_ ? 1 : 0;
  // Span ids are allocated unconditionally (the Tracer bumps its counter
  // with tracing off too) so the page image is identical either way.
  meta.span = Tracer::instance().alloc_span();
  meta.retries = 0;
  meta.degraded = false;
  meta.stall_flagged = false;
  meta.swallowed.reset();
  // Non-zero only while a consumer is polling this ring: the watchdog grants
  // the poll window as slack for this occupancy (exitless pickup).
  meta.spin_slack = spin_window_hint_;

  const std::uint64_t slot = slot_base(seq);
  page_write(slot + Ring::kSlotKind, kind);
  page_write(slot + Ring::kSlotSpan, meta.span);
  page_write(slot + Ring::kSlotState, Ring::kSubmitted);
  page_write(Ring::kOffSubTail, seq + 1);
  const std::uint64_t occupancy = seq + 1 - page_read(Ring::kOffSubHead);
  MV_HISTOGRAM_RECORD(occupancy_metric_, static_cast<double>(occupancy));
  MV_TRACE_FLOW('s', hrt_core_, meta.span, meta.begin);
  MV_TRACE_ANNOTATE(
      hrt_core_, "span", "enqueue",
      strfmt("\"span\":%llu,\"chan\":%d,\"seq\":%llu,\"kind\":\"%s\","
             "\"occupancy\":%llu",
             static_cast<unsigned long long>(meta.span), id_,
             static_cast<unsigned long long>(seq), kKindNames[meta.kind_idx],
             static_cast<unsigned long long>(occupancy)) +
          tenant_args_);
  FlightRecorder::instance().record(hrt_core_, FrKind::kSubmit, meta.span, seq,
                                    occupancy, kKindNames[meta.kind_idx],
                                    tenant_.tenant_id);

  if (replay_armed_ && seq % depth_ == replay_slot_) {
    // The duplicated completion delivery raced slot reuse: a stale
    // completion clobbers the fresh submission's state words. complete()
    // detects the stale sequence number and re-publishes the request.
    page_write(slot + Ring::kSlotState, Ring::kCompleted);
    page_write(slot + Ring::kSlotRspSeq, replay_.seq);
    page_write(slot + Ring::kSlotRspStatus, replay_.status);
    page_write(slot + Ring::kSlotRspValue, replay_.value);
    replay_armed_ = false;
  }

  hw::Core& core = hvm_->machine().core(hrt_core_);
  if (!sync_mode_ && page_read(Ring::kOffConsumerPoll) != 0) {
    // Exitless flush: the shard's service worker is polling this ring, so
    // the staged stores are all the transport there is — no doorbell
    // hypercall, no VMM traversal, no exit. Counted separately from
    // doorbells_ (which tallies hypercalls actually taken). wake_partner()
    // is host-side scheduling, modeling the polling consumer observing the
    // tail move.
    core.charge(hw::costs().ring_submit());
    ++doorbells_suppressed_;
    MV_COUNTER_INC(suppressed_metric_, 1);
    MV_COUNTER_INC(tenant_.slo_doorbells_suppressed, 1);
    FlightRecorder::instance().record(hrt_core_, FrKind::kDoorbellSuppress,
                                      meta.span, seq, 0,
                                      eager_ ? "eager" : "batched",
                                      tenant_.tenant_id);
    wake_partner();
    return;
  }
  if (sync_mode_) {
    // Post-merge memory protocol: per-request cache-line transfers make the
    // submission visible and the partner polls the ring — no hypercall, on
    // eager and batched rings alike.
    core.charge(transport_cost());
    if (inject(FaultClass::kDelayWakeup, core.cycles())) {
      meta.swallowed = FaultClass::kDelayWakeup;
      MV_TRACE_ANNOTATE(hrt_core_, "span", "fault:delay_wakeup",
                        span_args(meta.span));
      return;
    }
    wake_partner();
    return;
  }

  // Async transport. Eager (compatibility mode): the requester observes the
  // full transport latency per request, exactly as the single-slot protocol
  // charged it; the partner's actual handler work lands on the ROS core in
  // the service code, and the doorbell is part of the composite cost.
  // Batched: staging the slot is plain cached stores, and the doorbell rings
  // only when no flush is pending — the server clears the flag once it
  // drains the ring empty, so a burst of submissions shares one kRaiseRos.
  core.charge(eager_ ? transport_cost() : hw::costs().ring_submit());
  if (!eager_) {
    if (page_read(Ring::kOffDoorbell) != 0) {
      // Coalesced onto an outstanding doorbell: no VMM traversal to trace.
      wake_partner();
      return;
    }
    page_write(Ring::kOffDoorbell, 1);
  }
  ++doorbells_;
  MV_COUNTER_INC(doorbell_metric_, 1);
  // The doorbell traverses the VMM whether or not delivery succeeds.
  trace_vmm_hop(meta.span, "doorbell");
  FlightRecorder::instance().record(hrt_core_, FrKind::kDoorbell, meta.span,
                                    seq, 0, eager_ ? "eager" : "batched",
                                    tenant_.tenant_id);
  if (!eager_) {
    raise_ros(meta, seq + 1 - page_read(Ring::kOffSubHead));
    return;
  }
  if (inject(FaultClass::kDropDoorbell, core.cycles())) {
    // The composite doorbell+injection was lost: the submission sits in the
    // ring with no wakeup. The requester's deadline recovers.
    meta.swallowed = FaultClass::kDropDoorbell;
    MV_TRACE_ANNOTATE(hrt_core_, "span", "fault:drop_doorbell",
                      span_args(meta.span));
    FlightRecorder::instance().record(hrt_core_, FrKind::kDoorbellDrop,
                                      meta.span, seq, 0, "", tenant_.tenant_id);
    return;
  }
  wake_partner();
}

void EventChannel::raise_ros(SlotMeta& meta, std::uint64_t pending) {
  // The VMM answers with its delivery count. The guest protocol never acts
  // on it; the simulator uses it to choose how this request waits.
  auto delivered = hvm_->hypercall(hrt_core_, vmm::Hypercall::kRaiseRos,
                                   static_cast<std::uint64_t>(id_), pending);
  if (!delivered) {
    // No doorbell dispatcher registered (white-box setups): fall back to
    // waking the partner task directly.
    wake_partner();
  } else if (*delivered == 0) {
    meta.swallowed = FaultClass::kDropDoorbell;
  }
}

std::string EventChannel::span_args(std::uint64_t span) const {
  return strfmt("\"span\":%llu", static_cast<unsigned long long>(span)) +
         tenant_args_;
}

void EventChannel::trace_vmm_hop(std::uint64_t span, const char* what) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  // A one-cycle slice on the synthetic VMM track plus a flow step through
  // it: the arrow chain shows the request crossing the VMM boundary.
  const std::uint64_t ts = t.now(hrt_core_);
  t.complete(Tracer::kVmmTrack, "vmm", strfmt("%s chan%d", what, id_), ts,
             ts + 1, span_args(span));
  t.flow('t', Tracer::kVmmTrack, span, ts);
}

Result<std::uint64_t> EventChannel::complete(std::uint64_t seq) {
  const std::uint64_t slot = slot_base(seq);
  SlotMeta& meta = slots_[seq % depth_];
  hw::Core& core = hvm_->machine().core(hrt_core_);
  // A swallowed wakeup waits on the requester's own clock: a generous first
  // deadline (several uncontended async round trips), doubled on each
  // expiry. The poll charge keeps that clock moving even when the requester
  // is the only runnable task, so a swallowed wakeup can never hang the
  // schedule, and polling still sees a partner that serves it anyway.
  static constexpr int kMaxAttempts = 8;
  static constexpr Cycles kPollCycles = 200;
  Cycles deadline = 4 * hw::costs().async_call_roundtrip();
  Cycles wait_begin = requester_cycles();
  int attempts = 0;
  for (;;) {
    if (page_read(slot + Ring::kSlotState) ==
        static_cast<std::uint64_t>(Ring::kCompleted)) {
      if (page_read(slot + Ring::kSlotRspSeq) == seq) break;
      if (!partner_died_) {
        // Stale duplicate completion aimed at an earlier occupant of this
        // physical slot: the free-running sequence number exposes it. Drop
        // it and re-publish the clobbered submission.
        page_write(slot + Ring::kSlotState, Ring::kSubmitted);
        if (plan_ != nullptr) plan_->note_recovered(FaultClass::kDupDoorbell);
        wake_partner();
        continue;
      }
    }
    if (partner_died_) {
      // No server left to serve it: complete the request as kIo so the reap
      // path (latency, slot release, claimer wake) stays uniform. A
      // swallowed wakeup is then lost with the partner, not recovered.
      fail_slot(seq);
      meta.swallowed.reset();
      break;
    }
    if (!meta.swallowed) {
      // The wakeup was delivered; the server's completion unblocks us.
      sched_->block();
      check_watchdog(seq);
      continue;
    }
    core.charge(kPollCycles);
    sched_->yield();
    check_watchdog(seq);
    if (requester_cycles() - wait_begin < deadline) continue;
    // Deadline expired: re-drive the transport, with exponential backoff and
    // a hard retry cap.
    ++attempts;
    MV_CHECK(attempts <= kMaxAttempts, "event-channel retry limit exceeded");
    retry_transport(meta);
    deadline *= 2;
    wait_begin = requester_cycles();
  }
  if (attempts == 0) consecutive_doorbell_losses_ = 0;
  // Still swallowed: a partner that was awake anyway served it first.
  if (meta.swallowed && plan_ != nullptr) {
    plan_->note_recovered(*meta.swallowed);
  }
  return reap(seq);
}

Result<std::uint64_t> EventChannel::reap(std::uint64_t seq) {
  const std::uint64_t slot = slot_base(seq);
  SlotMeta& meta = slots_[seq % depth_];
  std::uint64_t status_code = page_read(slot + Ring::kSlotRspStatus);
  std::uint64_t value = page_read(slot + Ring::kSlotRspValue);
  if (status_code != 0 && !err_code_is_known(status_code)) {
    // The in-page status word is garbage. The server's host-side completion
    // record is authoritative: re-fetch from it (one coherence transfer)
    // instead of re-executing the request, so recovery stays idempotent.
    const CompletionRecord& rec = completions_[seq % depth_];
    if (rec.valid && rec.seq == seq) {
      hw::Core& core = hvm_->machine().core(hrt_core_);
      core.charge(partner_ != nullptr
                      ? hvm_->machine().line_transfer_cost(hrt_core_,
                                                           partner_->core)
                      : hw::costs().cacheline_same_socket);
      status_code = rec.status;
      value = rec.value;
      if (plan_ != nullptr) plan_->note_recovered(FaultClass::kCorruptStatus);
    }
  }
  page_write(slot + Ring::kSlotKind, kIdle);
  page_write(slot + Ring::kSlotState, Ring::kFree);
  meta.requester = kNoTask;
  if (!eager_ && !sync_mode_) {
    hvm_->machine().core(hrt_core_).charge(hw::costs().ring_reap());
  }

  // Requester-observed request latency, in the HRT core's cycle domain —
  // the SLO quantity: submission to completion as the tenant saw it.
  const Cycles request_end = requester_cycles();
  MV_HISTOGRAM_RECORD(latency_metric_[meta.kind_idx][meta.transport_idx],
                      static_cast<double>(request_end - meta.begin));
  MV_HISTOGRAM_RECORD(tenant_.slo_latency,
                      static_cast<double>(request_end - meta.begin));
  if (Tracer::instance().enabled()) {
    Tracer& t = Tracer::instance();
    t.complete(hrt_core_, "channel",
               strfmt("chan%d %s/%s", id_, kKindNames[meta.kind_idx],
                      kTransportNames[meta.transport_idx]),
               meta.begin, request_end,
               strfmt("\"span\":%llu,\"retries\":%u,\"degraded\":%s,"
                      "\"status\":%llu",
                      static_cast<unsigned long long>(meta.span), meta.retries,
                      meta.degraded ? "true" : "false",
                      static_cast<unsigned long long>(status_code)) +
                   tenant_args_);
    t.flow('f', hrt_core_, meta.span, request_end);
  }
  FlightRecorder::instance().record(hrt_core_, FrKind::kComplete, meta.span,
                                    seq, status_code, "", tenant_.tenant_id);
  // The freed slot is claimable: hand it to the oldest queued claimer.
  wake_next_claimer();

  if (status_code != 0) {
    if (!err_code_is_known(status_code)) {
      // A raw status word outside the known Err range must not be cast into
      // a fabricated error value — count it as a protocol violation.
      ++protocol_errors_;
      MV_COUNTER_INC(protocol_error_metric_, 1);
      return err(Err::kProtocol,
                 strfmt("out-of-range completion status %#llx",
                        static_cast<unsigned long long>(status_code)));
    }
    return err(static_cast<Err>(status_code), "forwarded request failed");
  }
  return value;
}

void EventChannel::retry_transport(SlotMeta& meta) {
  ++retries_;
  ++meta.retries;
  MV_COUNTER_INC(retry_metric_, 1);
  MV_TRACE_ANNOTATE(hrt_core_, "channel", "retry",
                    strfmt("\"span\":%llu,\"attempt\":%u",
                           static_cast<unsigned long long>(meta.span),
                           meta.retries) +
                        tenant_args_);
  FlightRecorder::instance().record(hrt_core_, FrKind::kRetry, meta.span,
                                    meta.retries, 0, "", tenant_.tenant_id);
  // Re-driving recovers the swallowed wakeup, counted against the class that
  // swallowed it. A re-rung doorbell the VMM drops again is a new injection.
  const FaultClass cause = *meta.swallowed;
  meta.swallowed.reset();
  if (plan_ != nullptr) plan_->note_recovered(cause);
  if (cause == FaultClass::kDelayWakeup || sync_mode_) {
    // A delayed sync wakeup is delivered now; a sync-mode partner polls
    // shared memory, so waking it is the whole transport.
    wake_partner();
    return;
  }
  // Async transport: the doorbell was lost. After enough consecutive losses
  // stop trusting it and degrade to the sync transport, which has no
  // VMM-mediated delivery to lose.
  static constexpr unsigned kDegradeThreshold = 3;
  ++consecutive_doorbell_losses_;
  if (consecutive_doorbell_losses_ >= kDegradeThreshold) {
    degrade_to_sync(meta.span);
    meta.degraded = true;
    wake_partner();
    return;
  }
  // Re-ring the doorbell for the whole pending window.
  ++doorbells_;
  MV_COUNTER_INC(doorbell_metric_, 1);
  trace_vmm_hop(meta.span, "re-doorbell");
  FlightRecorder::instance().record(hrt_core_, FrKind::kDoorbell, meta.span, 0,
                                    0, "retry", tenant_.tenant_id);
  raise_ros(meta, page_read(Ring::kOffSubTail) - page_read(Ring::kOffSubHead));
}

bool EventChannel::inject(FaultClass c, Cycles now) {
  if (plan_ == nullptr || !plan_->should_inject(c, now)) return false;
  plan_->note_injected(c);
  return true;
}

void EventChannel::degrade_to_sync(std::uint64_t span) {
  ++degradations_;
  MV_COUNTER_INC(degradation_metric_, 1);
  MV_TRACE_ANNOTATE(hrt_core_, "channel", "degrade_to_sync",
                    span_args(span));
  FlightRecorder::instance().record(hrt_core_, FrKind::kDegrade, span, 0, 0, "",
                                    tenant_.tenant_id);
  consecutive_doorbell_losses_ = 0;
  // One kSetupSyncCall hands the ROS side the polling address; every later
  // round trip is the pure memory protocol.
  (void)hvm_->hypercall(hrt_core_, vmm::Hypercall::kSetupSyncCall, page_);
  sync_vaddr_ = page_;
  sync_mode_ = true;
}

void EventChannel::forward_syscalls(std::span<const ros::SysReq> reqs,
                                    std::span<Result<std::uint64_t>> out) {
  if (partner_ == nullptr || partner_died_) {
    std::ranges::fill(out, partner_ == nullptr
                               ? err(Err::kState, "channel has no partner")
                               : err(Err::kIo, "event-channel partner died"));
    return;
  }
  // Requests complete in submission order, so request i's sequence number
  // waits in inflight[i % kMaxDepth]: each in-flight request holds a slot,
  // and there are at most kMaxDepth slots.
  std::array<std::uint64_t, Ring::kMaxDepth> inflight{};
  std::size_t submitted = 0;
  std::size_t completed = 0;
  while (completed < reqs.size()) {
    const bool can_submit =
        submitted < reqs.size() &&
        (submitted == completed || slot_is_free(page_read(Ring::kOffSubTail)));
    if (can_submit) {
      const std::uint64_t seq = claim_slot();
      const std::uint64_t slot = slot_base(seq);
      const ros::SysReq& req = reqs[submitted];
      page_write(slot + Ring::kSlotSysNr, static_cast<std::uint64_t>(req.nr));
      for (std::size_t i = 0; i < req.args.size(); ++i) {
        page_write(slot + Ring::kSlotArgs + 8 * i, req.args[i]);
      }
      submit(seq, kSyscall);
      inflight[submitted++ % Ring::kMaxDepth] = seq;
    } else {
      out[completed] = complete(inflight[completed % Ring::kMaxDepth]);
      ++completed;
    }
  }
}

Status EventChannel::forward_fault(std::uint64_t vaddr,
                                   std::uint32_t error_code) {
  if (partner_ == nullptr) return err(Err::kState, "channel has no partner");
  if (partner_died_) return err(Err::kIo, "event-channel partner died");
  const std::uint64_t seq = claim_slot();
  const std::uint64_t slot = slot_base(seq);
  page_write(slot + Ring::kSlotVaddr, vaddr);
  page_write(slot + Ring::kSlotError, error_code);
  submit(seq, kFault);
  return complete(seq).status();
}

void EventChannel::notify_thread_exit(int hrt_tid) {
  // "Asynchronous HRT-to-ROS signaling bypasses the ROS kernel": the HVM
  // injects an "interrupt to user" into the registering process, whose
  // handler (the Multiverse runtime) flips the partner's completion bit —
  // and records which HRT thread exited, via mark_exit's payload.
  auto r = hvm_->hypercall(hrt_core_, vmm::Hypercall::kSignalRos,
                           static_cast<std::uint64_t>(hrt_tid));
  if (!r) {
    // No handler registered (e.g. bare accelerator test); flip directly.
    mark_exit(hrt_tid);
  }
}

void EventChannel::mark_exit(int hrt_tid) {
  if (hrt_tid >= 0) exited_tid_ = hrt_tid;
  exit_ = true;
  wake_partner();
}

bool EventChannel::serve_pending(ros::Thread& server) {
  if (partner_died_) return false;
  // Serve-side work executes on behalf of this channel's tenant.
  FlightRecorder::instance().set_current_tenant(tenant_.tenant_id);
  const std::uint64_t head = page_read(Ring::kOffSubHead);
  if (head == page_read(Ring::kOffSubTail)) return false;
  const std::uint64_t slot = slot_base(head);
  if (page_read(slot + Ring::kSlotState) !=
      static_cast<std::uint64_t>(Ring::kSubmitted)) {
    // Tail moved but the slot is not published — a protocol state the
    // cooperative schedule cannot produce; refuse rather than serve garbage.
    return false;
  }
  ros::LinuxSim& kernel = *linux_;
  hw::Core& ros_core = kernel.core_of(server);
  const std::uint64_t span = page_read(slot + Ring::kSlotSpan);
  const Cycles serve_begin = ros_core.cycles();

  // Validate the request kind *before* counting it as served: malformed
  // requests get a protocol-error response and their own counter, so the
  // served count never inflates on garbage.
  const std::uint64_t kind = page_read(slot + Ring::kSlotKind);
  std::uint64_t rsp_status = 0;
  std::uint64_t rsp_value = 0;
  // Serve in the owner's process, whoever's thread the server is.
  ros::UseProcess use_owner(server, owner_ != nullptr ? *owner_ : *server.proc);

  if (kind == kSyscall) {
    ++requests_served_;
    MV_COUNTER_INC(served_metric_, 1);
    const auto nr = static_cast<ros::SysNr>(page_read(slot + Ring::kSlotSysNr));
    std::array<std::uint64_t, 6> args{};
    for (std::size_t i = 0; i < args.size(); ++i) {
      args[i] = page_read(slot + Ring::kSlotArgs + 8 * i);
    }
    // Forwarded syscalls execute — and are accounted — in the originating
    // ROS thread context, exactly as strace of the hybrid would show.
    auto result = kernel.do_syscall(server, nr, args, /*forwarded=*/true);
    if (result) {
      rsp_value = *result;
    } else {
      rsp_status = static_cast<std::uint64_t>(result.code());
    }
  } else if (kind == kFault) {
    ++requests_served_;
    MV_COUNTER_INC(served_metric_, 1);
    // "The HVM library simply replicates the access, which will cause the
    // same exception to occur on the ROS core. The ROS will then handle it
    // as it would normally." (Including SIGSEGV delivery to the guest's
    // handler — that is how GC write barriers keep working in the HRT.)
    const std::uint64_t vaddr = page_read(slot + Ring::kSlotVaddr);
    const std::uint32_t error =
        static_cast<std::uint32_t>(page_read(slot + Ring::kSlotError));
    const hw::Access access =
        (error & 2u) != 0 ? hw::Access::kWrite : hw::Access::kRead;
    const Status replayed = kernel.user_access(server, [&](hw::Core& core) {
      return core.mem_touch(vaddr, access);
    });
    if (!replayed.is_ok()) {
      rsp_status = static_cast<std::uint64_t>(replayed.code());
    }
  } else {
    ++protocol_errors_;
    MV_COUNTER_INC(protocol_error_metric_, 1);
    MV_TRACE_INSTANT(server.core, "channel", "protocol_error");
    rsp_status = static_cast<std::uint64_t>(Err::kProtocol);
  }

  // Host-side completion record: holds the true status even if the in-page
  // word below gets corrupted, so recovery never re-executes the request.
  completions_[head % depth_] =
      CompletionRecord{head, rsp_status, rsp_value, true};

  std::uint64_t published_status = rsp_status;
  if (inject(FaultClass::kCorruptStatus, ros_core.cycles())) {
    // Corrupt the published status word with a value outside the known Err
    // range; the requester's validation catches it and consults the record.
    published_status = 0xDEAD0000ull;
  }
  page_write(slot + Ring::kSlotRspStatus, published_status);
  page_write(slot + Ring::kSlotRspValue, rsp_value);
  page_write(slot + Ring::kSlotRspSeq, head);
  page_write(slot + Ring::kSlotState, Ring::kCompleted);
  page_write(Ring::kOffSubHead, head + 1);

  if (!replay_armed_ && inject(FaultClass::kDupDoorbell, ros_core.cycles())) {
    // Arm a stale replay: this completion will be delivered a second time
    // when the physical slot is next reused (a duplicated doorbell racing
    // slot reuse). The requester must detect and drop it by sequence number.
    replay_armed_ = true;
    replay_slot_ = head % depth_;
    replay_ = CompletionRecord{head, published_status, rsp_value, true};
  }

  // Drain bookkeeping: once the ring is empty, retire the coalesced
  // doorbell (the next submission rings a fresh one) and deliver the
  // batch's single completion notification back to the HRT side.
  if (page_read(Ring::kOffSubHead) == page_read(Ring::kOffSubTail) &&
      page_read(Ring::kOffDoorbell) != 0) {
    page_write(Ring::kOffDoorbell, 0);
    ros_core.charge(hw::costs().user_interrupt_setup);
  }

  if (Tracer::instance().enabled()) {
    // Serve-side hop of the span chain, in the ROS core's cycle domain.
    Tracer& t = Tracer::instance();
    t.flow('t', server.core, span, serve_begin);
    t.complete(server.core, "channel", strfmt("serve chan%d", id_),
               serve_begin, ros_core.cycles(),
               strfmt("\"span\":%llu,\"seq\":%llu",
                      static_cast<unsigned long long>(span),
                      static_cast<unsigned long long>(head)) +
                   tenant_args_);
  }
  FlightRecorder::instance().record(server.core, FrKind::kServe, span, head,
                                    rsp_status, "", tenant_.tenant_id);

  const TaskId requester = slots_[head % depth_].requester;
  if (requester != kNoTask) sched_->unblock(requester);
  return true;
}

void EventChannel::service_loop() {
  MV_CHECK(partner_ != nullptr, "service_loop without a bound partner");
  for (;;) {
    // Sleep until a submission or the exit signal arrives. A wake that
    // raced this check leaves a pending-wake token; block() consumes it and
    // the loop re-checks immediately instead of sleeping through it.
    while (!has_request() && !exit_) {
      sched_->block();
    }
    if (!has_request() && exit_) return;
    if (inject(FaultClass::kPartnerDeath,
               linux_->core_of(*partner_).cycles())) {
      partner_die();
      return;
    }
    // Drain the ring: every submission that arrived before (or during) this
    // wakeup is served before the partner sleeps again.
    bool progress = false;
    while (serve_pending(*partner_)) progress = true;
    if (!progress && has_request() && !exit_) {
      // The head slot is unserveable — a stale replay can clobber it until
      // the requester re-publishes. Sleep (the repair path wakes us) instead
      // of spinning in the cooperative schedule.
      sched_->block();
    }
  }
}

void EventChannel::partner_die() {
  partner_died_ = true;
  MV_TRACE_INSTANT(partner_->core, "channel", "partner_death");
  FlightRecorder::instance().record(partner_->core, FrKind::kPartnerDeath, 0,
                                    static_cast<std::uint64_t>(id_), 0, "",
                                    tenant_.tenant_id);
  // Snapshot before fail_inflight() so the stuck slots are still visible.
  FlightRecorder::instance().take_snapshot(
      strfmt("partner-death: chan%d", id_) + tenant_tag_);
  fail_inflight();
  // Preserve join semantics: the partner's task lingers — failing any
  // straggler submissions, serving nothing — until the HRT thread exits, so
  // joining the partner still means "the HRT thread is done".
  while (!exit_) {
    sched_->block();
    fail_inflight();
  }
}

void EventChannel::fail_inflight() {
  std::uint64_t head = page_read(Ring::kOffSubHead);
  const std::uint64_t tail = page_read(Ring::kOffSubTail);
  for (; head != tail; ++head) {
    const std::uint64_t slot = slot_base(head);
    if (page_read(slot + Ring::kSlotState) !=
        static_cast<std::uint64_t>(Ring::kSubmitted)) {
      // A stale replay clobbered this submission; its requester fails it
      // locally via the partner_died_ path in complete().
      continue;
    }
    fail_slot(head);
    const TaskId requester = slots_[head % depth_].requester;
    if (requester != kNoTask) sched_->unblock(requester);
  }
  page_write(Ring::kOffSubHead, tail);
  if (page_read(Ring::kOffDoorbell) != 0) page_write(Ring::kOffDoorbell, 0);
}

void EventChannel::fail_slot(std::uint64_t seq) {
  const std::uint64_t slot = slot_base(seq);
  page_write(slot + Ring::kSlotRspStatus, static_cast<std::uint64_t>(Err::kIo));
  page_write(slot + Ring::kSlotRspValue, 0);
  page_write(slot + Ring::kSlotRspSeq, seq);
  page_write(slot + Ring::kSlotState, Ring::kCompleted);
  completions_[seq % depth_] =
      CompletionRecord{seq, static_cast<std::uint64_t>(Err::kIo), 0, true};
}

void EventChannel::check_watchdog(std::uint64_t seq) {
  if (watchdog_mult_ == 0) return;
  SlotMeta& meta = slots_[seq % depth_];
  if (meta.stall_flagged || meta.requester == kNoTask) return;
  const Cycles age = requester_cycles() - meta.begin;
  // A polling consumer legitimately sits on the request for up to its spin
  // window before serving it; grant that window (the live hint or the one
  // stamped at submit, whichever is larger) as slack so exitless pickup
  // cannot trip a false stall.
  const Cycles spin_slack = std::max(spin_window_hint_, meta.spin_slack);
  const Cycles bound =
      static_cast<Cycles>(watchdog_mult_) * transport_cost() + spin_slack;
  if (age <= bound) return;
  // Flag each slot occupancy at most once; the snapshot carries the stuck
  // slot's full state. Everything here is host-side: zero cycles charged.
  meta.stall_flagged = true;
  ++watchdog_stalls_;
  MV_COUNTER_INC(watchdog_stall_metric_, 1);
  MV_COUNTER_INC(tenant_.slo_watchdog_stalls, 1);
  // The stall is attributed to the stalled slot's owner: a storm on tenant A
  // can never be misread as a stall on tenant B.
  FlightRecorder::instance().record(hrt_core_, FrKind::kWatchdogStall,
                                    meta.span, seq, age, "", tenant_.tenant_id);
  MV_TRACE_ANNOTATE(hrt_core_, "channel", "watchdog_stall",
                    strfmt("\"span\":%llu,\"age\":%llu",
                           static_cast<unsigned long long>(meta.span),
                           static_cast<unsigned long long>(age)) +
                        tenant_args_);
  FlightRecorder::instance().take_snapshot(
      strfmt("watchdog: chan%d seq=%llu span=%llu age=%llu", id_,
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(meta.span),
             static_cast<unsigned long long>(age)) +
      tenant_tag_);
}

std::string EventChannel::debug_state() const {
  if (ring_ == nullptr) return "uninitialized";
  const std::uint64_t head = page_read(Ring::kOffSubHead);
  const std::uint64_t tail = page_read(Ring::kOffSubTail);
  std::string out = strfmt(
      "head=%llu tail=%llu depth=%u doorbell=%llu poll=%llu suppressed=%llu "
      "sync=%d partner_dead=%d",
      static_cast<unsigned long long>(head),
      static_cast<unsigned long long>(tail), depth_,
      static_cast<unsigned long long>(page_read(Ring::kOffDoorbell)),
      static_cast<unsigned long long>(page_read(Ring::kOffConsumerPoll)),
      static_cast<unsigned long long>(doorbells_suppressed_),
      sync_mode_ ? 1 : 0, partner_died_ ? 1 : 0);
  const Cycles now = requester_cycles();
  for (std::uint64_t seq = head; seq != tail; ++seq) {
    const std::uint64_t slot = slot_base(seq);
    const SlotMeta& meta = slots_[seq % depth_];
    out += strfmt(
        "\n  slot seq=%llu state=%llu kind=%llu span=%llu requester=%llu "
        "age=%llu%s",
        static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(page_read(slot + Ring::kSlotState)),
        static_cast<unsigned long long>(page_read(slot + Ring::kSlotKind)),
        static_cast<unsigned long long>(meta.span),
        static_cast<unsigned long long>(meta.requester),
        static_cast<unsigned long long>(now >= meta.begin ? now - meta.begin
                                                          : 0),
        meta.stall_flagged ? " STALLED" : "");
  }
  return out;
}

}  // namespace mv::multiverse
