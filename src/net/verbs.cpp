#include "net/verbs.hpp"

#include <utility>

#include "net/nic.hpp"
#include "os/node.hpp"
#include "os/thread.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::net {

// --- CompletionQueue ----------------------------------------------------------

CompletionQueue::~CompletionQueue() { mod_timer_.cancel(); }

void CompletionQueue::bind_moderation(sim::Simulation& simu, int count,
                                      sim::Duration period) {
  simu_ = &simu;
  mod_count_ = count < 1 ? 1 : count;
  mod_period_ = period;
}

void CompletionQueue::push(Completion c) {
  ++pushed_;
  if (forgotten_.erase(c.wr_id) > 0) {
    ++stale_dropped_;  // abandoned WR: drop on arrival
    return;
  }
  const bool urgent = c.status != WcStatus::Success;
  ++cqes_signaled_;
  surface(std::move(c));
  note_surfaced(urgent);
}

void CompletionQueue::deliver(std::uint64_t ctx, std::uint64_t seq,
                              bool signaled, Completion c) {
  ++pushed_;
  const bool error = c.status != WcStatus::Success;
  CtxState& st = ctxs_[ctx];
  if (signaled || error) {
    // This CQE proves every earlier WR on the context retired (RC
    // in-order execution): surface the shadowed successes first, in post
    // order, then the CQE itself. Error CQEs are always generated, so an
    // unsignaled WR that fails surfaces here too.
    release_shadows(st, seq);
    if (st.released_upto < seq + 1) st.released_upto = seq + 1;
    if (forgotten_.erase(c.wr_id) > 0) {
      ++stale_dropped_;
      return;
    }
    if (signaled) ++cqes_signaled_;
    surface(std::move(c));
    note_surfaced(error);
    return;
  }
  // Unsignaled success: no CQE. The data landed; the consumer learns of it
  // when a closer proves the context's queue drained past it.
  if (forgotten_.erase(c.wr_id) > 0) {
    ++stale_dropped_;  // abandoned before arrival: never shadowed
    return;
  }
  if (seq < st.released_upto) {
    // A later closer already proved this seq done (completions of a
    // shared multi-target context can arrive out of post order): the
    // consumer may be waiting on it, surface immediately.
    ++unsignaled_retired_;
    surface(std::move(c));
    note_surfaced(false);
    return;
  }
  st.shadow.push_back(Shadowed{seq, std::move(c)});
  ++shadow_count_;
}

void CompletionQueue::release_shadows(CtxState& st, std::uint64_t upto) {
  for (auto it = st.shadow.begin(); it != st.shadow.end();) {
    if (it->seq >= upto) {
      ++it;
      continue;
    }
    --shadow_count_;
    if (forgotten_.erase(it->c.wr_id) > 0) {
      ++stale_dropped_;
    } else {
      ++unsignaled_retired_;
      surface(std::move(it->c));
      note_surfaced(false);
    }
    it = st.shadow.erase(it);
  }
}

void CompletionQueue::note_surfaced(bool urgent) {
  ++since_fire_;
  if (mod_count_ <= 1 || urgent || simu_ == nullptr ||
      since_fire_ >= mod_count_) {
    fire_notify();
    return;
  }
  if (!mod_timer_armed_) {
    mod_timer_armed_ = true;
    mod_timer_ = simu_->after(mod_period_, [this] {
      mod_timer_armed_ = false;
      if (since_fire_ > 0) fire_notify();
    });
  }
}

void CompletionQueue::fire_notify() {
  ++notifies_;
  if (since_fire_ > 1) ++coalesced_polls_;
  since_fire_ = 0;
  if (mod_timer_armed_) {
    mod_timer_.cancel();
    mod_timer_armed_ = false;
  }
  wq_.notify_all();
}

void CompletionQueue::surface(Completion c) {
  q_.push_back(Entry{std::move(c), true});
  ++live_;
}

std::size_t CompletionQueue::index_of(std::uint64_t wr_id) const {
  for (std::size_t i = head_; i < q_.size(); ++i) {
    if (q_[i].live && q_[i].c.wr_id == wr_id) return i;
  }
  return q_.size();
}

Completion CompletionQueue::take(std::size_t i) {
  Completion c = std::move(q_[i].c);
  q_[i].live = false;
  if (--live_ == 0) {
    q_.clear();
    head_ = 0;
  } else if (q_.size() > 2 * live_ + 64) {
    std::erase_if(q_, [](const Entry& e) { return !e.live; });
    head_ = 0;
  } else {
    while (!q_[head_].live) ++head_;
  }
  return c;
}

Completion CompletionQueue::pop() { return take(head_); }

const Completion* CompletionQueue::find(std::uint64_t wr_id) const {
  const std::size_t i = index_of(wr_id);
  return i < q_.size() ? &q_[i].c : nullptr;
}

bool CompletionQueue::try_pop(std::uint64_t wr_id, Completion& out) {
  const std::size_t i = index_of(wr_id);
  if (i == q_.size()) return false;
  out = take(i);
  return true;
}

void CompletionQueue::forget(std::uint64_t wr_id) {
  ++forgets_;
  if (const std::size_t i = index_of(wr_id); i < q_.size()) {
    take(i);  // already landed: reclaim immediately
    ++stale_dropped_;
    return;
  }
  // An unsignaled success abandoned mid-window sits in its context's
  // shadow buffer, not in q_ — reclaim it there or its slot would leak
  // until (and past) the closer, and the wr_id would ghost-surface.
  for (auto& [ctx, st] : ctxs_) {
    for (auto it = st.shadow.begin(); it != st.shadow.end(); ++it) {
      if (it->c.wr_id == wr_id) {
        st.shadow.erase(it);
        --shadow_count_;
        ++stale_dropped_;
        return;
      }
    }
  }
  forgotten_.insert(wr_id);  // still in flight: drop at delivery
}

// --- QpContext ----------------------------------------------------------------

QpContext::QpContext(Nic& local, int signal_every, std::size_t send_depth)
    : local_(&local),
      ctx_id_(local.alloc_ctx_id()),
      signal_every_(signal_every < 1 ? 1 : signal_every),
      send_depth_(send_depth) {}

void QpContext::post_read(int target_node, MrKey rkey, std::size_t len,
                          std::uint64_t wr_id, CompletionQueue& cq,
                          bool force_signal) {
  Pending p;
  p.target = target_node;
  p.rkey = rkey;
  p.len = len;
  p.wr_id = wr_id;
  p.cq = &cq;
  p.force_signal = force_signal;
  submit(std::move(p));
}

void QpContext::post_write(int target_node, MrKey rkey, Payload value,
                           std::size_t len, std::uint64_t wr_id,
                           CompletionQueue& cq) {
  Pending p;
  p.is_write = true;
  p.target = target_node;
  p.rkey = rkey;
  p.len = len;
  p.wr_id = wr_id;
  p.cq = &cq;
  p.value = std::move(value);
  submit(std::move(p));
}

void QpContext::submit(Pending p) {
  if (send_depth_ > 0 && inflight_ >= send_depth_) {
    // Window full: the post waits in FIFO order for a completion to free
    // a slot — bounded send queues instead of unbounded NIC state.
    ++deferred_total_;
    deferred_.push_back(std::move(p));
    return;
  }
  launch(std::move(p));
}

void QpContext::launch(Pending p) {
  ++inflight_;
  const std::uint64_t seq = seq_++;
  const bool signaled = p.is_write || p.force_signal || signal_every_ <= 1 ||
                        ((seq + 1) % static_cast<std::uint64_t>(
                                         signal_every_) == 0);
  if (!signaled) {
    ++unsignaled_;
    local_->count_unsignaled();
  }
  WrRoute route{shared_from_this(), p.cq, seq, signaled};
  if (p.is_write) {
    local_->rdma_write(p.target, p.rkey, std::move(p.value), p.len, p.wr_id,
                       std::move(route));
  } else {
    local_->rdma_read(p.target, p.rkey, p.len, p.wr_id, std::move(route));
  }
}

void QpContext::retire(CompletionQueue& cq, std::uint64_t seq, bool signaled,
                       Completion c) {
  --inflight_;
  if (!deferred_.empty() &&
      (send_depth_ == 0 || inflight_ < send_depth_)) {
    Pending next = std::move(deferred_.front());
    deferred_.pop_front();
    launch(std::move(next));
  }
  cq.deliver(ctx_id_, seq, signaled, std::move(c));
}

// --- QueuePair ----------------------------------------------------------------

QueuePair::QueuePair(Nic& local, int remote_node, CompletionQueue& cq,
                     std::shared_ptr<QpContext> ctx)
    : remote_node_(remote_node),
      cq_(&cq),
      ctx_(ctx ? std::move(ctx) : std::make_shared<QpContext>(local)) {}

void QueuePair::post_read(MrKey rkey, std::size_t len, std::uint64_t wr_id,
                          bool force_signal) {
  ctx_->post_read(remote_node_, rkey, len, wr_id, *cq_, force_signal);
}

void QueuePair::post_write(MrKey rkey, Payload value, std::size_t len,
                           std::uint64_t wr_id) {
  ctx_->post_write(remote_node_, rkey, std::move(value), len, wr_id, *cq_);
}

std::vector<std::shared_ptr<QpContext>> make_context_pool(
    Nic& nic, const VerbsTuning& tuning) {
  std::vector<std::shared_ptr<QpContext>> pool;
  for (int i = 0; i < tuning.shared_contexts; ++i) {
    pool.push_back(std::make_shared<QpContext>(nic, tuning.signal_every,
                                               tuning.send_depth));
  }
  return pool;
}

// --- posting subprograms ------------------------------------------------------

os::Program post_read_batch(os::SimThread& /*self*/,
                            const std::vector<ReadBatchEntry>& batch) {
  if (batch.empty()) co_return;
  // One doorbell for the whole chain; the posts themselves are pointer
  // writes into the send queue(s), free at this resolution.
  co_await os::Compute{kDoorbellCost};
  count_doorbell(batch.front().qp->context().nic(), batch.size());
  // Close every context's chain: the LAST WR posted through each distinct
  // QpContext is force-signaled, so a signal-every-k context never ends a
  // burst with an unprovable unsignaled tail. With dedicated contexts
  // (defaults) every entry is its context's last — all signaled, the
  // historical behaviour. Each context notes its last index itself; no
  // suspension separates the two passes.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].qp->context().batch_last_ = i;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ReadBatchEntry& e = batch[i];
    e.qp->post_read(e.rkey, e.len, e.wr_id,
                    /*force_signal=*/e.qp->context().batch_last_ == i);
  }
}

os::Program rdma_read_sync(os::SimThread& /*self*/, QueuePair& qp,
                           MrKey rkey, std::size_t len, Completion& out) {
  // Doorbell: a cheap user-space MMIO write.
  co_await os::Compute{kDoorbellCost};
  count_doorbell(qp.context().nic(), 1);
  qp.post_read(rkey, len, /*wr_id=*/0);
  CompletionQueue& cq = qp.cq();
  while (cq.empty()) co_await os::WaitOn{&cq.wait_queue()};
  out = cq.pop();
}

os::Program rdma_read_sync_until(os::SimThread& self, QueuePair& qp,
                                 MrKey rkey, std::size_t len,
                                 std::uint64_t wr_id, sim::TimePoint deadline,
                                 Completion& out, bool& ok) {
  ok = false;
  co_await os::Compute{kDoorbellCost};
  count_doorbell(qp.context().nic(), 1);
  qp.post_read(rkey, len, wr_id);
  CompletionQueue& cq = qp.cq();
  sim::Simulation& simu = self.node().simu();
  // The deadline is modelled as a timer that spuriously wakes the CQ
  // waiter; the waiter re-checks the clock (the documented wait-queue
  // discipline), so no scheduler surgery is needed. On the common path
  // the READ completes first and the cancel below unlinks the
  // wheel-resident timer in O(1), recycling its pool slot — arming a
  // guard per post costs no allocation and leaves no tombstone behind.
  sim::EventHandle timer;
  if (simu.now() < deadline) {
    timer = simu.at(deadline, [&cq] { cq.wait_queue().notify_all(); });
  }
  for (;;) {
    if (cq.try_pop(wr_id, out)) {
      ok = true;
      break;
    }
    if (simu.now() >= deadline) {
      cq.forget(wr_id);  // the CQ discards the late completion on arrival
      break;
    }
    co_await os::WaitOn{&cq.wait_queue()};
  }
  timer.cancel();
}

os::Program rdma_write_sync(os::SimThread& /*self*/, QueuePair& qp,
                            MrKey rkey, Payload value, std::size_t len,
                            Completion& out) {
  co_await os::Compute{kDoorbellCost};
  count_doorbell(qp.context().nic(), 1);
  qp.post_write(rkey, std::move(value), len, /*wr_id=*/0);
  CompletionQueue& cq = qp.cq();
  while (cq.empty()) co_await os::WaitOn{&cq.wait_queue()};
  out = cq.pop();
}

}  // namespace rdmamon::net
