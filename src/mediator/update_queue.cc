#include "mediator/update_queue.h"

namespace squirrel {

namespace {

/// Heuristic bytes of one queued message: fixed framing plus a per-atom
/// share (tuple values + map node). Stable, which is all budget accounting
/// needs.
constexpr size_t kQueuedMessageOverhead = 128;
constexpr size_t kQueuedAtomBytes = 96;

}  // namespace

UpdateQueue::~UpdateQueue() {
  if (budget_ != nullptr) ReleaseGlobalBudget(budget_, charged_);
}

size_t UpdateQueue::ApproxBytesOf() const {
  size_t total = 0;
  for (const auto& msg : messages_) {
    total += kQueuedMessageOverhead + msg.delta.AtomCount() * kQueuedAtomBytes;
  }
  return total;
}

void UpdateQueue::Recharge() {
  const size_t now = ApproxBytesOf();
  if (now > charged_) {
    if (MemoryBudget* b = ChargeGlobalBudget(now - charged_)) {
      budget_ = b;
      charged_ = now;
    }
  } else if (now < charged_ && budget_ != nullptr) {
    ReleaseGlobalBudget(budget_, charged_ - now);
    charged_ = now;
  }
}

void UpdateQueue::MergeIntoTail(UpdateMessage* tail, const UpdateMessage& msg) {
  // Same-source relation schemas are fixed, so the smash cannot fail in
  // practice; if it ever did, WAL replay applies the identical smash to the
  // identical tail, so recovered state still matches.
  (void)tail->delta.SmashInPlace(msg.delta);
  tail->seq = msg.seq;
  tail->epoch = msg.epoch;
  tail->send_time = msg.send_time;
}

void UpdateQueue::Enqueue(UpdateMessage msg) {
  ++total_enqueued_;
  if (WouldCoalesce(msg)) {
    MergeIntoTail(&messages_.back(), msg);
    ++total_coalesced_;
    Recharge();
    return;
  }
  messages_.push_back(std::move(msg));
  Recharge();
}

bool UpdateQueue::CoalesceOldestIn(std::deque<UpdateMessage>* q,
                                   size_t skip) {
  // Merge the oldest message that has a later same-source message FORWARD
  // into that message. Per-source FIFO order is preserved and a full-queue
  // flush smashes per-source deltas anyway, so the net change every
  // transaction consumes is identical — the shed is lossless, it only gives
  // up one queue slot (and the older message's distinct send_time, which
  // reflect-tracking takes the max of regardless). Messages from different
  // incarnation epochs never merge: the merged message would carry the new
  // epoch over pre-restart atoms, corrupting the seq dedup floor that the
  // resync path rebuilds per epoch.
  for (size_t i = skip; i < q->size(); ++i) {
    for (size_t j = i + 1; j < q->size(); ++j) {
      if ((*q)[j].source != (*q)[i].source ||
          (*q)[j].epoch != (*q)[i].epoch) {
        continue;
      }
      UpdateMessage& older = (*q)[i];
      UpdateMessage& newer = (*q)[j];
      MultiDelta merged = std::move(older.delta);
      (void)merged.SmashInPlace(newer.delta);
      newer.delta = std::move(merged);
      q->erase(q->begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

bool UpdateQueue::CanCoalesceOldest() const {
  // Mirror of CoalesceOldestIn's pair search, mutation-free.
  for (size_t i = 0; i < messages_.size(); ++i) {
    for (size_t j = i + 1; j < messages_.size(); ++j) {
      if (messages_[j].source == messages_[i].source &&
          messages_[j].epoch == messages_[i].epoch) {
        return true;
      }
    }
  }
  return false;
}

bool UpdateQueue::CoalesceOldest() {
  if (!CoalesceOldestIn(&messages_)) return false;
  ++total_shed_;
  Recharge();
  return true;
}

bool UpdateQueue::WouldCoalesce(const UpdateMessage& msg) const {
  if (coalesce_window_ <= 0.0 || messages_.empty()) return false;
  const UpdateMessage& tail = messages_.back();
  // Never merge across an incarnation epoch boundary: the tail would take
  // the post-restart epoch while carrying pre-restart atoms, and the
  // per-epoch seq dedup floor (reset by the restart hello) would treat the
  // whole merged message as already-delivered new-epoch traffic.
  return tail.source == msg.source && tail.epoch == msg.epoch &&
         msg.send_time - tail.send_time <= coalesce_window_;
}

std::vector<UpdateMessage> UpdateQueue::Flush() {
  std::vector<UpdateMessage> out(std::make_move_iterator(messages_.begin()),
                                 std::make_move_iterator(messages_.end()));
  messages_.clear();
  Recharge();
  return out;
}

void UpdateQueue::Requeue(std::vector<UpdateMessage> msgs) {
  total_requeued_ += msgs.size();
  messages_.insert(messages_.begin(), std::make_move_iterator(msgs.begin()),
                   std::make_move_iterator(msgs.end()));
  Recharge();
}

std::vector<UpdateMessage> UpdateQueue::Snapshot() const {
  return std::vector<UpdateMessage>(messages_.begin(), messages_.end());
}

void UpdateQueue::Restore(std::vector<UpdateMessage> msgs) {
  messages_.assign(std::make_move_iterator(msgs.begin()),
                   std::make_move_iterator(msgs.end()));
  Recharge();
}

Result<MultiDelta> UpdateQueue::PendingFrom(const std::string& source) const {
  MultiDelta out;
  for (const auto& msg : messages_) {
    if (msg.source != source) continue;
    SQ_RETURN_IF_ERROR(out.SmashInPlace(msg.delta));
  }
  return out;
}

}  // namespace squirrel
