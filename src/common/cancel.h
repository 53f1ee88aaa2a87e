// Cooperative cancellation (DESIGN.md §15).
//
// A CancelToken is a shared flag + typed reason. The party that wants work
// abandoned (a deadline timer, the memory-budget hard limit, a caller) calls
// Cancel(reason); the working code checks the token at batch boundaries —
// between VAP build steps, between QP phases, and every kCancelCheckRows
// rows inside the relational row loops (the vectorized select, join probes
// and nested loops, the delta join, Delta::Between) — and propagates the
// typed reason as an ordinary error Status. Nothing is interrupted
// preemptively: a check site that is never reached simply finishes its
// (bounded) unit of work.
//
// Plumbing is thread-local rather than parameter-threading: the mediator
// installs the active query's token with ScopedCancelScope around execution,
// and deep callees (relational operators, the VAP assembly loop) consult
// CurrentCancelToken(). The IUP never installs a token, so update
// transactions can never be cancelled by the budget or a deadline — only
// queries are sheddable work.

#ifndef SQUIRREL_COMMON_CANCEL_H_
#define SQUIRREL_COMMON_CANCEL_H_

#include <atomic>
#include <cstddef>

#include "common/status.h"

namespace squirrel {

/// Row interval between cancellation checks inside tight kernel loops.
inline constexpr size_t kCancelCheckRows = 1024;

/// \brief Shared cancellation state for one query execution.
///
/// Cancel() may be called from any thread (the memory budget charges from
/// whichever thread allocates, MVCC reader threads included); cancelled()
/// is a relaxed atomic read so kernel-loop checks stay cheap. The reason is
/// written before the flag is published (release/acquire), so a reader
/// that observes cancelled() == true sees the full reason.
class CancelToken {
 public:
  /// Requests cancellation with a typed \p reason (first call wins).
  void Cancel(Status reason) {
    bool expected = false;
    if (!armed_.compare_exchange_strong(expected, true,
                                        std::memory_order_acquire)) {
      return;  // already cancelled; keep the first reason
    }
    reason_ = std::move(reason);
    cancelled_.store(true, std::memory_order_release);
  }

  /// True iff Cancel() has completed.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// OK while live; the typed cancel reason once cancelled.
  Status status() const {
    return cancelled() ? reason_ : Status::OK();
  }

 private:
  std::atomic<bool> armed_{false};      // claimed by the winning Cancel()
  std::atomic<bool> cancelled_{false};  // published after reason_ is set
  Status reason_;
};

/// The token installed on this thread, or nullptr (nothing cancellable).
CancelToken* CurrentCancelToken();

/// OK when no token is installed or it is live; the token's typed reason
/// once it has been cancelled. The single check every batch boundary calls.
inline Status CheckCancel() {
  CancelToken* t = CurrentCancelToken();
  if (t == nullptr || !t->cancelled()) return Status::OK();
  return t->status();
}

/// CheckCancel for tight row loops: checks on the first call and then on
/// every kCancelCheckRows-th, counting calls in \p *rows.
inline Status CheckCancelEvery(size_t* rows) {
  if ((*rows)++ % kCancelCheckRows != 0) return Status::OK();
  return CheckCancel();
}

/// RAII installation of \p token as this thread's current cancel scope;
/// restores the previous token on destruction (scopes nest).
class ScopedCancelScope {
 public:
  explicit ScopedCancelScope(CancelToken* token);
  ~ScopedCancelScope();
  ScopedCancelScope(const ScopedCancelScope&) = delete;
  ScopedCancelScope& operator=(const ScopedCancelScope&) = delete;

 private:
  CancelToken* prev_;
};

}  // namespace squirrel

#endif  // SQUIRREL_COMMON_CANCEL_H_
