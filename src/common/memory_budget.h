// Process-wide memory budget accounting (DESIGN.md §15).
//
// A MemoryBudget is an accountant, not an allocator: the big transient and
// retained consumers — StringArena interning, PackedJoinTable build arrays,
// LocalStore snapshot copies, the UpdateQueue — Charge() what they hold and
// Release() it when they let go. Two limits drive policy:
//
//   soft limit: the mediator stops admitting kBatch queries while usage is
//     above it (queries_shed_soft_budget), letting retained state drain;
//   hard limit: a Charge() that lands above it cancels the cancel token
//     installed on the charging thread with a typed kOverloaded status — the
//     query whose allocation broke the budget dies with a clean error
//     instead of a silent OOM. The IUP never installs a token, so update
//     propagation is never the victim.
//
// Installation is a process-global slot, null by default (every charge site
// is a no-op then), set for the duration of a run by ScopedMemoryBudget.
// Counters are atomics so MVCC reader threads and bench monitor threads can
// charge concurrently with the mediator's thread.

#ifndef SQUIRREL_COMMON_MEMORY_BUDGET_H_
#define SQUIRREL_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace squirrel {

/// \brief Byte accountant with a soft (shed batch admission) and a hard
/// (cancel the charging query) limit. Limits of 0 mean unlimited.
class MemoryBudget {
 public:
  MemoryBudget(size_t soft_limit, size_t hard_limit)
      : soft_limit_(soft_limit), hard_limit_(hard_limit) {}

  /// Accounts \p bytes. When the new total exceeds the hard limit, cancels
  /// the calling thread's current cancel token (if any) with kOverloaded —
  /// cooperative, so the caller's next check site surfaces the error.
  void Charge(size_t bytes);

  /// Returns \p bytes to the budget (clamped at zero against accounting
  /// drift from chargers torn down after a budget swap).
  void Release(size_t bytes);

  /// True iff current usage exceeds the soft limit.
  bool SoftBreached() const {
    return soft_limit_ != 0 &&
           used_.load(std::memory_order_relaxed) > soft_limit_;
  }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t soft_limit() const { return soft_limit_; }
  size_t hard_limit() const { return hard_limit_; }

  /// Number of hard-limit cancellations this budget issued.
  uint64_t hard_cancels() const {
    return hard_cancels_.load(std::memory_order_relaxed);
  }

 private:
  const size_t soft_limit_;
  const size_t hard_limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> hard_cancels_{0};
};

/// The installed process-global budget, or nullptr (accounting off).
MemoryBudget* GlobalMemoryBudget();

/// RAII installation of a budget as the process-global accountant; restores
/// the previous one on destruction.
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(MemoryBudget* budget);
  ~ScopedMemoryBudget();
  ScopedMemoryBudget(const ScopedMemoryBudget&) = delete;
  ScopedMemoryBudget& operator=(const ScopedMemoryBudget&) = delete;

 private:
  MemoryBudget* prev_;
};

/// Charges \p bytes against the global budget, if one is installed.
/// Returns the budget charged (so the holder can Release against the same
/// accountant later), or nullptr when accounting is off.
MemoryBudget* ChargeGlobalBudget(size_t bytes);

/// Releases \p bytes against \p budget, but only while it is still the
/// installed global accountant — a holder outliving the budget's scope must
/// not touch a dead or replaced accountant.
void ReleaseGlobalBudget(MemoryBudget* budget, size_t bytes);

}  // namespace squirrel

#endif  // SQUIRREL_COMMON_MEMORY_BUDGET_H_
