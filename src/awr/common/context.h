#ifndef AWR_COMMON_CONTEXT_H_
#define AWR_COMMON_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "awr/common/limits.h"
#include "awr/common/status.h"

namespace awr {

class CancelSource;

/// A cheap, copyable handle observing a CancelSource.  A
/// default-constructed token can never be cancelled, so engines may hold
/// one unconditionally.  Reads are relaxed atomic loads: safe to poll
/// from the evaluating thread while another thread signals the source.
class CancelToken {
 public:
  CancelToken() = default;

  /// True once the owning CancelSource has been signalled.
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// The writable end of a cancellation channel.  Create one, hand its
/// token() to an ExecutionContext, and call RequestCancel() — from any
/// thread — to make every engine polling that context fail with
/// kCancelled at its next charge point.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Signals cancellation.  Idempotent; thread-safe.
  void RequestCancel() { flag_->store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// A programmable fault for interruption testing: every governance check
/// an ExecutionContext performs (ChargeRound / ChargeFacts /
/// ChargeMemory / CheckInterrupt) counts as one charge; the injector
/// returns its fault status on exactly the `nth` charge.
///
/// Usage (tests/interruption_test.cc): run an engine once with a
/// disarmed injector to learn the total number of charge points N, then
/// re-run with TripAt(i) for i = 1..N and verify the engine surfaces the
/// injected status cleanly and leaves caller-visible state intact.
///
/// A second, probabilistic mode (TripWithProbability) draws a seeded
/// pseudo-random number at every charge and trips when it lands under
/// `p` — the chaos harness (tests/service_chaos_test.cc) uses it to
/// scatter transient faults over whole workloads without enumerating
/// charge indices.  The stream is deterministic in the seed, so a
/// failing chaos trace replays exactly.  Both modes trip at most once
/// per arming: after the injected fault is returned the injector
/// disarms itself (charges keep counting), matching how a real
/// transient fault interrupts an evaluation exactly once.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Arms the injector: the `nth` subsequent charge (1-based) fails with
  /// `fault`.  Resets the charge counter and leaves probabilistic mode.
  void TripAt(size_t nth, Status fault = Status::Internal("injected fault")) {
    trip_at_ = nth;
    probability_millionths_ = 0;
    fault_ = std::move(fault);
    count_ = 0;
  }

  /// Arms the injector probabilistically: every subsequent charge trips
  /// with independent probability `p` (clamped to [0, 1]), drawn from a
  /// PRNG seeded with `seed`.  Deterministic: the same (p, seed) trips
  /// on the same charge index against the same charge sequence.
  void TripWithProbability(double p, uint64_t seed,
                           Status fault = Status::Internal("injected fault")) {
    if (p < 0) p = 0;
    if (p > 1) p = 1;
    probability_millionths_ = static_cast<uint64_t>(p * 1'000'000.0 + 0.5);
    trip_at_ = 0;
    fault_ = std::move(fault);
    count_ = 0;
    // Golden-ratio offset so nearby seeds give unrelated streams;
    // xorshift has a fixed point at 0, so never start there.
    rng_state_ = seed + 0x9e3779b97f4a7c15ull;
    if (rng_state_ == 0) rng_state_ = 1;
  }

  /// Disarms the injector but keeps counting charges.
  void Disarm() {
    trip_at_ = 0;
    probability_millionths_ = 0;
    count_ = 0;
  }

  /// Charges observed since the last TripAt/TripWithProbability/Disarm.
  size_t charges_seen() const { return count_; }

  /// Called by ExecutionContext at every charge point.
  Status OnCharge() {
    ++count_;
    if (trip_at_ != 0 && count_ == trip_at_) {
      trip_at_ = 0;
      return fault_;
    }
    if (probability_millionths_ != 0 && NextDraw() < probability_millionths_) {
      probability_millionths_ = 0;
      return fault_;
    }
    return Status::OK();
  }

 private:
  /// xorshift64* step, mapped into [0, 1'000'000).
  uint64_t NextDraw() {
    uint64_t x = rng_state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rng_state_ = x;
    return ((x * 0x2545f4914f6cdd1dull) >> 11) % 1'000'000;
  }

  size_t trip_at_ = 0;
  uint64_t probability_millionths_ = 0;
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
  size_t count_ = 0;
  Status fault_;
};

/// Unified resource governance for one evaluation: an EvalBudget
/// (rounds/facts) plus a wall-clock deadline, a cooperative cancellation
/// token, a byte-denominated memory accountant, and an optional
/// FaultInjector.  Every fixpoint engine charges an ExecutionContext at
/// its loop heads and bulk-insertion points; callers that need
/// governance construct one and pass it via the engine's options struct
/// (EvalOptions::context, AlgebraEvalOptions::context,
/// RewriteOptions::context).  Engines given no context build a private
/// one from their options' EvalLimits, so plain calls behave as before.
///
/// Interruption contract (see DESIGN.md §"Resource governance"): on any
/// non-OK status from a charge, the engine must return that status
/// without touching caller-visible state — all awr engines take their
/// inputs by const reference and deliver results only through a
/// Result<T> return, so an interrupted evaluation can never leave a
/// half-written Database or ValueSet in the caller's hands.
///
/// Not thread-safe: one context governs one evaluation, and every
/// charge comes from the thread running it.  Concurrent evaluations
/// (awrd sessions) each own their context; CancelToken is the only
/// cross-thread signal.
class ExecutionContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecutionContext() : ExecutionContext(EvalLimits::Default()) {}
  explicit ExecutionContext(EvalLimits limits) : budget_(limits) {}

  /// Fluent configuration -------------------------------------------

  /// Fails charges with kDeadlineExceeded once `deadline` passes.
  ExecutionContext& set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
    return *this;
  }

  /// Convenience: deadline = now + timeout.
  ExecutionContext& set_timeout(std::chrono::nanoseconds timeout) {
    return set_deadline(Clock::now() + timeout);
  }

  /// Fails charges with kCancelled once the token's source is signalled.
  ExecutionContext& set_cancel_token(CancelToken token) {
    cancel_ = std::move(token);
    return *this;
  }

  /// Routes every charge through `injector` (borrowed, may be null).
  ExecutionContext& set_fault_injector(FaultInjector* injector) {
    fault_ = injector;
    return *this;
  }

  /// Charge points ---------------------------------------------------

  /// Charges one fixpoint round.  Always consults the wall clock, so a
  /// deadline is detected no later than the next round boundary.
  Status ChargeRound(std::string_view what) {
    AWR_RETURN_IF_ERROR(Governance(what, /*force_clock=*/true));
    return budget_.ChargeRound(what);
  }

  /// Charges `n` derived facts / set elements.
  Status ChargeFacts(size_t n, std::string_view what) {
    AWR_RETURN_IF_ERROR(Governance(what, /*force_clock=*/false));
    return budget_.ChargeFacts(n, what);
  }

  /// Records the evaluator's current live footprint (approximate bytes,
  /// per ValueSet::approx_bytes); fails with kResourceExhausted when it
  /// exceeds EvalLimits::max_bytes.  Engines report the footprint each
  /// round, so the high-water mark tracks peak usage.
  ///
  /// The figure is a *logical-state* size, not an allocator reading:
  /// Value::ApproxBytes counts shared structure once per reference, so
  /// under structural interning (hash-consing; DESIGN.md §10) the
  /// reported bytes can exceed the physical footprint by orders of
  /// magnitude on deeply shared data.  That is deliberate — max_bytes
  /// budgets bound how much state an evaluation *denotes*, whatever
  /// the interner shares.
  Status ChargeMemory(size_t bytes_in_use, std::string_view what) {
    AWR_RETURN_IF_ERROR(Governance(what, /*force_clock=*/false));
    return RecordMemory(bytes_in_use, what);
  }

  /// ChargeRound, then ChargeMemory's footprint check, as one charge:
  /// for a loop whose charge points are fixed but which should still
  /// report its footprint each round.
  Status ChargeRoundWithMemory(std::string_view what, size_t bytes_in_use) {
    AWR_RETURN_IF_ERROR(ChargeRound(what));
    return RecordMemory(bytes_in_use, what);
  }

  /// A pure interruption poll (cancellation, deadline, injected fault)
  /// that consumes no budget.  Cheap enough to call on every join match;
  /// the wall clock is only consulted every kClockStride calls.
  Status CheckInterrupt(std::string_view what) {
    return Governance(what, /*force_clock=*/false);
  }

  /// Introspection ----------------------------------------------------
  size_t rounds() const { return budget_.rounds(); }
  size_t facts() const { return budget_.facts(); }
  /// Total governance checks performed through this context (every
  /// ChargeRound / ChargeFacts / ChargeMemory / CheckInterrupt).  This
  /// is the same sequence a FaultInjector counts, which is what makes
  /// it the right coordinate for checkpoint/resume charge-parity
  /// accounting: a snapshot records the barrier's charge index, and an
  /// uninterrupted run's total equals barrier index + resumed charges.
  size_t total_charges() const { return total_charges_; }
  size_t high_water_bytes() const { return high_water_bytes_; }
  const EvalLimits& limits() const { return budget_.limits(); }

 private:
  Status RecordMemory(size_t bytes_in_use, std::string_view what) {
    if (bytes_in_use > high_water_bytes_) high_water_bytes_ = bytes_in_use;
    if (bytes_in_use > budget_.limits().max_bytes) {
      return Annotate(
          Status::ResourceExhausted(
              "live state ~" + std::to_string(bytes_in_use) +
              " bytes exceeds max_bytes=" +
              std::to_string(budget_.limits().max_bytes)),
          what);
    }
    return Status::OK();
  }

  /// Clock polls are amortized: non-round charges look at the wall clock
  /// once every kClockStride charges.
  static constexpr uint32_t kClockStride = 64;

  Status Governance(std::string_view what, bool force_clock);

  /// Stamps an interruption status with the charge site and the current
  /// round / charge coordinates.
  Status Annotate(Status st, std::string_view what) const;

  EvalBudget budget_;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  CancelToken cancel_;
  FaultInjector* fault_ = nullptr;  // borrowed
  size_t high_water_bytes_ = 0;
  size_t total_charges_ = 0;
  uint32_t clock_phase_ = 0;
};

}  // namespace awr

#endif  // AWR_COMMON_CONTEXT_H_
