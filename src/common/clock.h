// Virtual time for dilated experiments.
//
// The paper's evaluation measures event rates over Lustre deployments whose
// operation latencies range from ~100 microseconds (Iota) to milliseconds
// (AWS t2.micro). Replaying those latencies in real time would make a
// multi-minute experiment out of every benchmark run, so sdci components
// charge *modeled* costs against a TimeAuthority: a clock whose virtual time
// advances `dilation` times faster than wall time. A modeled delay of D
// virtual seconds is realized as a real wait of D / dilation; rates computed
// in virtual time therefore preserve the shape of the real system
// (pipelining, contention between stages, queue backpressure) while running
// dilation-times faster. dilation == 1 reproduces real time exactly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace sdci {

// Virtual nanoseconds since the TimeAuthority epoch.
using VirtualDuration = std::chrono::nanoseconds;
using VirtualTime = std::chrono::nanoseconds;  // offset from epoch

// Shared notion of experiment time. Thread-safe: all members are const after
// construction except the monotonic reads of the underlying steady clock.
class TimeAuthority {
 public:
  // `dilation` = virtual seconds elapsed per real second. Must be > 0.
  explicit TimeAuthority(double dilation = 1.0);

  // Virtual time elapsed since construction.
  [[nodiscard]] VirtualTime Now() const noexcept;

  // Blocks the calling thread for about `d` of virtual time and returns
  // the virtual time that actually elapsed (>= d up to scheduler slack;
  // callers that pace themselves, like DelayBudget, use the return value
  // to carry oversleep as credit).
  VirtualDuration SleepFor(VirtualDuration d) const;

  // Blocks until Now() >= t (returns immediately if already past).
  void SleepUntil(VirtualTime t) const;

  // Idle back-off: blocks for about `d` of virtual time without SleepFor's
  // spin tail. For poll loops with nothing to do, where oversleeping by
  // timer slack costs nothing and spinning burns a core; modeled
  // latencies use SleepFor.
  void IdleFor(VirtualDuration d) const;

  [[nodiscard]] double dilation() const noexcept { return dilation_; }

  // Converts a virtual duration to the real duration it occupies.
  [[nodiscard]] std::chrono::nanoseconds ToReal(VirtualDuration d) const noexcept;

 private:
  double dilation_;
  std::chrono::steady_clock::time_point start_;
};

// Accumulates modeled latency and realizes it as coarse sleeps.
//
// On machines with few cores (or with many modeled threads), realizing every
// 100-microsecond modeled cost as its own timed wait is both inaccurate
// (timer granularity) and unfair (spinning starves peer threads). A
// DelayBudget instead accrues virtual debt per component and pays it off in
// slices no smaller than `flush_real` of real time. Long-run rates — what
// the paper's evaluation measures — are preserved exactly; only sub-slice
// pacing is coarsened.
//
// Charges are *net of real work*: the (dilated) CPU time the owning
// thread actually consumed since its previous charge is deducted, so a
// modeled cost represents the operation's total latency rather than a
// surcharge on top of the simulator's own bookkeeping. Thread CPU time
// (not wall time) is used so that time spent descheduled or blocked is
// never credited as work. An operation whose real cost exceeds its model
// simply takes its real time. Single-threaded use only.
class DelayBudget {
 public:
  explicit DelayBudget(const TimeAuthority& authority,
                       std::chrono::nanoseconds flush_real = std::chrono::milliseconds(2))
      : authority_(&authority), flush_real_(flush_real) {}

  // Adds `d` of virtual work; sleeps if accumulated debt is large enough.
  void Charge(VirtualDuration d);

  // Sleeps off any remaining debt (call at end of a processing burst).
  void Flush();

  // Total virtual time charged so far (paid or pending). Safe to read from
  // other threads; Charge/Flush must stay on the owning thread.
  [[nodiscard]] VirtualDuration TotalCharged() const noexcept {
    return VirtualDuration(total_ns_.load(std::memory_order_relaxed));
  }
  // Owning thread only. Of what was charged: the (dilated) CPU work netted
  // out, and the sleep requested from the clock. Oversleep credit lowers
  // later requests, so the two add up to TotalCharged() only while no
  // sleep has overslept, e.g. when a single Flush pays the whole debt.
  [[nodiscard]] VirtualDuration TotalNetted() const noexcept { return netted_; }
  [[nodiscard]] VirtualDuration TotalRequested() const noexcept { return requested_; }

 private:
  const TimeAuthority* authority_;
  std::chrono::nanoseconds flush_real_;
  VirtualDuration debt_{0};
  std::atomic<int64_t> total_ns_{0};
  VirtualDuration netted_{0};
  VirtualDuration requested_{0};
  bool have_checkpoint_ = false;
  std::chrono::nanoseconds cpu_checkpoint_{};
};

// The calling thread's consumed CPU time (CLOCK_THREAD_CPUTIME_ID).
std::chrono::nanoseconds ThreadCpuNow() noexcept;

// Formats a virtual time as "HH:MM:SS.ssss" (used when rendering ChangeLog
// records in the style of the paper's Table 1).
std::string FormatClockTime(VirtualTime t);

// Formats a duration as a human-friendly quantity, e.g. "1.50 ms", "2.3 s".
std::string FormatDuration(VirtualDuration d);

// Convenience literals-free constructors.
constexpr VirtualDuration Micros(int64_t us) {
  return std::chrono::microseconds(us);
}
constexpr VirtualDuration Millis(int64_t ms) {
  return std::chrono::milliseconds(ms);
}
constexpr VirtualDuration Seconds(double s) {
  return std::chrono::nanoseconds(static_cast<int64_t>(s * 1e9));
}

// Seconds as a double, for rate arithmetic.
constexpr double ToSecondsF(VirtualDuration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace sdci
