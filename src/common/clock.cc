#include "common/clock.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ctime>
#include <thread>

namespace sdci {
namespace {

// Below this real-time threshold, sleeping is less accurate than spinning.
// sleep_for oversleeps by timer slack (~50-100us on stock Linux); leaving
// this margin to a spin tail keeps paced rates accurate. Long spins starve
// peer threads on small hosts, which is why DelayBudget batches its sleeps
// into multi-millisecond slices — the spin tail is then a small fraction.
constexpr std::chrono::nanoseconds kSpinThreshold = std::chrono::microseconds(150);

}  // namespace

TimeAuthority::TimeAuthority(double dilation)
    : dilation_(dilation), start_(std::chrono::steady_clock::now()) {
  assert(dilation > 0.0);
}

VirtualTime TimeAuthority::Now() const noexcept {
  const auto real = std::chrono::steady_clock::now() - start_;
  return std::chrono::nanoseconds(
      static_cast<int64_t>(static_cast<double>(real.count()) * dilation_));
}

std::chrono::nanoseconds TimeAuthority::ToReal(VirtualDuration d) const noexcept {
  return std::chrono::nanoseconds(
      static_cast<int64_t>(static_cast<double>(d.count()) / dilation_));
}

VirtualDuration TimeAuthority::SleepFor(VirtualDuration d) const {
  if (d <= VirtualDuration::zero()) return VirtualDuration::zero();
  const auto real = ToReal(d);
  const auto start = std::chrono::steady_clock::now();
  if (real > kSpinThreshold) {
    // Sleep most of the way, then spin a short tail for accuracy. The
    // tail is deliberately small: on few-core hosts long spins starve
    // peer threads, and DelayBudget absorbs residual oversleep as credit.
    std::this_thread::sleep_for(real - kSpinThreshold);
  }
  const auto deadline = start + real;
  while (std::chrono::steady_clock::now() < deadline) {
    // Busy-wait tail; granularity of sleep_for is too coarse here.
  }
  const auto actual = std::chrono::steady_clock::now() - start;
  return VirtualDuration(
      static_cast<int64_t>(static_cast<double>(actual.count()) * dilation_));
}

void TimeAuthority::SleepUntil(VirtualTime t) const {
  const VirtualTime now = Now();
  if (t > now) SleepFor(t - now);
}

void TimeAuthority::IdleFor(VirtualDuration d) const {
  if (d > VirtualDuration::zero()) std::this_thread::sleep_for(ToReal(d));
}

std::chrono::nanoseconds ThreadCpuNow() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

void DelayBudget::Charge(VirtualDuration d) {
  if (d <= VirtualDuration::zero()) return;
  total_ns_.fetch_add(d.count(), std::memory_order_relaxed);
  const auto cpu_now = ThreadCpuNow();
  if (have_checkpoint_) {
    // Deduct the CPU work done since the previous charge: the model
    // covers it. (Capped at d — an op slower than its model costs its
    // real time, never a refund.)
    const auto cpu_spent = cpu_now - cpu_checkpoint_;
    const VirtualDuration covered(static_cast<int64_t>(
        static_cast<double>(cpu_spent.count()) * authority_->dilation()));
    const VirtualDuration netted = std::min(covered, d);
    netted_ += netted;
    d -= netted;
  }
  have_checkpoint_ = true;
  cpu_checkpoint_ = cpu_now;
  debt_ += d;
  if (authority_->ToReal(debt_) >= flush_real_) Flush();
}

void DelayBudget::Flush() {
  if (debt_ > VirtualDuration::zero()) {
    requested_ += debt_;
    // Oversleep becomes negative debt (credit), so contention-induced
    // scheduler slack does not depress long-run paced rates. The credit
    // is capped: a long stall must not buy an unbounded free burst.
    debt_ -= authority_->SleepFor(debt_);
    const VirtualDuration min_debt =
        -std::chrono::duration_cast<VirtualDuration>(10 * flush_real_) *
        static_cast<int64_t>(authority_->dilation() < 1 ? 1 : authority_->dilation());
    if (debt_ < min_debt) debt_ = min_debt;
  }
  // CPU time does not advance while asleep, but refresh the checkpoint
  // anyway so the few cycles spent inside the sleep machinery are not
  // mistaken for op work.
  cpu_checkpoint_ = ThreadCpuNow();
}

std::string FormatClockTime(VirtualTime t) {
  const int64_t total_ns = t.count();
  const int64_t total_s = total_ns / 1'000'000'000;
  const int64_t frac_100us = (total_ns % 1'000'000'000) / 100'000;
  const int64_t h = (total_s / 3600) % 24;
  const int64_t m = (total_s / 60) % 60;
  const int64_t s = total_s % 60;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%02lld:%02lld:%02lld.%04lld",
                static_cast<long long>(h), static_cast<long long>(m),
                static_cast<long long>(s), static_cast<long long>(frac_100us));
  return buf;
}

std::string FormatDuration(VirtualDuration d) {
  const double ns = static_cast<double>(d.count());
  char buf[48];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

}  // namespace sdci
