#include "common/clock.h"

#include <gtest/gtest.h>

#include <thread>

namespace sdci {
namespace {

TEST(TimeAuthority, NowAdvancesMonotonically) {
  TimeAuthority authority(100.0);
  const VirtualTime a = authority.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const VirtualTime b = authority.Now();
  EXPECT_GT(b, a);
}

TEST(TimeAuthority, DilationScalesVirtualTime) {
  TimeAuthority authority(50.0);
  const VirtualTime before = authority.Now();
  authority.SleepFor(Millis(100));  // 100 virtual ms = 2 real ms
  const VirtualTime after = authority.Now();
  const auto elapsed = after - before;
  EXPECT_GE(elapsed, Millis(95));
  EXPECT_LE(elapsed, Millis(200));  // generous slack for CI noise
}

TEST(TimeAuthority, ToRealInvertsDilation) {
  TimeAuthority authority(10.0);
  EXPECT_EQ(authority.ToReal(Millis(100)), std::chrono::milliseconds(10));
}

TEST(TimeAuthority, SleepUntilPastIsInstant) {
  TimeAuthority authority(100.0);
  const auto start = std::chrono::steady_clock::now();
  authority.SleepUntil(VirtualTime::zero());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(5));
}

TEST(DelayBudget, AccumulatesTotalCharged) {
  TimeAuthority authority(1000.0);
  DelayBudget budget(authority);
  budget.Charge(Millis(10));
  budget.Charge(Millis(5));
  EXPECT_EQ(budget.TotalCharged(), Millis(15));
}

TEST(DelayBudget, FlushPaysDebtInVirtualTime) {
  TimeAuthority authority(100.0);
  DelayBudget budget(authority);
  const VirtualTime before = authority.Now();
  budget.Charge(Millis(200));  // 2ms real at 100x
  budget.Flush();
  const auto elapsed = authority.Now() - before;
  EXPECT_GE(elapsed, Millis(180));
}

TEST(DelayBudget, PacedLoopMatchesModeledRate) {
  // 2000 ops at 1 virtual ms each are paced to the modeled 1000 ops per
  // virtual second: every charged ms is either slept or netted against
  // real work, and the clock advances at least as far as the budget slept.
  // Checked on the budget's own accounting and the clock's lower bound,
  // which no scheduler delay can move: one Flush pays the whole debt (the
  // flush slice exceeds it), so no oversleep credit feeds back into later
  // requests.
  TimeAuthority authority(200.0);
  DelayBudget budget(authority, std::chrono::seconds(1));
  const VirtualTime start = authority.Now();
  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    budget.Charge(Millis(1));  // 1 virtual ms per op
  }
  budget.Flush();
  const VirtualDuration elapsed = authority.Now() - start;
  const VirtualDuration model = kOps * Millis(1);
  EXPECT_EQ(budget.TotalCharged(), model);
  EXPECT_EQ(budget.TotalRequested() + budget.TotalNetted(), model);
  EXPECT_GE(elapsed, budget.TotalRequested());
}

TEST(DelayBudget, NettingCoversRealWork) {
  // Charge ops whose modeled cost greatly exceeds the CPU burned between
  // charges: the budget must net that CPU out of the model, so the sleep
  // it asks for plus the CPU it netted is exactly the model, not model +
  // work. Checked on the budget's own accounting, which no scheduler delay
  // can move: one Flush pays the whole debt (the flush slice exceeds it),
  // so no oversleep credit feeds back into later requests.
  TimeAuthority authority(50.0);
  DelayBudget budget(authority, std::chrono::seconds(1));
  const auto cpu_before = ThreadCpuNow();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 1000; ++j) sink = sink + j;  // some real CPU work
    budget.Charge(Millis(2));
  }
  const auto cpu_spent = ThreadCpuNow() - cpu_before;
  budget.Flush();
  const VirtualDuration model = 100 * Millis(2);
  EXPECT_EQ(budget.TotalCharged(), model);
  EXPECT_EQ(budget.TotalRequested() + budget.TotalNetted(), model);
  // Real work was netted, so less than the model was slept...
  EXPECT_GT(budget.TotalNetted(), VirtualDuration::zero());
  EXPECT_LT(budget.TotalRequested(), model);
  // ...but never more than the work really done (dilated to virtual time).
  EXPECT_LE(budget.TotalNetted(), cpu_spent * 50);
}

TEST(FormatClockTime, HhMmSsFraction) {
  const VirtualTime t = std::chrono::hours(20) + std::chrono::minutes(15) +
                        std::chrono::seconds(37) + std::chrono::microseconds(113800);
  EXPECT_EQ(FormatClockTime(t), "20:15:37.1138");
  EXPECT_EQ(FormatClockTime(VirtualTime::zero()), "00:00:00.0000");
}

TEST(FormatDuration, PicksUnits) {
  EXPECT_EQ(FormatDuration(VirtualDuration(500)), "500 ns");
  EXPECT_EQ(FormatDuration(Micros(1500)), "1.50 ms");
  EXPECT_EQ(FormatDuration(Seconds(2.5)), "2.50 s");
}

TEST(ConversionHelpers, MicrosMillisSeconds) {
  EXPECT_EQ(Micros(1000), Millis(1));
  EXPECT_EQ(Seconds(0.001), Millis(1));
  EXPECT_DOUBLE_EQ(ToSecondsF(Millis(1500)), 1.5);
}

}  // namespace
}  // namespace sdci
