// Clocks, process gauges and order statistics for the site benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Steady-clock nanoseconds (the benchmark's one wall clock).
int64_t NowNs() noexcept;
// CPU consumed by the whole process / by the calling thread, in ns.
int64_t ProcessCpuNs() noexcept;
int64_t ThreadCpuNs() noexcept;

// Values read from /proc/self/status (0 when unreadable).
double PeakRssMb();  // VmHWM
double RssKb();      // VmRSS
int ThreadCount();   // Threads

// A nearest-rank quantile together with the sample support behind it.
struct Quantile {
  double value = 0;
  size_t samples = 0;  // size of the sample set
  size_t beyond = 0;   // samples strictly ranked above the quantile
};

// The q-quantile (0 < q < 1, nearest rank) of `samples`, or nullopt when
// fewer than `min_beyond` samples rank above it: a tail percentile is only
// reported when the sample can support it.
std::optional<Quantile> TailQuantile(std::vector<double> samples, double q,
                                     size_t min_beyond = 10);

// Median of a non-empty set (the mean of the middle pair for even sizes);
// 0 for an empty set.
double Median(std::vector<double> values);

}  // namespace perfbench
