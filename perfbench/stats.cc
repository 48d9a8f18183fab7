#include "stats.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

int64_t ClockNs(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// First number on the "<key>:" line of /proc/self/status.
double StatusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0;
}

}  // namespace

int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() noexcept { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() noexcept { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() { return StatusField("VmHWM") / 1024.0; }
double RssKb() { return StatusField("VmRSS"); }
int ThreadCount() { return static_cast<int>(StatusField("Threads")); }

std::optional<Quantile> TailQuantile(std::vector<double> samples, double q,
                                     size_t min_beyond) {
  if (samples.empty() || !(q > 0 && q < 1)) return std::nullopt;
  const size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = std::clamp<size_t>(rank, 1, n) - 1;
  const size_t beyond = n - 1 - index;
  if (beyond < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return Quantile{samples[index], n, beyond};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
