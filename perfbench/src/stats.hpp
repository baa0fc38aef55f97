// The benchmark's arithmetic: percentiles, the reporting rule for tail
// percentiles, warm-up exclusion and the failure tally. Kept header-only and
// free of library dependencies so perfbench_selftest can pin every rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. p in (0, 100]; throws on an empty sample.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("p out of range");
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Median (mean of the two middle samples for an even count).
inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of nothing");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Samples strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it (p90 therefore needs 100 samples).
inline bool percentile_reportable(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// Rounds at the start of every run that run and are checked but never
/// reach a round metric.
constexpr std::size_t kWarmupRounds = 1;

/// Per-round timings with the warm-up rounds left out.
class RoundTimes {
 public:
  void add(std::size_t round, double seconds) {
    if (round >= kWarmupRounds) timed_.push_back(seconds);
  }

  [[nodiscard]] const std::vector<double>& timed() const { return timed_; }
  [[nodiscard]] std::size_t count() const { return timed_.size(); }

 private:
  std::vector<double> timed_;
};

/// Failures counted against everything attempted: rounds, evaluations and
/// output checks each count once.
class Tally {
 public:
  /// Records one attempt; returns `ok` so call sites can chain on it.
  bool record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
    return ok;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double error_rate() const {
    if (attempted_ == 0) throw std::logic_error("error rate of nothing");
    return static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
