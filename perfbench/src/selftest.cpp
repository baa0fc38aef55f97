// Self-tests for the benchmark's own arithmetic: the percentile rule, the
// error-rate denominator and warm-up exclusion. Exits nonzero on the first
// failed expectation; checks stay on in every build type.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: percentile must sort
}

void test_percentile() {
  using perfbench::percentile;
  expect(percentile(one_to(10), 50) == 5.0, "p50 of 1..10 is 5");
  expect(percentile(one_to(10), 90) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(one_to(10), 100) == 10.0, "p100 is the max");
  expect(percentile(one_to(100), 90) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(one_to(1), 90) == 1.0, "single sample");
  expect(percentile(one_to(3), 1) == 1.0, "tiny p is the min");
  expect(throws([] { (void)percentile({}, 50); }), "empty throws");
  expect(throws([] { (void)percentile({1.0}, 0); }), "p=0 throws");
  expect(perfbench::median(one_to(4)) == 2.5, "even median averages");
  expect(perfbench::median(one_to(5)) == 3.0, "odd median is the middle");
}

void test_reporting_rule() {
  using perfbench::percentile_reportable;
  using perfbench::samples_beyond;
  expect(samples_beyond(100, 90) == 10, "10 samples beyond p90 of 100");
  expect(samples_beyond(99, 90) == 9, "9 samples beyond p90 of 99");
  expect(percentile_reportable(100, 90), "p90 reportable at n=100");
  expect(!percentile_reportable(99, 90), "p90 not reportable at n=99");
  expect(percentile_reportable(20, 50), "p50 reportable at n=20");
  expect(!percentile_reportable(19, 50), "p50 not reportable at n=19");
  expect(percentile_reportable(1000, 99), "p99 reportable at n=1000");
  expect(!percentile_reportable(999, 99), "p99 not reportable at n=999");
}

void test_error_rate() {
  perfbench::Tally tally;
  expect(throws([&] { (void)tally.error_rate(); }), "no attempts throws");
  // Rounds, evaluations and checks all count in the denominator.
  for (int round = 0; round < 3; ++round) tally.record(true);
  tally.record(true);   // eval
  tally.record(false);  // eval failed
  tally.record(true);   // eval
  tally.record(true);   // bitwise check
  const bool returned = tally.record(false);  // accuracy floor
  expect(!returned, "record returns the outcome");
  expect(tally.attempted() == 8, "eight attempts");
  expect(tally.failed() == 2, "two failures");
  expect(tally.error_rate() == 0.25, "error rate 2/8");
}

void test_warmup_exclusion() {
  perfbench::RoundTimes times;
  times.add(0, 1000.0);
  times.add(1, 1.0);
  times.add(2, 3.0);
  expect(times.count() == 2, "warm-up round left out");
  expect(perfbench::median(times.timed()) == 2.0, "median of timed rounds");
}

}  // namespace

int main() {
  test_percentile();
  test_reporting_rule();
  test_error_rate();
  test_warmup_exclusion();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
