/// \file harness_test.cc
/// \brief Tests of the benchmark's own helpers: the percentile rule, the
/// delivered-stream digest and the delivered-rate error. run.py runs this before every benchmark run; a non-zero exit
/// stops the run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void TestPercentileRule() {
  using craqrbench::NearestRank;
  using craqrbench::Summarize;
  using craqrbench::TailQuantile;
  EXPECT(Near(TailQuantile(1000), 0.99));
  EXPECT(Near(TailQuantile(5000), 0.99));
  EXPECT(Near(TailQuantile(100), 0.9));
  EXPECT(Near(TailQuantile(20), 0.5));
  EXPECT(Near(TailQuantile(3), 0.5));
  // Whatever the sample count, at least ten samples lie above the tail.
  for (std::size_t n = 21; n <= 3000; ++n) {
    const std::vector<double> v = OneTo(n);
    const double tail = NearestRank(v, TailQuantile(n));
    EXPECT(static_cast<double>(n) - tail >= 10.0);
  }
  const craqrbench::Distribution d = Summarize({5, 1, 4, 2, 3});
  EXPECT(Near(d.p50, 3.0));
  EXPECT(d.samples == 5);
  // 3000 samples: the tail is the whole run's p99.
  const craqrbench::Distribution big = Summarize(OneTo(3000));
  EXPECT(Near(big.p50, 1500.0));
  EXPECT(Near(big.tail, 2970.0));
  // A burst of 100 slow samples anywhere in the run sets the tail.
  std::vector<double> burst(3000, 1.0);
  for (std::size_t i = 1200; i < 1300; ++i) {
    burst[i] = 50.0;
  }
  EXPECT(Near(Summarize(burst).tail, 50.0));
  EXPECT(Near(Summarize({}).p50, 0.0));
}

craqr::ops::Tuple MakeTuple(std::uint64_t id, double t) {
  craqr::ops::Tuple tuple;
  tuple.id = id;
  tuple.sensor_id = 2;
  tuple.attribute = 3;
  tuple.point = craqr::geom::SpaceTimePoint{t, 1.25, -2.0};
  return tuple;
}

void TestStreamDigest() {
  using craqrbench::StreamDigest;
  // FNV-1a over the words (1, 2, 3, bits(0.5), bits(1.25), bits(-2.0)),
  // computed independently.
  StreamDigest one;
  one.Add(MakeTuple(1, 0.5));
  EXPECT(one.hash() == 0x7a05b313e014c339ull);
  EXPECT(one.count() == 1);

  const std::vector<craqr::ops::Tuple> ab = {MakeTuple(1, 0.5),
                                             MakeTuple(2, 0.75)};
  const std::vector<craqr::ops::Tuple> ba = {MakeTuple(2, 0.75),
                                             MakeTuple(1, 0.5)};
  StreamDigest d_ab;
  d_ab.AddAll(ab);
  StreamDigest d_ab_again;
  d_ab_again.Add(ab[0]);
  d_ab_again.Add(ab[1]);
  StreamDigest d_ba;
  d_ba.AddAll(ba);
  EXPECT(d_ab == d_ab_again);
  EXPECT(d_ab != d_ba);  // order matters
  EXPECT(d_ab != one);
  EXPECT(StreamDigest() != one);
}

void TestRateRelErr() {
  using craqrbench::RateRelErr;
  using craqrbench::RateSample;
  // 90 tuples over 2 km^2 x 5 min = 9 per km^2 per min against 10: 0.1.
  // 300 over 4 km^2 x 5 min = 15 against 12: 0.25. The third sample has
  // no area and is skipped. Mean: 0.175.
  const std::vector<RateSample> samples = {
      {90.0, 2.0, 5.0, 10.0}, {300.0, 4.0, 5.0, 12.0}, {7.0, 0.0, 5.0, 1.0}};
  EXPECT(Near(RateRelErr(samples), 0.175));
  EXPECT(Near(RateRelErr({}), 0.0));
  EXPECT(Near(RateRelErr({{50.0, 1.0, 10.0, 5.0}}), 0.0));
}

}  // namespace

int main() {
  TestPercentileRule();
  TestStreamDigest();
  TestRateRelErr();
  if (g_failures != 0) {
    std::fprintf(stderr, "craqrbench_harness_test: %d failure(s)\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "craqrbench_harness_test: all passed\n");
  return 0;
}
