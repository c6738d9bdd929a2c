// Unit tests for the common module: RNG quality/determinism, memory
// tracking, timers and error checking.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/alloc.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace fastqaoa {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(77);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(99);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, BoundedCoversRangeWithoutBias) {
  Rng rng(5);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) {
    const auto v = rng.bounded(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, draws * 0.01);
  }
}

TEST(Rng, ForkedStreamsAreIndependentlySeeded) {
  Rng parent(42);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child1() == child2());
  EXPECT_LT(same, 2);
}

TEST(SplitMix, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

TEST(MemoryTracker, TracksVectorAllocations) {
  MemoryTracker::reset_peak();
  const std::size_t before = MemoryTracker::current_bytes();
  {
    cvec v(1024);
    EXPECT_GE(MemoryTracker::current_bytes(), before + 1024 * sizeof(cplx));
    EXPECT_GE(MemoryTracker::peak_bytes(), before + 1024 * sizeof(cplx));
  }
  EXPECT_EQ(MemoryTracker::current_bytes(), before);
}

TEST(MemoryTracker, PeakPersistsAfterFree) {
  MemoryTracker::reset_peak();
  const std::size_t base = MemoryTracker::peak_bytes();
  { dvec v(4096); }
  EXPECT_GE(MemoryTracker::peak_bytes(), base + 4096 * sizeof(double));
}

TEST(Alloc, AlignmentIs64Bytes) {
  cvec v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  dvec d(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
}

TEST(Timer, AdvancesMonotonically) {
  WallTimer t;
  const double t0 = t.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double t1 = t.seconds();
  EXPECT_GE(t1, t0);
  EXPECT_GT(t1, 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), t1);
}

TEST(Error, CheckThrowsWithContext) {
  try {
    FASTQAOA_CHECK(false, "contextual message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contextual message"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(FASTQAOA_CHECK(true, "never seen"));
}

}  // namespace
}  // namespace fastqaoa
