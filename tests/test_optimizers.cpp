// Unit tests for the classical optimizers: BFGS (strong Wolfe) and
// basinhopping, on standard test functions.

#include <gtest/gtest.h>

#include <cmath>

#include "anglefind/basinhopping.hpp"
#include "anglefind/bfgs.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace fastqaoa {
namespace {

/// Convex quadratic f = sum (x_i - i)^2.
double quadratic(std::span<const double> x, std::span<double> g) {
  double f = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - static_cast<double>(i);
    f += d * d;
    if (!g.empty()) g[i] = 2.0 * d;
  }
  return f;
}

/// Rosenbrock banana in 2D.
double rosenbrock(std::span<const double> x, std::span<double> g) {
  const double a = 1.0 - x[0];
  const double b = x[1] - x[0] * x[0];
  const double f = a * a + 100.0 * b * b;
  if (!g.empty()) {
    g[0] = -2.0 * a - 400.0 * x[0] * b;
    g[1] = 200.0 * b;
  }
  return f;
}

/// Rastrigin: highly multimodal, global minimum 0 at the origin.
double rastrigin(std::span<const double> x, std::span<double> g) {
  double f = 10.0 * static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    f += x[i] * x[i] - 10.0 * std::cos(2.0 * kPi * x[i]);
    if (!g.empty()) {
      g[i] = 2.0 * x[i] + 20.0 * kPi * std::sin(2.0 * kPi * x[i]);
    }
  }
  return f;
}

TEST(Bfgs, SolvesQuadraticExactly) {
  OptResult res = bfgs_minimize(quadratic, {5.0, -3.0, 10.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.f, 0.0, 1e-12);
  EXPECT_NEAR(res.x[0], 0.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
  EXPECT_NEAR(res.x[2], 2.0, 1e-6);
}

TEST(Bfgs, SolvesRosenbrock) {
  OptResult res = bfgs_minimize(rosenbrock, {-1.2, 1.0});
  EXPECT_NEAR(res.f, 0.0, 1e-10);
  EXPECT_NEAR(res.x[0], 1.0, 1e-4);
  EXPECT_NEAR(res.x[1], 1.0, 1e-4);
}

TEST(Bfgs, StartingAtOptimumConvergesImmediately) {
  OptResult res = bfgs_minimize(quadratic, {0.0, 1.0, 2.0});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_NEAR(res.f, 0.0, 1e-14);
}

TEST(Bfgs, RespectsIterationCap) {
  BfgsOptions opt;
  opt.max_iterations = 2;
  OptResult res = bfgs_minimize(rosenbrock, {-1.2, 1.0}, opt);
  EXPECT_LE(res.iterations, 2);
}

TEST(Bfgs, HandlesTrigObjective) {
  // f = -cos(x) cos(y) has a minimum of -1 at the origin.
  auto fn = [](std::span<const double> x, std::span<double> g) {
    const double f = -std::cos(x[0]) * std::cos(x[1]);
    if (!g.empty()) {
      g[0] = std::sin(x[0]) * std::cos(x[1]);
      g[1] = std::cos(x[0]) * std::sin(x[1]);
    }
    return f;
  };
  OptResult res = bfgs_minimize(fn, {0.4, -0.3});
  EXPECT_NEAR(res.f, -1.0, 1e-10);
}

TEST(Bfgs, EmptyStartThrows) {
  EXPECT_THROW(bfgs_minimize(quadratic, {}), Error);
}

TEST(Bfgs, CountsEvaluations) {
  OptResult res = bfgs_minimize(rosenbrock, {-1.2, 1.0});
  EXPECT_GT(res.evaluations, 10u);
  EXPECT_LT(res.evaluations, 1000u);
}

TEST(BasinHopping, EscapesLocalMinimaOfRastrigin) {
  // BFGS alone from (2.1, -1.9) lands in a nearby local minimum with
  // f ≈ 4+; basinhopping must find a basin at least as good, and with
  // enough hops the global one.
  OptResult local = bfgs_minimize(rastrigin, {2.1, -1.9});
  EXPECT_GT(local.f, 1.0);  // stuck

  Rng rng(123);
  BasinHoppingOptions opt;
  opt.hops = 60;
  opt.step_size = 1.0;
  OptResult global = basinhopping(rastrigin, {2.1, -1.9}, rng, opt);
  EXPECT_LT(global.f, local.f + 1e-9);
  EXPECT_NEAR(global.f, 0.0, 1e-6);
  EXPECT_NEAR(global.x[0], 0.0, 1e-3);
  EXPECT_NEAR(global.x[1], 0.0, 1e-3);
}

TEST(BasinHopping, DeterministicPerSeed) {
  Rng a(7), b(7);
  BasinHoppingOptions opt;
  opt.hops = 10;
  OptResult r1 = basinhopping(rastrigin, {1.0, 1.0}, a, opt);
  OptResult r2 = basinhopping(rastrigin, {1.0, 1.0}, b, opt);
  EXPECT_DOUBLE_EQ(r1.f, r2.f);
  EXPECT_EQ(r1.x, r2.x);
}

TEST(BasinHopping, GreedyTemperatureZeroNeverWorsens) {
  Rng rng(9);
  BasinHoppingOptions opt;
  opt.hops = 15;
  opt.temperature = 0.0;
  OptResult res = basinhopping(rastrigin, {3.0, 3.0}, rng, opt);
  OptResult start = bfgs_minimize(rastrigin, {3.0, 3.0});
  EXPECT_LE(res.f, start.f + 1e-12);
}

TEST(BasinHopping, EarlyStopOnStaleHops) {
  Rng rng(11);
  BasinHoppingOptions opt;
  opt.hops = 1000;
  opt.no_improvement_limit = 3;
  OptResult res = basinhopping(quadratic, {1.0, 1.0, 1.0}, rng, opt);
  // Quadratic has one basin: after 3 stale hops it must stop long before
  // 1000 iterations.
  EXPECT_LT(res.iterations, 20);
  EXPECT_NEAR(res.f, 0.0, 1e-10);
}

TEST(BasinHopping, ValidatesArguments) {
  Rng rng(1);
  EXPECT_THROW(basinhopping(quadratic, {}, rng), Error);
  BasinHoppingOptions opt;
  opt.hops = 0;
  EXPECT_THROW(basinhopping(quadratic, {1.0}, rng, opt), Error);
}

}  // namespace
}  // namespace fastqaoa
