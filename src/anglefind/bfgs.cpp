#include "anglefind/bfgs.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace fastqaoa {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double inf_norm(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

bool all_finite(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// One evaluation of phi(alpha) = f(x + alpha d) and phi'(alpha) = g.d.
struct LineEval {
  double phi;
  double dphi;
};

class LineSearcher {
 public:
  LineSearcher(const GradObjective& fn, const std::vector<double>& x,
               const std::vector<double>& d, std::size_t& evals)
      : fn_(fn), x_(x), d_(d), evals_(evals),
        xt_(x.size()), gt_(x.size()) {}

  LineEval eval(double alpha) {
    for (std::size_t i = 0; i < x_.size(); ++i) {
      xt_[i] = x_[i] + alpha * d_[i];
    }
    ++evals_;
    FASTQAOA_OBS_COUNT("anglefind.bfgs.linesearch_steps", 1);
    phi_ = fn_(xt_, gt_);
    return {phi_, dot(gt_, d_)};
  }

  /// Point, value and gradient from the last eval() — reused by the caller
  /// once a step is accepted so no re-evaluation is needed.
  const std::vector<double>& last_point() const { return xt_; }
  const std::vector<double>& last_gradient() const { return gt_; }
  double last_value() const { return phi_; }

 private:
  const GradObjective& fn_;
  const std::vector<double>& x_;
  const std::vector<double>& d_;
  std::size_t& evals_;
  std::vector<double> xt_;
  std::vector<double> gt_;
  double phi_ = 0.0;
};

/// Strong-Wolfe line search (Nocedal & Wright Algorithm 3.5 with a
/// bisection/interpolation zoom, Algorithm 3.6). Returns the accepted step
/// length; the searcher's last_point/last_gradient correspond to it.
double wolfe_line_search(LineSearcher& ls, double f0, double g0d,
                         const BfgsOptions& opt) {
  FASTQAOA_ASSERT(g0d < 0.0, "line search needs a descent direction");
  const double c1 = opt.wolfe_c1;
  const double c2 = opt.wolfe_c2;

  auto zoom = [&](double lo, double hi, double phi_lo, double dphi_lo,
                  double phi_hi) -> double {
    double alpha = lo;
    for (int iter = 0; iter < opt.max_line_search_steps; ++iter) {
      // Quadratic interpolation using phi_lo, dphi_lo, phi_hi; fall back to
      // bisection when the model degenerates or steps out of bounds.
      const double span = hi - lo;
      double trial = lo - 0.5 * dphi_lo * span * span /
                              (phi_hi - phi_lo - dphi_lo * span);
      if (!std::isfinite(trial) ||
          trial <= std::min(lo, hi) + 0.1 * std::abs(span) ||
          trial >= std::max(lo, hi) - 0.1 * std::abs(span)) {
        trial = 0.5 * (lo + hi);
      }
      alpha = trial;
      const LineEval e = ls.eval(alpha);
      if (e.phi > f0 + c1 * alpha * g0d || e.phi >= phi_lo) {
        hi = alpha;
        phi_hi = e.phi;
      } else {
        if (std::abs(e.dphi) <= -c2 * g0d) return alpha;
        if (e.dphi * (hi - lo) >= 0.0) {
          hi = lo;
          phi_hi = phi_lo;
        }
        lo = alpha;
        phi_lo = e.phi;
        dphi_lo = e.dphi;
      }
      if (std::abs(hi - lo) < 1e-14) break;
    }
    // Ensure the searcher's cached point matches the returned alpha.
    ls.eval(alpha);
    return alpha;
  };

  double alpha_prev = 0.0;
  double phi_prev = f0;
  double dphi_prev = g0d;
  double alpha = 1.0;
  const double alpha_max = 1e3;

  for (int iter = 0; iter < opt.max_line_search_steps; ++iter) {
    const LineEval e = ls.eval(alpha);
    if (e.phi > f0 + c1 * alpha * g0d || (iter > 0 && e.phi >= phi_prev)) {
      return zoom(alpha_prev, alpha, phi_prev, dphi_prev, e.phi);
    }
    if (std::abs(e.dphi) <= -c2 * g0d) return alpha;
    if (e.dphi >= 0.0) {
      return zoom(alpha, alpha_prev, e.phi, e.dphi, phi_prev);
    }
    alpha_prev = alpha;
    phi_prev = e.phi;
    dphi_prev = e.dphi;
    alpha = std::min(2.0 * alpha, alpha_max);
  }
  return alpha_prev > 0.0 ? alpha_prev : alpha;
}

}  // namespace

OptResult bfgs_minimize(const GradObjective& fn, std::vector<double> x0,
                        const BfgsOptions& options) {
  const std::size_t n = x0.size();
  FASTQAOA_CHECK(n > 0, "bfgs_minimize: empty starting point");
  FASTQAOA_OBS_HIST_TIMED("anglefind.bfgs.seconds");
  FASTQAOA_TRACE_SPAN("bfgs_minimize");

  OptResult result;
  std::size_t evals = 0;

  std::vector<double> x = std::move(x0);
  std::vector<double> g(n);
  ++evals;
  double f = fn(x, g);

  // Inverse Hessian approximation, dense row-major.
  std::vector<double> h(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) h[i * n + i] = 1.0;

  std::vector<double> d(n);
  std::vector<double> s(n);
  std::vector<double> y(n);
  std::vector<double> hy(n);

  bool first_step = true;
  int iter = 0;
  std::size_t reported_evals = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (options.budget != nullptr) {
      // Report this iteration's evaluations, then poll — so a
      // max-evaluations budget sees every chain's spend promptly and a
      // tripped budget stops the search within one iteration.
      options.budget->add_evaluations(evals - reported_evals);
      reported_evals = evals;
      const runtime::StopReason reason = options.budget->check();
      if (reason != runtime::StopReason::None) {
        result.stop_reason = reason;
        break;
      }
    }
    if (!std::isfinite(f) || !all_finite(g)) {
      // A NaN/Inf objective or gradient would poison every subsequent
      // update; stop here so the caller can quarantine the point. When the
      // very first evaluation was non-finite, result.f carries it and the
      // chain-level recovery reseeds; otherwise x/f are the last finite
      // accepted iterate.
      result.stop_reason = runtime::StopReason::NonFinite;
      FASTQAOA_OBS_COUNT("runtime.nonfinite.bfgs", 1);
      break;
    }
    if (inf_norm(g) <= options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    // d = -H g
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += h[i * n + j] * g[j];
      d[i] = -acc;
    }
    double g0d = dot(g, d);
    if (g0d >= 0.0) {
      // Reset to steepest descent if H lost positive-definiteness.
      for (std::size_t i = 0; i < n * n; ++i) h[i] = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        h[i * n + i] = 1.0;
        d[i] = -g[i];
      }
      g0d = dot(g, d);
      if (g0d >= 0.0) {
        result.converged = true;  // gradient numerically zero
        break;
      }
    }

    LineSearcher ls(fn, x, d, evals);
    wolfe_line_search(ls, f, g0d, options);
    const std::vector<double>& x_new = ls.last_point();
    const std::vector<double>& g_new = ls.last_gradient();
    const double f_new = ls.last_value();

    if (!std::isfinite(f_new) || !all_finite(g_new)) {
      // The line search stepped into a non-finite region: keep the last
      // finite iterate instead of accepting the poisoned step.
      result.stop_reason = runtime::StopReason::NonFinite;
      FASTQAOA_OBS_COUNT("runtime.nonfinite.bfgs", 1);
      break;
    }

    for (std::size_t i = 0; i < n; ++i) {
      s[i] = x_new[i] - x[i];
      y[i] = g_new[i] - g[i];
    }
    const double sy = dot(s, y);

    if (inf_norm(s) <= options.step_tolerance) {
      x = x_new;
      f = f_new;
      g = g_new;
      result.converged = true;
      break;
    }

    if (sy > 1e-14) {
      if (first_step) {
        // Scale the initial inverse Hessian (Nocedal & Wright eq. 6.20).
        const double yy = dot(y, y);
        if (yy > 0.0) {
          const double gamma = sy / yy;
          for (std::size_t i = 0; i < n; ++i) h[i * n + i] = gamma;
        }
        first_step = false;
      }
      // BFGS inverse update: H <- (I - r s y^T) H (I - r y s^T) + r s s^T.
      const double rho = 1.0 / sy;
      for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j) acc += h[i * n + j] * y[j];
        hy[i] = acc;
      }
      const double yhy = dot(y, hy);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          h[i * n + j] += -rho * (hy[i] * s[j] + s[i] * hy[j]) +
                          rho * rho * yhy * s[i] * s[j] +
                          rho * s[i] * s[j];
        }
      }
    }

    x = x_new;
    f = f_new;
    g = g_new;
  }

  if (options.budget != nullptr) {
    options.budget->add_evaluations(evals - reported_evals);
  }
  FASTQAOA_OBS_COUNT("anglefind.bfgs.iterations",
                     static_cast<std::uint64_t>(iter));
  result.x = std::move(x);
  result.f = f;
  result.iterations = iter;
  result.evaluations = evals;
  return result;
}

}  // namespace fastqaoa
