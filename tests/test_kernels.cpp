// Backend-parity suite for the dispatched kernel layer (linalg/kernels/).
//
// Every backend the CPU supports is run against the scalar reference on
// randomized inputs: results must agree to 1e-13 relative. On top of the
// raw-kernel properties, each backend gets an adjoint-vs-finite-difference
// gradient check through the full engine, and a 1-vs-4-thread bit-identity
// check of the fixed-order reductions (the determinism contract of
// kernels.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "autodiff/adjoint.hpp"
#include "common/alloc.hpp"
#include "common/threading.hpp"
#include "core/qaoa.hpp"
#include "linalg/diag_dict.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/wht.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "test_util.hpp"

namespace fastqaoa {
namespace {

namespace kn = linalg::kernels;

constexpr double kParityTol = 1e-13;

/// RAII: select a backend for one test, restore auto-detection after.
class BackendGuard {
 public:
  explicit BackendGuard(const std::string& name) {
    ok_ = kn::select(name);
  }
  ~BackendGuard() { kn::select("auto"); }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

std::vector<std::string> simd_backends() {
  std::vector<std::string> out;
  for (const std::string& name : kn::available()) {
    if (name != "scalar") out.push_back(name);
  }
  return out;
}

cvec random_state(std::mt19937_64& gen, index_t n) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  cvec v(n);
  for (auto& z : v) z = cplx{u(gen), u(gen)};
  return v;
}

std::vector<double> random_diag(std::mt19937_64& gen, index_t n,
                                double span = 4.0) {
  std::uniform_real_distribution<double> u(-span, span);
  std::vector<double> d(n);
  for (auto& x : d) x = u(gen);
  return d;
}

double rel_err(double got, double want) {
  const double scale = std::max(1.0, std::abs(want));
  return std::abs(got - want) / scale;
}

double state_rel_err(const cvec& got, const cvec& want) {
  double num = 0.0;
  double den = 1.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num = std::max(num, std::abs(got[i] - want[i]));
    den = std::max(den, std::abs(want[i]));
  }
  return num / den;
}

/// Sizes that cross the serial/parallel thresholds of every kernel family
/// (WHT blocks at 4096 complex, elementwise at 8192, reductions at 8192).
const index_t kSizes[] = {1, 2, 8, 64, 1024, 1 << 14};

TEST(Kernels, ScalarBackendAlwaysAvailable) {
  const auto names = kn::available();
  ASSERT_FALSE(names.empty());
  EXPECT_NE(std::find(names.begin(), names.end(), "scalar"), names.end());
  BackendGuard g("scalar");
  ASSERT_TRUE(g.ok());
  EXPECT_STREQ(kn::active_name(), "scalar");
  EXPECT_STREQ(kn::active().name, "scalar");
}

TEST(Kernels, SelectRejectsUnknownName) {
  EXPECT_FALSE(kn::select("not-a-backend"));
  // The failed select must leave the active table untouched and usable.
  EXPECT_NE(kn::active_name(), nullptr);
  EXPECT_TRUE(kn::select("auto"));
}

TEST(Kernels, WhtFamilyMatchesScalarReference) {
  std::mt19937_64 gen(7);
  for (const std::string& name : simd_backends()) {
    for (const index_t n : kSizes) {
      const cvec base = random_state(gen, n);
      const auto d = random_diag(gen, n);
      const auto obj = random_diag(gen, n, 2.0);
      const double angle = 0.83;
      const double scale = 1.0 / static_cast<double>(n);

      // Scalar reference results.
      ASSERT_TRUE(kn::select("scalar"));
      cvec ref_wht = base;
      kn::active().wht(ref_wht.data(), n);
      cvec ref_pw = base;
      kn::active().phase_wht(ref_pw.data(), d.data(), angle, scale, n);
      cvec ref_sc = base;
      kn::active().phase_wht(ref_sc.data(), nullptr, 0.0, scale, n);
      cvec ref_we = base;
      const double ref_e =
          kn::active().wht_expect(ref_we.data(), obj.data(), n);
      cvec ref_pwe = base;
      const double ref_pe = kn::active().phase_wht_expect(
          ref_pwe.data(), d.data(), angle, scale, obj.data(), n);

      BackendGuard g(name);
      ASSERT_TRUE(g.ok());
      cvec got = base;
      kn::active().wht(got.data(), n);
      EXPECT_LT(state_rel_err(got, ref_wht), kParityTol)
          << name << " wht n=" << n;

      got = base;
      kn::active().phase_wht(got.data(), d.data(), angle, scale, n);
      EXPECT_LT(state_rel_err(got, ref_pw), kParityTol)
          << name << " phase_wht n=" << n;

      got = base;
      kn::active().phase_wht(got.data(), nullptr, 0.0, scale, n);
      EXPECT_LT(state_rel_err(got, ref_sc), kParityTol)
          << name << " phase_wht(scale-only) n=" << n;

      got = base;
      const double e = kn::active().wht_expect(got.data(), obj.data(), n);
      EXPECT_LT(state_rel_err(got, ref_we), kParityTol)
          << name << " wht_expect state n=" << n;
      EXPECT_LT(rel_err(e, ref_e), kParityTol)
          << name << " wht_expect value n=" << n;

      got = base;
      const double pe = kn::active().phase_wht_expect(
          got.data(), d.data(), angle, scale, obj.data(), n);
      EXPECT_LT(state_rel_err(got, ref_pwe), kParityTol)
          << name << " phase_wht_expect state n=" << n;
      EXPECT_LT(rel_err(pe, ref_pe), kParityTol)
          << name << " phase_wht_expect value n=" << n;
    }
  }
}

TEST(Kernels, ElementwiseMatchesScalarReference) {
  std::mt19937_64 gen(11);
  for (const std::string& name : simd_backends()) {
    for (const index_t n : kSizes) {
      const cvec base = random_state(gen, n);
      const cvec other = random_state(gen, n);
      const auto d = random_diag(gen, n);

      struct Case {
        const char* label;
        cvec ref;
        cvec got;
      };
      std::vector<Case> cases;
      // Run each elementwise kernel once per backend; collect pairs.
      for (int which = 0; which < 2; ++which) {
        if (which == 0) {
          ASSERT_TRUE(kn::select("scalar"));
        } else {
          ASSERT_TRUE(kn::select(name));
        }
        const kn::KernelBackend& k = kn::active();
        auto out = [&](const char* label) -> cvec& {
          if (which == 0) {
            cases.push_back({label, base, base});
            return cases.back().ref;
          }
          for (auto& c : cases) {
            if (std::string_view(c.label) == label) return c.got;
          }
          ADD_FAILURE() << "missing case " << label;
          return cases.back().got;
        };
        {
          cvec& v = out("diag_phase");
          k.diag_phase(v.data(), d.data(), nullptr, 1.7, n);
        }
        {
          cvec& v = out("diag_mul");
          k.diag_mul(v.data(), d.data(), 0.5, n);
        }
        {
          cvec& v = out("scale");
          k.scale(v.data(), 0.8, -0.6, n);
        }
        {
          cvec& v = out("scale_real");
          k.scale_real(v.data(), 1.0 / 3.0, n);
        }
        {
          cvec& v = out("copy_scale");
          k.copy_scale(v.data(), other.data(), 0.25, n);
        }
        {
          cvec& v = out("fill");
          k.fill(v.data(), 0.125, -2.0, n);
        }
        {
          cvec& v = out("add_const");
          k.add_const(v.data(), -0.3, 0.7, n);
        }
        {
          cvec& v = out("axpy");
          k.axpy(0.9, -1.1, other.data(), v.data(), n);
        }
        {
          cvec& v = out("cheb_recur");
          k.cheb_recur(v.data(), other.data(), 1.9, n);
        }
      }
      kn::select("auto");
      for (const auto& c : cases) {
        EXPECT_LT(state_rel_err(c.got, c.ref), kParityTol)
            << name << " " << c.label << " n=" << n;
      }
    }
  }
}

TEST(Kernels, ReductionsMatchScalarReference) {
  std::mt19937_64 gen(13);
  for (const std::string& name : simd_backends()) {
    for (const index_t n : kSizes) {
      const cvec x = random_state(gen, n);
      const cvec y = random_state(gen, n);
      const auto d = random_diag(gen, n);

      ASSERT_TRUE(kn::select("scalar"));
      const kn::KernelBackend& s = kn::active();
      const kn::CplxSum ref_dot = s.dot(x.data(), y.data(), n);
      const double ref_nsq = s.norm_sq(x.data(), n);
      const kn::CplxSum ref_vsum = s.vsum(x.data(), n);
      const double ref_de = s.diag_expectation(d.data(), x.data(), n);
      const double ref_bi =
          s.diag_bracket_imag(x.data(), d.data(), y.data(), n);
      const double ref_mad = s.max_abs_diff(x.data(), y.data(), n);

      BackendGuard g(name);
      ASSERT_TRUE(g.ok());
      const kn::KernelBackend& k = kn::active();
      const kn::CplxSum got_dot = k.dot(x.data(), y.data(), n);
      EXPECT_LT(rel_err(got_dot.re, ref_dot.re), kParityTol) << name << n;
      EXPECT_LT(rel_err(got_dot.im, ref_dot.im), kParityTol) << name << n;
      EXPECT_LT(rel_err(k.norm_sq(x.data(), n), ref_nsq), kParityTol)
          << name << n;
      const kn::CplxSum got_vsum = k.vsum(x.data(), n);
      EXPECT_LT(rel_err(got_vsum.re, ref_vsum.re), kParityTol) << name << n;
      EXPECT_LT(rel_err(got_vsum.im, ref_vsum.im), kParityTol) << name << n;
      EXPECT_LT(rel_err(k.diag_expectation(d.data(), x.data(), n), ref_de),
                kParityTol)
          << name << n;
      EXPECT_LT(
          rel_err(k.diag_bracket_imag(x.data(), d.data(), y.data(), n),
                  ref_bi),
          kParityTol)
          << name << n;
      EXPECT_LT(rel_err(k.max_abs_diff(x.data(), y.data(), n), ref_mad),
                kParityTol)
          << name << n;
    }
  }
}

TEST(Kernels, GemvMatchesScalarReference) {
  std::mt19937_64 gen(17);
  for (const std::string& name : simd_backends()) {
    for (const index_t rows : {3, 64, 300}) {
      const index_t cols = rows + 5;
      const auto a_re = random_diag(gen, rows * cols, 1.0);
      const cvec a_cx = random_state(gen, rows * cols);
      const cvec x_c = random_state(gen, cols);
      const cvec x_r = random_state(gen, rows);

      ASSERT_TRUE(kn::select("scalar"));
      const kn::KernelBackend& s = kn::active();
      cvec ref_rv(rows), ref_rt(cols), ref_cv(rows), ref_ca(cols);
      s.gemv_real(a_re.data(), rows, cols, x_c.data(), ref_rv.data());
      s.gemv_real_t(a_re.data(), rows, cols, x_r.data(), ref_rt.data());
      s.gemv_cplx(a_cx.data(), rows, cols, x_c.data(), ref_cv.data());
      s.gemv_cplx_adj(a_cx.data(), rows, cols, x_r.data(), ref_ca.data());

      BackendGuard g(name);
      ASSERT_TRUE(g.ok());
      const kn::KernelBackend& k = kn::active();
      cvec got_rv(rows), got_rt(cols), got_cv(rows), got_ca(cols);
      k.gemv_real(a_re.data(), rows, cols, x_c.data(), got_rv.data());
      k.gemv_real_t(a_re.data(), rows, cols, x_r.data(), got_rt.data());
      k.gemv_cplx(a_cx.data(), rows, cols, x_c.data(), got_cv.data());
      k.gemv_cplx_adj(a_cx.data(), rows, cols, x_r.data(), got_ca.data());
      EXPECT_LT(state_rel_err(got_rv, ref_rv), kParityTol) << name << rows;
      EXPECT_LT(state_rel_err(got_rt, ref_rt), kParityTol) << name << rows;
      EXPECT_LT(state_rel_err(got_cv, ref_cv), kParityTol) << name << rows;
      EXPECT_LT(state_rel_err(got_ca, ref_ca), kParityTol) << name << rows;
    }
  }
}

TEST(Kernels, AdjointGradientMatchesFiniteDifferencePerBackend) {
  // Full-engine property: the adjoint gradient agrees with central finite
  // differences of evaluate() on every backend.
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());

    Rng rng(21);
    const int n = 6;
    Graph graph = erdos_renyi(n, 0.5, rng);
    dvec table = tabulate(StateSpace::full(n),
                          [&graph](state_t x) { return maxcut(graph, x); });
    XMixer mixer = XMixer::transverse_field(n);
    Qaoa engine(mixer, table, 2);

    std::vector<double> angles = {0.37, -0.82, 0.55, 1.21};
    std::vector<double> grad(4);
    AdjointDifferentiator diff(engine);
    diff.value_and_gradient_packed(angles, grad);

    const double h = 1e-6;
    for (std::size_t j = 0; j < angles.size(); ++j) {
      std::vector<double> plus = angles;
      std::vector<double> minus = angles;
      plus[j] += h;
      minus[j] -= h;
      const double fd =
          (engine.run_packed(plus) - engine.run_packed(minus)) / (2.0 * h);
      EXPECT_NEAR(grad[j], fd, 1e-5)
          << name << " angle index " << j;
    }
  }
}

TEST(Kernels, ThreadCountInvariancePerBackend) {
  // The determinism contract: fixed-order reductions make every kernel
  // bit-identical at 1 thread and 4 threads. Sizes sit above every serial
  // threshold so the parallel paths actually run.
  std::mt19937_64 gen(29);
  const index_t n = 1 << 15;
  const cvec base = random_state(gen, n);
  const cvec other = random_state(gen, n);
  const auto d = random_diag(gen, n);
  const auto obj = random_diag(gen, n, 2.0);

  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    const kn::KernelBackend& k = kn::active();

    struct Results {
      cvec pwe_state;
      double pwe = 0.0, nsq = 0.0, de = 0.0, bi = 0.0, mad = 0.0;
      kn::CplxSum dot{}, vsum{};
    };
    auto run_all = [&](int threads) {
      set_num_threads(threads);
      Results r;
      r.pwe_state = base;
      r.pwe = k.phase_wht_expect(r.pwe_state.data(), d.data(), 0.73,
                                 1.0 / static_cast<double>(n), obj.data(),
                                 n);
      r.nsq = k.norm_sq(base.data(), n);
      r.de = k.diag_expectation(d.data(), base.data(), n);
      r.bi = k.diag_bracket_imag(base.data(), d.data(), other.data(), n);
      r.mad = k.max_abs_diff(base.data(), other.data(), n);
      r.dot = k.dot(base.data(), other.data(), n);
      r.vsum = k.vsum(base.data(), n);
      return r;
    };

    const int restore = num_threads();
    const Results one = run_all(1);
    const Results four = run_all(4);
    set_num_threads(restore);

    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(one.pwe_state[i], four.pwe_state[i])
          << name << " state index " << i;
    }
    EXPECT_EQ(one.pwe, four.pwe) << name;
    EXPECT_EQ(one.nsq, four.nsq) << name;
    EXPECT_EQ(one.de, four.de) << name;
    EXPECT_EQ(one.bi, four.bi) << name;
    EXPECT_EQ(one.mad, four.mad) << name;
    EXPECT_EQ(one.dot.re, four.dot.re) << name;
    EXPECT_EQ(one.dot.im, four.dot.im) << name;
    EXPECT_EQ(one.vsum.re, four.vsum.re) << name;
    EXPECT_EQ(one.vsum.im, four.vsum.im) << name;
  }
}

TEST(Kernels, EvaluateParityAcrossBackendsThroughEngine) {
  // End-to-end: the same plan evaluated on every backend agrees to 1e-13.
  Rng rng(31);
  const int n = 8;
  Graph graph = erdos_renyi(n, 0.5, rng);
  dvec table = tabulate(StateSpace::full(n),
                        [&graph](state_t x) { return maxcut(graph, x); });
  XMixer mixer = XMixer::transverse_field(n);
  std::vector<double> angles = {0.4, 0.9, 1.3, 0.7};

  ASSERT_TRUE(kn::select("scalar"));
  Qaoa ref_engine(mixer, table, 2);
  const double ref = ref_engine.run_packed(angles);
  for (const std::string& name : simd_backends()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    Qaoa engine(mixer, table, 2);
    EXPECT_LT(rel_err(engine.run_packed(angles), ref), kParityTol) << name;
  }
  kn::select("auto");
}

// ---------------------------------------------------------------------------
// Quantized phase route on single-state sweeps. With a DiagDict, phase_wht,
// phase_wht_expect and apply_diag_phase compute one sincos per distinct
// diagonal value on the fast-sincos backends; the result must be the
// per-element sweep bit for bit, and every case the route declines must
// still be. The poisoned variants hand the kernels an all-NaN d next to the
// real table's dictionary: only the lookup route can produce finite output,
// so equality with the per-element sweep on the real table proves the route
// was taken.
// ---------------------------------------------------------------------------

/// MaxCut table on a random graph: integer-valued, so its dictionary is
/// valid (at most n^2/4 + 1 distinct values).
dvec maxcut_table(int n, std::uint64_t seed) {
  Rng rng(seed);
  Graph graph = erdos_renyi(n, 0.5, rng);
  return tabulate(StateSpace::full(n),
                  [&graph](state_t x) { return maxcut(graph, x); });
}

bool same_bits(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Runs phase_wht, phase_wht_expect and apply_diag_phase with and without
/// `dict` (the dictionary of `d`, or any stand-in the route must decline)
/// and expects bitwise equal states and expectations.
void expect_dict_calls_bitwise(const dvec& d, const linalg::DiagDict* dict,
                               double angle, double scale,
                               const std::string& what) {
  std::mt19937_64 gen(d.size());
  const cvec base = random_state(gen, d.size());
  const std::vector<double> o = random_diag(gen, d.size(), 2.0);
  const dvec obj(o.begin(), o.end());
  if (linalg::is_power_of_two(d.size())) {
    cvec want = base;
    linalg::phase_wht(want, d, angle, scale);
    cvec got = base;
    linalg::phase_wht(got, d, angle, scale, dict);
    EXPECT_TRUE(same_bits(got, want)) << what << " phase_wht";

    cvec want_e = base;
    const double e_want =
        linalg::phase_wht_expect(want_e, d, angle, scale, obj);
    cvec got_e = base;
    const double e_got =
        linalg::phase_wht_expect(got_e, d, angle, scale, obj, dict);
    EXPECT_TRUE(same_bits(e_got, e_want))
        << what << " phase_wht_expect " << e_got << " vs " << e_want;
    EXPECT_TRUE(same_bits(got_e, want_e)) << what << " phase_wht_expect state";
  }
  cvec want_p = base;
  linalg::apply_diag_phase(want_p, d, angle);
  cvec got_p = base;
  linalg::apply_diag_phase(got_p, d, angle, dict);
  EXPECT_TRUE(same_bits(got_p, want_p)) << what << " apply_diag_phase";
}

TEST(QuantizedPhaseRoute, SingleStateCallsBitIdenticalToPerElementSweep) {
  const int restore = num_threads();
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    for (const int n : {10, 14}) {  // serial and blocked WHT drivers
      const dvec d = maxcut_table(n, 40 + n);
      const linalg::DiagDict dict = linalg::build_diag_dict(d);
      ASSERT_TRUE(dict.valid()) << n;
      const double inv = 1.0 / static_cast<double>(d.size());
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        for (const double scale : {1.0, inv}) {
          expect_dict_calls_bitwise(
              d, &dict, 0.83, scale,
              name + " n=" + std::to_string(n) +
                  " threads=" + std::to_string(threads) +
                  " scale=" + std::to_string(scale));
        }
      }
    }
    // Dimensions that are not powers of two (constrained subspaces): the
    // ragged last chunk of diag_phase keeps the per-element sweep.
    for (const index_t dim : {index_t{1000}, index_t{9000}}) {
      dvec d(dim);
      for (index_t i = 0; i < dim; ++i) d[i] = static_cast<double>(i % 37);
      const linalg::DiagDict dict = linalg::build_diag_dict(d);
      ASSERT_TRUE(dict.valid());
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        expect_dict_calls_bitwise(d, &dict, -1.7, 1.0,
                                  name + " dim=" + std::to_string(dim));
      }
    }
  }
  set_num_threads(restore);
}

TEST(QuantizedPhaseRoute, DeclinedCasesStayBitIdentical) {
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    std::mt19937_64 gen(3);

    // More than kQuantizedDiagMax distinct values: no dictionary exists.
    const std::vector<double> wide = random_diag(gen, index_t{1} << 12);
    const dvec dwide(wide.begin(), wide.end());
    const linalg::DiagDict wide_dict = linalg::build_diag_dict(dwide);
    EXPECT_FALSE(wide_dict.valid());
    expect_dict_calls_bitwise(dwide, &wide_dict, 0.6, 1.0, name + " wide");

    // Phases beyond the fast-sincos range: the table build declines.
    const dvec d = maxcut_table(10, 8);
    const linalg::DiagDict dict = linalg::build_diag_dict(d);
    ASSERT_TRUE(dict.valid());
    expect_dict_calls_bitwise(d, &dict, 3.0e8, 1.0, name + " huge angle");

    // Fewer than 64 elements: below the vector-body floor.
    const dvec small = maxcut_table(5, 9);
    const linalg::DiagDict small_dict = linalg::build_diag_dict(small);
    EXPECT_FALSE(small_dict.valid());
    expect_dict_calls_bitwise(small, &small_dict, 0.6, 1.0, name + " n=5");
  }
}

TEST(QuantizedPhaseRoute, KernelsDeclineForgedViews) {
  // A view whose values do NOT match d: wherever the kernels decline, the
  // output is the per-element sweep on d; taking the route would show up as
  // a mismatch. Covers the kernel-side guards the DiagDict builder cannot
  // produce inputs for (n < 64, nv > kQuantizedDiagMax, huge phases).
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    const kn::KernelBackend& k = kn::active();
    std::mt19937_64 gen(17);
    struct Case {
      const char* what;
      index_t n;
      index_t nv;
      double angle;
    };
    const Case cases[] = {{"n=32", 32, 4, 0.7},
                          {"nv=513", 1024, kn::kQuantizedDiagMax + 1, 0.7},
                          {"huge angle", 1024, 4, 2.0e8}};
    for (const Case& c : cases) {
      std::vector<std::uint16_t> idx(c.n);
      dvec d(c.n);
      dvec forged(c.nv);
      for (index_t j = 0; j < c.nv; ++j) forged[j] = static_cast<double>(j);
      for (index_t i = 0; i < c.n; ++i) {
        idx[i] = static_cast<std::uint16_t>(i % c.nv);
        d[i] = forged[idx[i]] + 0.5;  // never what the view says
      }
      const kn::QuantizedDiag dq{idx.data(), forged.data(), c.nv};
      const cvec base = random_state(gen, c.n);

      cvec want = base;
      k.phase_wht(want.data(), d.data(), c.angle, 1.0, c.n);
      cvec got = base;
      k.phase_wht_batch(got.data(), c.n, 1, nullptr, d.data(), &dq, &c.angle,
                        1.0, c.n);
      EXPECT_TRUE(same_bits(got, want)) << name << " phase_wht " << c.what;

      cvec want_p = base;
      k.diag_phase(want_p.data(), d.data(), nullptr, c.angle, c.n);
      cvec got_p = base;
      k.diag_phase(got_p.data(), d.data(), &dq, c.angle, c.n);
      EXPECT_TRUE(same_bits(got_p, want_p))
          << name << " diag_phase " << c.what;
    }
  }
}

TEST(QuantizedPhaseRoute, OneLaneBatchedCallsUseTheDictionary) {
  // Regression: one-lane batched calls used to return to the single-state
  // driver before building the factor table, so they read d per element
  // even with a valid view. Poisoned d + the real table's view must equal
  // the per-element sweep on the real table, on every fast-sincos backend.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int restore = num_threads();
  for (const std::string& name : simd_backends()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    const kn::KernelBackend& k = kn::active();
    for (const int n : {10, 14}) {
      const dvec d_true = maxcut_table(n, 60 + n);
      const dvec d_nan(d_true.size(), nan);
      const linalg::DiagDict dict = linalg::build_diag_dict(d_true);
      ASSERT_TRUE(dict.valid());
      const kn::QuantizedDiag dq_true = dict.view();
      const dvec obj = maxcut_table(n, 70 + n);
      const index_t dim = d_true.size();
      std::mt19937_64 gen(n);
      const cvec base = random_state(gen, dim);
      const double angle = 0.41;
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        for (const double scale : {1.0, 1.0 / static_cast<double>(dim)}) {
          const std::string what = name + " n=" + std::to_string(n) +
                                   " threads=" + std::to_string(threads);
          cvec want = base;
          k.phase_wht(want.data(), d_true.data(), angle, scale, dim);
          cvec got = base;
          k.phase_wht_batch(got.data(), dim, 1, nullptr, d_nan.data(),
                            &dq_true, &angle, scale, dim);
          EXPECT_TRUE(same_bits(got, want)) << what << " phase_wht_batch";

          cvec want_e = base;
          const double e_want = k.phase_wht_expect(
              want_e.data(), d_true.data(), angle, scale, obj.data(), dim);
          cvec got_e = base;
          double e_got = 0.0;
          k.phase_wht_expect_batch(got_e.data(), dim, 1, d_nan.data(),
                                   &dq_true, &angle, scale, obj.data(),
                                   &e_got, dim);
          EXPECT_TRUE(same_bits(e_got, e_want))
              << what << " phase_wht_expect_batch " << e_got << " vs "
              << e_want;
          EXPECT_TRUE(same_bits(got_e, want_e))
              << what << " phase_wht_expect_batch state";
        }

        // The same through the single-state wrappers.
        cvec want = base;
        linalg::phase_wht(want, d_true, angle, 1.0);
        cvec got = base;
        linalg::phase_wht(got, d_nan, angle, 1.0, &dict);
        EXPECT_TRUE(same_bits(got, want)) << name << " linalg::phase_wht";

        cvec want_p = base;
        linalg::apply_diag_phase(want_p, d_true, angle);
        cvec got_p = base;
        linalg::apply_diag_phase(got_p, d_nan, angle, &dict);
        EXPECT_TRUE(same_bits(got_p, want_p))
            << name << " linalg::apply_diag_phase";
      }
    }
  }
  set_num_threads(restore);
}

TEST(BatchedKernels, EachLaneMatchesTheOneLaneCallAndPadsStayUntouched) {
  // The engine evaluates lane by lane, so only the table's own callers reach
  // the batched entries with lanes > 1; their contract still holds: each
  // lane equals the one-lane call bit for bit, and the pad between lanes is
  // never written. Covers the serial (n = 2^10) and blocked (n = 2^13) WHT
  // regimes, with and without a shared init, with a valid and a null view.
  constexpr int kLanes = 3;
  const double angles[kLanes] = {0.41, -1.3, 2.7};
  const cplx pad{-7.5, 3.25};
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    const kn::KernelBackend& k = kn::active();
    for (const int qubits : {10, 13}) {
      const dvec d = maxcut_table(qubits, 80 + qubits);
      const dvec obj = maxcut_table(qubits, 90 + qubits);
      const linalg::DiagDict dict = linalg::build_diag_dict(d);
      ASSERT_TRUE(dict.valid());
      const kn::QuantizedDiag valid = dict.view();
      const index_t n = d.size();
      const index_t stride = n + 64;
      const double scale = 1.0 / static_cast<double>(n);
      std::mt19937_64 gen(static_cast<std::uint64_t>(qubits));
      const cvec init = random_state(gen, n);
      cvec base(stride * kLanes, pad);
      for (int l = 0; l < kLanes; ++l) {
        const cvec v = random_state(gen, n);
        std::copy(v.begin(), v.end(), base.begin() + stride * l);
      }
      const auto lane = [&](const cvec& m, int l) {
        return cvec(m.begin() + stride * l, m.begin() + stride * l + n);
      };
      const auto pads_untouched = [&](const cvec& m) {
        for (int l = 0; l < kLanes; ++l) {
          for (index_t i = n; i < stride; ++i) {
            const cplx v = m[stride * static_cast<index_t>(l) + i];
            if (!same_bits(v.real(), pad.real()) ||
                !same_bits(v.imag(), pad.imag())) {
              return false;
            }
          }
        }
        return true;
      };

      const kn::QuantizedDiag* const views[] = {&valid, nullptr};
      for (const kn::QuantizedDiag* dq : views) {
        const std::string what = name + " n=" + std::to_string(n) +
                                 (dq != nullptr ? " view" : " no-view");
        for (const bool with_init : {false, true}) {
          cvec got = base;
          k.phase_wht_batch(got.data(), stride, kLanes,
                            with_init ? init.data() : nullptr, d.data(), dq,
                            angles, scale, n);
          for (int l = 0; l < kLanes; ++l) {
            cvec want = with_init ? init : lane(base, l);
            k.phase_wht_batch(want.data(), n, 1, nullptr, d.data(), dq,
                              &angles[l], scale, n);
            EXPECT_TRUE(same_bits(lane(got, l), want))
                << what << " phase_wht_batch init=" << with_init << " lane "
                << l;
          }
          EXPECT_TRUE(pads_untouched(got))
              << what << " phase_wht_batch init=" << with_init;
        }

        cvec got = base;
        double out[kLanes];
        k.phase_wht_expect_batch(got.data(), stride, kLanes, d.data(), dq,
                                 angles, scale, obj.data(), out, n);
        for (int l = 0; l < kLanes; ++l) {
          cvec want = lane(base, l);
          double e = 0.0;
          k.phase_wht_expect_batch(want.data(), n, 1, d.data(), dq,
                                   &angles[l], scale, obj.data(), &e, n);
          EXPECT_TRUE(same_bits(out[l], e))
              << what << " phase_wht_expect_batch lane " << l;
          EXPECT_TRUE(same_bits(lane(got, l), want))
              << what << " phase_wht_expect_batch state lane " << l;
        }
        EXPECT_TRUE(pads_untouched(got)) << what << " phase_wht_expect_batch";
      }

      cvec got = base;
      double out[kLanes];
      k.wht_expect_batch(got.data(), stride, kLanes, obj.data(), out, n);
      for (int l = 0; l < kLanes; ++l) {
        cvec want = lane(base, l);
        double e = 0.0;
        k.wht_expect_batch(want.data(), n, 1, obj.data(), &e, n);
        EXPECT_TRUE(same_bits(out[l], e))
            << name << " n=" << n << " wht_expect_batch lane " << l;
        EXPECT_TRUE(same_bits(lane(got, l), want))
            << name << " n=" << n << " wht_expect_batch state lane " << l;
      }
      EXPECT_TRUE(pads_untouched(got)) << name << " n=" << n
                                       << " wht_expect_batch";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level invariance on every backend: evaluate, evaluate_batch and the
// adjoint gradient are bit-identical at 1 and 4 threads, and the quantized
// phase route the engine takes matches the per-element sweep bit for bit.
// ---------------------------------------------------------------------------

struct EngineFixture {
  Graph graph;
  dvec table;
  XMixer mixer;
  std::vector<double> angles;

  static EngineFixture make() {
    Rng rng(53);
    // The MaxCut plan folds to working length 32768: the blocked (parallel)
    // WHT driver runs, with an odd number of top stages (a final radix-2
    // pass after the radix-4 ones).
    const int n = 16;
    Graph g = erdos_renyi(n, 0.3, rng);
    dvec t = tabulate(StateSpace::full(n),
                      [&g](state_t x) { return maxcut(g, x); });
    return EngineFixture{std::move(g), std::move(t),
                         XMixer::transverse_field(n),
                         {0.37, -0.82, 0.55, 1.21}};
  }
};

TEST(EngineThreadInvariance, EvaluateBitIdenticalAcrossThreadCounts) {
  EngineFixture fx = EngineFixture::make();
  const int restore = num_threads();
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    QaoaPlan plan(fx.mixer, fx.table, 2);
    ASSERT_EQ(plan.work_dim(), index_t{1} << 15);

    set_num_threads(1);
    EvalWorkspace ref_ws;
    const double ref = evaluate_packed(plan, ref_ws, fx.angles);

    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      EvalWorkspace ws;
      const double got = evaluate_packed(plan, ws, fx.angles);
      EXPECT_EQ(got, ref) << name << " threads=" << threads;
      EXPECT_TRUE(same_bits(ws.psi, ref_ws.psi))
          << name << " threads=" << threads;
    }
  }
  set_num_threads(restore);
}

TEST(EngineThreadInvariance, AdjointBitIdenticalAcrossThreadCounts) {
  EngineFixture fx = EngineFixture::make();
  const int restore = num_threads();
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    QaoaPlan plan(fx.mixer, fx.table, 2);
    ASSERT_EQ(plan.work_dim(), index_t{1} << 15);

    set_num_threads(1);
    EvalWorkspace ref_ws;
    AdjointDifferentiator ref_diff(plan, ref_ws);
    std::vector<double> ref_grad(fx.angles.size());
    const double ref = ref_diff.value_and_gradient_packed(fx.angles, ref_grad);

    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      EvalWorkspace ws;
      AdjointDifferentiator diff(plan, ws);
      std::vector<double> grad(fx.angles.size());
      const double got = diff.value_and_gradient_packed(fx.angles, grad);
      EXPECT_EQ(got, ref) << name << " threads=" << threads;
      for (std::size_t j = 0; j < grad.size(); ++j) {
        EXPECT_EQ(grad[j], ref_grad[j])
            << name << " threads=" << threads << " angle " << j;
      }
    }
  }
  set_num_threads(restore);
}

TEST(EngineThreadInvariance, EvaluateBatchBitIdenticalAcrossThreadCounts) {
  EngineFixture fx = EngineFixture::make();
  const int restore = num_threads();
  for (const int lanes : {3, 9}) {
    std::mt19937_64 gen(static_cast<std::uint64_t>(lanes));
    std::uniform_real_distribution<double> u(-1.5, 1.5);
    std::vector<double> betas(2 * static_cast<std::size_t>(lanes));
    std::vector<double> gammas(betas.size());
    for (double& b : betas) b = u(gen);
    for (double& c : gammas) c = u(gen);

    for (const std::string& name : kn::available()) {
      BackendGuard g(name);
      ASSERT_TRUE(g.ok());
      QaoaPlan plan(fx.mixer, fx.table, 2);
      ASSERT_EQ(plan.work_dim(), index_t{1} << 15);

      set_num_threads(1);
      EvalWorkspace ref_ws;
      std::vector<double> ref_out(static_cast<std::size_t>(lanes));
      evaluate_batch(plan, ref_ws, betas, gammas, ref_out);

      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        EvalWorkspace ws;
        std::vector<double> out(static_cast<std::size_t>(lanes));
        evaluate_batch(plan, ws, betas, gammas, out);
        for (int l = 0; l < lanes; ++l) {
          EXPECT_EQ(out[l], ref_out[l]) << name << " B=" << lanes
                                        << " threads=" << threads
                                        << " lane " << l;
        }
        // The batch leaves the last lane's final state in ws.psi.
        EXPECT_TRUE(same_bits(ws.psi, ref_ws.psi))
            << name << " B=" << lanes << " threads=" << threads;
      }
    }
  }
  set_num_threads(restore);
}

TEST(EngineQuantizedRoute, EvaluateBitIdenticalToPerElementSweep) {
  // evaluate() hands the plan's phase dictionary and the X mixer's
  // eigenvalue dictionary to every phase sweep; on the fast-sincos backends
  // that takes the quantized route. The reference replays XMixer's p = 2
  // round sequence with no dictionary, i.e. the per-element sweep. The
  // explicit uniform initial state keeps the plan on the full route (a
  // MaxCut plan would otherwise fold; see the folded twin below).
  EngineFixture fx = EngineFixture::make();
  const dvec& dvals = fx.mixer.diagonal();
  const double inv = 1.0 / static_cast<double>(dvals.size());
  const double betas[] = {fx.angles[0], fx.angles[1]};
  const double gammas[] = {fx.angles[2], fx.angles[3]};
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    QaoaPlanOptions full_route;
    full_route.initial_state = testutil::uniform_state(fx.table.size());
    QaoaPlan plan(fx.mixer, fx.table, 2, std::move(full_route));
    ASSERT_FALSE(plan.folded());
    EvalWorkspace ws;
    const double got = evaluate_packed(plan, ws, fx.angles);

    cvec psi = plan.initial_state();
    linalg::phase_wht(psi, plan.phase_values(), gammas[0], 1.0, nullptr);
    linalg::phase_wht(psi, dvals, betas[0], inv, nullptr);
    linalg::phase_wht(psi, plan.phase_values(), gammas[1], 1.0, nullptr);
    const double want = linalg::phase_wht_expect(psi, dvals, betas[1], inv,
                                                 plan.objective(), nullptr);
    EXPECT_TRUE(same_bits(got, want)) << name << " " << got << " vs " << want;
    EXPECT_TRUE(same_bits(ws.psi, psi)) << name;
  }
}

TEST(EngineQuantizedRoute, FoldedEvaluateBitIdenticalToPerElementSweep) {
  // The folded twin: the same MaxCut plan without an initial state folds,
  // and evaluate() runs the round sequence above at half length, through
  // the folded X mixer and the first halves of the tables. The reference
  // replays that sequence by hand with no dictionary.
  EngineFixture fx = EngineFixture::make();
  const XMixer folded = fx.mixer.folded();
  const dvec& dvals = folded.diagonal();
  const double inv = 1.0 / static_cast<double>(dvals.size());
  const double betas[] = {fx.angles[0], fx.angles[1]};
  const double gammas[] = {fx.angles[2], fx.angles[3]};
  for (const std::string& name : kn::available()) {
    BackendGuard g(name);
    ASSERT_TRUE(g.ok());
    QaoaPlan plan(fx.mixer, fx.table, 2);
    ASSERT_TRUE(plan.folded());
    ASSERT_EQ(plan.work_dim(), fx.table.size() / 2);
    EvalWorkspace ws;
    const double got = evaluate_packed(plan, ws, fx.angles);

    const dvec half(fx.table.begin(),
                    fx.table.begin() + static_cast<std::ptrdiff_t>(
                                           plan.work_dim()));
    cvec psi = testutil::uniform_state(plan.work_dim());
    linalg::phase_wht(psi, half, gammas[0], 1.0, nullptr);
    linalg::phase_wht(psi, dvals, betas[0], inv, nullptr);
    linalg::phase_wht(psi, half, gammas[1], 1.0, nullptr);
    const double want =
        linalg::phase_wht_expect(psi, dvals, betas[1], inv, half, nullptr);
    EXPECT_TRUE(same_bits(got, want)) << name << " " << got << " vs " << want;
    EXPECT_TRUE(same_bits(ws.psi, psi)) << name;
  }
}

}  // namespace
}  // namespace fastqaoa
