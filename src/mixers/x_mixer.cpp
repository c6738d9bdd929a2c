#include "mixers/x_mixer.hpp"

#include <cmath>

#include "bits/bitops.hpp"
#include "bits/combinatorics.hpp"
#include "common/error.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/wht.hpp"

namespace fastqaoa {

namespace {

std::string order_name(const std::vector<int>& orders) {
  std::string s = "X-mixer(orders=";
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(orders[i]);
  }
  s += ')';
  return s;
}

}  // namespace

XMixer::XMixer(int n, std::vector<PauliXTerm> terms, dvec dvals,
               std::string name)
    : n_(n),
      terms_(std::move(terms)),
      dvals_(std::move(dvals)),
      ddict_(linalg::build_diag_dict(dvals_)),
      name_(std::move(name)) {}

XMixer::XMixer(int n, std::vector<PauliXTerm> terms)
    : n_(n), terms_(std::move(terms)), name_("X-mixer") {
  FASTQAOA_CHECK(n >= 1 && n <= 30, "XMixer: need 1 <= n <= 30");
  const index_t size = index_t{1} << n;
  for (const PauliXTerm& t : terms_) {
    FASTQAOA_CHECK((t.mask >> n) == 0, "XMixer: term mask exceeds n bits");
  }
  dvals_.assign(size, 0.0);
  const std::ptrdiff_t sz = static_cast<std::ptrdiff_t>(size);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t z = 0; z < sz; ++z) {
    double d = 0.0;
    for (const PauliXTerm& t : terms_) {
      d += t.weight * z_sign(static_cast<state_t>(z), t.mask);
    }
    dvals_[static_cast<index_t>(z)] = d;
  }
  ddict_ = linalg::build_diag_dict(dvals_);
}

XMixer XMixer::transverse_field(int n) {
  // from_orders' popcount route gives d(z) = n - 2 popcount(z) in O(2^n);
  // every partial sum is an integer, so the diagonal is bit-identical to the
  // O(n 2^n) term sum, and the term list is the same (1 << i, ascending).
  XMixer m = from_orders(n, {1});
  m.name_ = "transverse-field";
  return m;
}

XMixer XMixer::from_orders(int n, const std::vector<int>& orders) {
  FASTQAOA_CHECK(n >= 1 && n <= 30, "XMixer: need 1 <= n <= 30");
  FASTQAOA_CHECK(!orders.empty(), "XMixer::from_orders: no orders given");
  // Krawtchouk evaluation: the diagonal value at z depends only on
  // m = popcount(z):  sum_{|S|=r} (-1)^{|z & S|}
  //                 = sum_j (-1)^j C(m, j) C(n-m, r-j) = K_r(m; n).
  BinomialTable binom(n);
  std::vector<double> by_weight(static_cast<std::size_t>(n) + 1, 0.0);
  for (const int r : orders) {
    FASTQAOA_CHECK(r >= 1 && r <= n, "XMixer::from_orders: order out of range");
    for (int m = 0; m <= n; ++m) {
      double k = 0.0;
      for (int j = 0; j <= r; ++j) {
        const double term = static_cast<double>(binom(m, j)) *
                            static_cast<double>(binom(n - m, r - j));
        k += (j % 2 == 0) ? term : -term;
      }
      by_weight[static_cast<std::size_t>(m)] += k;
    }
  }
  const index_t size = index_t{1} << n;
  dvec dvals(size, 0.0);
  const std::ptrdiff_t sz = static_cast<std::ptrdiff_t>(size);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t z = 0; z < sz; ++z) {
    dvals[static_cast<index_t>(z)] =
        by_weight[static_cast<std::size_t>(popcount(static_cast<state_t>(z)))];
  }
  // Materialize the term list as documentation/metadata (weight-r subsets),
  // unless the subset count is impractically large — the diagonal above is
  // all the simulation needs.
  std::vector<PauliXTerm> terms;
  std::uint64_t total_terms = 0;
  for (const int r : orders) total_terms += binom(n, r);
  if (total_terms <= 100000) {
    terms.reserve(total_terms);
    for (const int r : orders) {
      for_each_weight_k(n, r,
                        [&terms](state_t s) { terms.push_back({s, 1.0}); });
    }
  }
  return XMixer(n, std::move(terms), std::move(dvals), order_name(orders));
}

XMixer XMixer::folded() const {
  FASTQAOA_CHECK(n_ >= 2, "XMixer::folded: need n >= 2");
  const state_t full = (state_t{1} << n_) - 1;
  const state_t top = state_t{1} << (n_ - 1);
  std::vector<PauliXTerm> terms;
  terms.reserve(terms_.size());
  for (const PauliXTerm& t : terms_) {
    terms.push_back({(t.mask & top) != 0 ? t.mask ^ full : t.mask, t.weight});
  }
  dvec dvals(dvals_.size() / 2);
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(dvals.size());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t y = 0; y < half; ++y) {
    const auto s = static_cast<state_t>(y);
    dvals[static_cast<index_t>(y)] = dvals_[s | (parity(s) != 0 ? top : 0)];
  }
  return XMixer(n_ - 1, std::move(terms), std::move(dvals), name_);
}

void XMixer::apply_exp(StateRef psi, double beta, cvec& scratch) const {
  (void)scratch;  // WHT is in-place; no workspace needed.
  FASTQAOA_CHECK(psi.size() == dvals_.size(), "XMixer: state size mismatch");
  linalg::wht_unnormalized(psi);
  // The second transform absorbs the mixer phase — and the single 1/2^n
  // normalization of the two unnormalized WHTs — into its pre-pass.
  const double inv = 1.0 / static_cast<double>(dvals_.size());
  linalg::phase_wht(psi, dvals_, beta, inv, &ddict_);
}

void XMixer::apply_phase_exp(StateRef psi, const dvec& phase,
                             const linalg::DiagDict* phase_dict, double gamma,
                             double beta, cvec& scratch) const {
  (void)scratch;
  FASTQAOA_CHECK(psi.size() == dvals_.size(), "XMixer: state size mismatch");
  // Phase separator rides the first WHT's pre-pass; mixer phase and 1/2^n
  // ride the second's. Two streams over the vector for the whole round.
  const double inv = 1.0 / static_cast<double>(dvals_.size());
  linalg::phase_wht(psi, phase, gamma, 1.0, phase_dict);
  linalg::phase_wht(psi, dvals_, beta, inv, &ddict_);
}

double XMixer::apply_phase_exp_expect(StateRef psi, const dvec& phase,
                                      const linalg::DiagDict* phase_dict,
                                      double gamma, double beta,
                                      const dvec& obj, cvec& scratch) const {
  (void)scratch;
  FASTQAOA_CHECK(psi.size() == dvals_.size(), "XMixer: state size mismatch");
  FASTQAOA_CHECK(obj.size() == dvals_.size(), "XMixer: objective mismatch");
  const double inv = 1.0 / static_cast<double>(dvals_.size());
  linalg::phase_wht(psi, phase, gamma, 1.0, phase_dict);
  return linalg::phase_wht_expect(psi, dvals_, beta, inv, obj, &ddict_);
}

double XMixer::adjoint_step(StateRef psi, StateRef lambda, const dvec* phase,
                            const linalg::DiagDict* phase_dict,
                            double pending_gamma, double beta, cvec& scratch,
                            cvec& hpsi) const {
  (void)scratch;
  (void)hpsi;  // the bracket is taken in the frame; H_M psi is never formed
  FASTQAOA_CHECK(psi.size() == dvals_.size() && lambda.size() == dvals_.size(),
                 "XMixer: state size mismatch");
  // Into the Hadamard frame: psi^ = WHT(psi), lambda^ = WHT(lambda), with
  // the pending phase unapplied in each transform's pre-pass.
  if (phase != nullptr) {
    linalg::phase_wht(psi, *phase, -pending_gamma, 1.0, phase_dict);
    linalg::phase_wht(lambda, *phase, -pending_gamma, 1.0, phase_dict);
  } else {
    linalg::wht_unnormalized(psi);
    linalg::wht_unnormalized(lambda);
  }
  // <lambda| H_M |psi> = <lambda^| diag(d) |psi^> / 2^n.
  const double inv = 1.0 / static_cast<double>(dvals_.size());
  const double grad =
      2.0 * inv * linalg::diag_bracket_imag(lambda, dvals_, psi);
  // Back out: e^{+i beta d} and the 1/2^n of the WHT pair ride the
  // pre-pass of the second transform, as in apply_exp.
  linalg::phase_wht(psi, dvals_, -beta, inv, &ddict_);
  linalg::phase_wht(lambda, dvals_, -beta, inv, &ddict_);
  return grad;
}

void XMixer::apply_ham(ConstStateRef in, StateRef out, cvec& scratch) const {
  (void)scratch;
  FASTQAOA_CHECK(in.size() == dvals_.size(), "XMixer: state size mismatch");
  FASTQAOA_CHECK(out.size() == dvals_.size(),
                 "XMixer: apply_ham output must be presized");
  linalg::copy_state(in, out);
  linalg::wht_unnormalized(out);
  const double inv = 1.0 / static_cast<double>(dvals_.size());
  linalg::diag_mul(out, dvals_, inv);
  linalg::wht_unnormalized(out);
}

}  // namespace fastqaoa
