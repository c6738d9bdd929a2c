#include "mps/mps_state.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bits/bitops.hpp"
#include "common/error.hpp"
#include "linalg/dense.hpp"
#include "linalg/svd.hpp"

namespace fastqaoa::mps {

namespace {

using linalg::cmat;
using linalg::CSvdResult;

cmat to_matrix(const cvec& flat, index_t rows, index_t cols) {
  cmat m(rows, cols);
  std::copy(flat.begin(), flat.end(), m.data());
  return m;
}

double sq(double x) { return x * x; }

/// Columns a split keeps for free: the tail past the solver's numerical
/// rank is rounding noise (or exact zeros) whose U/V columns are not
/// orthonormal — structural rank, not truncation.
index_t kept_rank(const CSvdResult& f) {
  return std::clamp(f.rank, index_t{1}, f.singular_values.size());
}

}  // namespace

MpsState MpsState::plus_state(index_t n) {
  FASTQAOA_CHECK(n >= 2, "MpsState: need n >= 2");
  MpsState st;
  st.n_ = n;
  st.center_ = 0;
  st.bonds_.assign(n + 1, 1);
  st.tensors_.resize(n);
  const cplx amp{1.0 / std::sqrt(2.0), 0.0};
  for (index_t i = 0; i < n; ++i) st.tensors_[i] = cvec{amp, amp};
  return st;
}

index_t MpsState::max_bond() const {
  return *std::max_element(bonds_.begin(), bonds_.end());
}

void MpsState::apply_phase(index_t site, double angle) {
  FASTQAOA_CHECK(site < n_, "apply_phase: site out of range");
  const index_t dl = bonds_[site];
  const index_t dr = bonds_[site + 1];
  const cplx ph0 = std::exp(cplx{0.0, -angle});  // z = +1 (bit 0)
  const cplx ph1 = std::conj(ph0);               // z = -1 (bit 1)
  cvec& t = tensors_[site];
  for (index_t l = 0; l < dl; ++l) {
    cplx* row0 = t.data() + (l * 2 + 0) * dr;
    cplx* row1 = t.data() + (l * 2 + 1) * dr;
    for (index_t r = 0; r < dr; ++r) {
      row0[r] *= ph0;
      row1[r] *= ph1;
    }
  }
}

void MpsState::apply_rx(index_t site, double beta) {
  FASTQAOA_CHECK(site < n_, "apply_rx: site out of range");
  const index_t dl = bonds_[site];
  const index_t dr = bonds_[site + 1];
  const double c = std::cos(beta);
  const cplx ms{0.0, -std::sin(beta)};  // -i sin(beta)
  cvec& t = tensors_[site];
  for (index_t l = 0; l < dl; ++l) {
    cplx* row0 = t.data() + (l * 2 + 0) * dr;
    cplx* row1 = t.data() + (l * 2 + 1) * dr;
    for (index_t r = 0; r < dr; ++r) {
      const cplx a0 = row0[r];
      const cplx a1 = row1[r];
      row0[r] = c * a0 + ms * a1;
      row1[r] = ms * a0 + c * a1;
    }
  }
}

void MpsState::move_center(index_t target) {
  FASTQAOA_CHECK(target < n_, "move_center: target out of range");
  while (center_ < target) shift_center_right();
  while (center_ > target) shift_center_left();
}

void MpsState::shift_center_right() {
  const index_t c = center_;
  const index_t dl = bonds_[c];
  const index_t dr = bonds_[c + 1];
  // Group the physical leg with the left bond: (dl*2) x dr, the flat layout.
  const CSvdResult f = linalg::svd(to_matrix(tensors_[c], dl * 2, dr));
  const index_t k = kept_rank(f);

  cvec& t = tensors_[c];
  t.assign(dl * 2 * k, cplx{});
  for (index_t row = 0; row < dl * 2; ++row) {
    for (index_t b = 0; b < k; ++b) t[row * k + b] = f.u(row, b);
  }

  // Absorb S V^H into the right neighbour (it becomes the new center).
  const index_t dn = bonds_[c + 2];
  const cvec& old = tensors_[c + 1];  // (dr, 2, dn)
  cvec next(k * 2 * dn, cplx{});
  for (index_t b = 0; b < k; ++b) {
    cplx* dst = next.data() + b * 2 * dn;
    for (index_t r = 0; r < dr; ++r) {
      const cplx carry = f.singular_values[b] * std::conj(f.v(r, b));
      if (carry == cplx{}) continue;
      const cplx* src = old.data() + r * 2 * dn;
      for (index_t j = 0; j < 2 * dn; ++j) dst[j] += carry * src[j];
    }
  }
  tensors_[c + 1] = std::move(next);
  bonds_[c + 1] = k;
  center_ = c + 1;
}

void MpsState::shift_center_left() {
  const index_t c = center_;
  const index_t dl = bonds_[c];
  const index_t dr = bonds_[c + 1];
  // Group the physical leg with the right bond: dl x (2*dr), also the flat
  // layout (row l spans the 2*dr entries (s, r)).
  const CSvdResult f = linalg::svd(to_matrix(tensors_[c], dl, 2 * dr));
  const index_t k = kept_rank(f);

  cvec& t = tensors_[c];
  t.assign(k * 2 * dr, cplx{});
  for (index_t b = 0; b < k; ++b) {
    for (index_t col = 0; col < 2 * dr; ++col) {
      t[b * 2 * dr + col] = std::conj(f.v(col, b));
    }
  }

  // Absorb U S into the left neighbour (it becomes the new center).
  const index_t dp = bonds_[c - 1];
  const cvec& old = tensors_[c - 1];  // (dp, 2, dl)
  cvec prev(dp * 2 * k, cplx{});
  for (index_t row = 0; row < dp * 2; ++row) {
    const cplx* src = old.data() + row * dl;
    cplx* dst = prev.data() + row * k;
    for (index_t l = 0; l < dl; ++l) {
      const cplx coef = src[l];
      if (coef == cplx{}) continue;
      for (index_t b = 0; b < k; ++b) {
        dst[b] += coef * f.u(l, b) * f.singular_values[b];
      }
    }
  }
  tensors_[c - 1] = std::move(prev);
  bonds_[c] = k;
  center_ = c - 1;
}

void MpsState::apply_two_site(index_t bond, const std::array<cplx, 4>& phase,
                              bool swap_sites, index_t leave,
                              const TruncationPolicy& policy,
                              TruncationStats& stats) {
  FASTQAOA_CHECK(bond + 1 < n_, "apply_two_site: bond out of range");
  FASTQAOA_CHECK(center_ == bond || center_ == bond + 1,
                 "apply_two_site: center must sit on the gate");
  FASTQAOA_CHECK(leave == bond || leave == bond + 1,
                 "apply_two_site: bad leave site");
  const index_t dl = bonds_[bond];
  const index_t dm = bonds_[bond + 1];
  const index_t dr = bonds_[bond + 2];
  const cvec& a = tensors_[bond];       // (dl, 2, dm)
  const cvec& bt = tensors_[bond + 1];  // (dm, 2, dr)

  // theta(l, s0, s1, r) = gate * sum_b A(l, sA, b) B(b, sB, r), matricized
  // rows (l*2+s0) x cols (s1*dr+r).
  cmat m(dl * 2, 2 * dr);
  for (index_t l = 0; l < dl; ++l) {
    for (index_t s0 = 0; s0 < 2; ++s0) {
      cplx* out = m.row(l * 2 + s0);
      for (index_t s1 = 0; s1 < 2; ++s1) {
        const index_t sa = swap_sites ? s1 : s0;
        const index_t sb = swap_sites ? s0 : s1;
        const cplx g = phase[s0 * 2 + s1];
        cplx* dst = out + s1 * dr;
        const cplx* arow = a.data() + (l * 2 + sa) * dm;
        for (index_t b = 0; b < dm; ++b) {
          const cplx coef = g * arow[b];
          if (coef == cplx{}) continue;
          const cplx* src = bt.data() + (b * 2 + sb) * dr;
          for (index_t r = 0; r < dr; ++r) dst[r] += coef * src[r];
        }
      }
    }
  }

  const CSvdResult f = linalg::svd(m);
  const index_t k_all = f.singular_values.size();
  double total = 0.0;
  for (index_t j = 0; j < k_all; ++j) total += sq(f.singular_values[j]);

  index_t k = kept_rank(f);

  // Hard cap: always enforced, even past the fidelity budget.
  double dropped = 0.0;
  while (k > policy.max_bond) {
    --k;
    dropped += sq(f.singular_values[k]);
  }
  const bool forced_over_budget =
      dropped > 0.0 && stats.discarded_weight >= policy.fidelity_budget;

  // Soft truncation: drop further tail values while the split's relative
  // discard stays under trunc_tol AND the cumulative discarded weight stays
  // within the fidelity budget.
  while (k > 1) {
    const double cand = dropped + sq(f.singular_values[k - 1]);
    if (total > 0.0 && cand / total <= policy.trunc_tol &&
        stats.discarded_weight + cand / total <= policy.fidelity_budget) {
      dropped = cand;
      --k;
    } else {
      break;
    }
  }

  const double rel = total > 0.0 ? dropped / total : 0.0;
  if (rel > 0.0) {
    ++stats.truncations;
    stats.discarded_weight += rel;
  }
  if (forced_over_budget) ++stats.budget_exhausted;
  stats.max_bond_reached = std::max(stats.max_bond_reached, k);

  // Renormalize the kept spectrum so the state norm survives truncation.
  const double kept = total - dropped;
  const double scale =
      (dropped > 0.0 && kept > 0.0) ? std::sqrt(total / kept) : 1.0;

  cvec& ta = tensors_[bond];
  cvec& tb = tensors_[bond + 1];
  ta.assign(dl * 2 * k, cplx{});
  tb.assign(k * 2 * dr, cplx{});
  if (leave == bond + 1) {
    // A <- U (left-canonical), B <- scale * S V^H (new center).
    for (index_t row = 0; row < dl * 2; ++row) {
      for (index_t b = 0; b < k; ++b) ta[row * k + b] = f.u(row, b);
    }
    for (index_t b = 0; b < k; ++b) {
      const double sv = scale * f.singular_values[b];
      for (index_t col = 0; col < 2 * dr; ++col) {
        tb[b * 2 * dr + col] = sv * std::conj(f.v(col, b));
      }
    }
  } else {
    // A <- U * scale * S (new center), B <- V^H (right-canonical).
    for (index_t row = 0; row < dl * 2; ++row) {
      for (index_t b = 0; b < k; ++b) {
        ta[row * k + b] = f.u(row, b) * (scale * f.singular_values[b]);
      }
    }
    for (index_t b = 0; b < k; ++b) {
      for (index_t col = 0; col < 2 * dr; ++col) {
        tb[b * 2 * dr + col] = std::conj(f.v(col, b));
      }
    }
  }
  bonds_[bond + 1] = k;
  center_ = leave;
}

cvec MpsState::transfer(index_t site, const cvec& env, bool with_z) const {
  const index_t dl = bonds_[site];
  const index_t dr = bonds_[site + 1];
  const cvec& t = tensors_[site];
  cvec out(dl * dl, cplx{});
  cvec tmp(dl * dr);
  for (index_t s = 0; s < 2; ++s) {
    const double w = with_z ? (s == 0 ? 1.0 : -1.0) : 1.0;
    // tmp = B_s * env, with B_s(l, r) = t[(l*2+s)*dr + r].
    for (index_t l = 0; l < dl; ++l) {
      const cplx* brow = t.data() + (l * 2 + s) * dr;
      cplx* trow = tmp.data() + l * dr;
      std::fill(trow, trow + dr, cplx{});
      for (index_t r = 0; r < dr; ++r) {
        const cplx coef = brow[r];
        if (coef == cplx{}) continue;
        const cplx* erow = env.data() + r * dr;
        for (index_t rp = 0; rp < dr; ++rp) trow[rp] += coef * erow[rp];
      }
    }
    // out(l, lp) += w * sum_rp tmp(l, rp) * conj(B_s(lp, rp)).
    for (index_t l = 0; l < dl; ++l) {
      const cplx* trow = tmp.data() + l * dr;
      cplx* orow = out.data() + l * dl;
      for (index_t lp = 0; lp < dl; ++lp) {
        const cplx* brow = t.data() + (lp * 2 + s) * dr;
        cplx acc{};
        for (index_t rp = 0; rp < dr; ++rp) {
          acc += trow[rp] * std::conj(brow[rp]);
        }
        orow[lp] += w * acc;
      }
    }
  }
  return out;
}

double MpsState::trace_term(index_t site, const cvec& env,
                            bool with_z) const {
  const index_t dl = bonds_[site];
  const index_t dr = bonds_[site + 1];
  const cvec& t = tensors_[site];
  cvec trow(dr);
  cplx acc{};
  for (index_t s = 0; s < 2; ++s) {
    const double w = with_z ? (s == 0 ? 1.0 : -1.0) : 1.0;
    for (index_t l = 0; l < dl; ++l) {
      const cplx* brow = t.data() + (l * 2 + s) * dr;
      std::fill(trow.begin(), trow.end(), cplx{});
      for (index_t r = 0; r < dr; ++r) {
        const cplx coef = brow[r];
        if (coef == cplx{}) continue;
        const cplx* erow = env.data() + r * dr;
        for (index_t rp = 0; rp < dr; ++rp) trow[rp] += coef * erow[rp];
      }
      cplx dot{};
      for (index_t rp = 0; rp < dr; ++rp) dot += trow[rp] * std::conj(brow[rp]);
      acc += w * dot;
    }
  }
  return acc.real();
}

double MpsState::norm2() const {
  cvec env{cplx{1.0, 0.0}};
  for (index_t site = n_; site-- > 1;) env = transfer(site, env, false);
  return trace_term(0, env, false);
}

cplx MpsState::amplitude(state_t x) const {
  cvec v{cplx{1.0, 0.0}};
  for (index_t site = 0; site < n_; ++site) {
    const index_t s =
        static_cast<index_t>(bit(x, static_cast<int>(site)));
    const index_t dl = bonds_[site];
    const index_t dr = bonds_[site + 1];
    const cvec& t = tensors_[site];
    cvec next(dr, cplx{});
    for (index_t l = 0; l < dl; ++l) {
      const cplx coef = v[l];
      if (coef == cplx{}) continue;
      const cplx* row = t.data() + (l * 2 + s) * dr;
      for (index_t r = 0; r < dr; ++r) next[r] += coef * row[r];
    }
    v = std::move(next);
  }
  return v[0];
}

double expectation(MpsState& state, const DiagonalHamiltonian& h) {
  FASTQAOA_CHECK(h.n == state.n(), "expectation: Hamiltonian size mismatch");
  const index_t n = state.n_;
  // Left-canonicalize so every left environment is the identity.
  state.move_center(n - 1);

  // Right environments: renv[i] covers sites i+1..n-1 (bond after site i).
  std::vector<cvec> renv(n);
  renv[n - 1] = cvec{cplx{1.0, 0.0}};
  for (index_t i = n - 1; i >= 1; --i) {
    renv[i - 1] = state.transfer(i, renv[i], false);
  }
  const double nrm = state.trace_term(0, renv[0], false);
  FASTQAOA_CHECK(nrm > 0.0, "expectation: zero-norm state");

  double acc = 0.0;
  for (const ZTerm& t : h.z_terms) {
    acc += t.coeff * state.trace_term(t.site, renv[t.site], true);
  }

  // ZZ terms grouped by right endpoint: one Z-insertion at v, then a single
  // leftward identity propagation serves every partner u < v.
  std::vector<std::vector<const ZZTerm*>> by_v(n);
  for (const ZZTerm& t : h.zz_terms) by_v[t.v].push_back(&t);
  for (index_t v = 0; v < n; ++v) {
    if (by_v[v].empty()) continue;
    std::vector<const ZZTerm*> partners = by_v[v];
    std::sort(partners.begin(), partners.end(),
              [](const ZZTerm* a, const ZZTerm* b) { return a->u > b->u; });
    cvec env = state.transfer(v, renv[v], true);
    index_t cur = v;  // env covers the bond before site `cur`
    for (const ZZTerm* t : partners) {
      while (cur > t->u + 1) {
        --cur;
        env = state.transfer(cur, env, false);
      }
      acc += t->coeff * state.trace_term(t->u, env, true);
    }
  }
  return h.constant + acc / nrm;
}

}  // namespace fastqaoa::mps
