#include "mps/mps_state.hpp"

#include <algorithm>
#include <array>
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

double sq(double x) { return x * x; }

/// Charges of a bond leg grouped with a physical leg into one matrix index:
/// site-minor (x*2 + s, the left grouping) or site-major (s*D + x, the
/// right one). The combined charge is q_x + s (mod 2).
Charges with_site(const Charges& q, bool site_major) {
  const index_t d = q.size();
  Charges out(2 * d);
  for (index_t x = 0; x < d; ++x) {
    for (std::uint8_t s = 0; s < 2; ++s) {
      out[site_major ? s * d + x : x * 2 + s] = q[x] ^ s;
    }
  }
  return out;
}

/// SVD of a row-major matrix whose entry (i, j) is zero unless
/// row_q[i] == col_q[j]: one linalg::svd per charge block, the blocks'
/// spectra merged.
class BlockSvd {
 public:
  BlockSvd(const cplx* a, const Charges& row_q, const Charges& col_q)
      : cols_(col_q.size()) {
    for (index_t i = 0; i < row_q.size(); ++i) {
      blocks_[row_q[i]].rows.push_back(i);
    }
    for (index_t j = 0; j < cols_; ++j) blocks_[col_q[j]].cols.push_back(j);
    for (std::uint8_t q = 0; q < 2; ++q) {
      Block& b = blocks_[q];
      if (b.rows.empty() || b.cols.empty()) continue;
      cmat m(b.rows.size(), b.cols.size());
      for (index_t i = 0; i < b.rows.size(); ++i) {
        const cplx* src = a + b.rows[i] * cols_;
        cplx* dst = m.row(i);
        for (index_t j = 0; j < b.cols.size(); ++j) dst[j] = src[b.cols[j]];
      }
      b.f = linalg::svd(m);
      const dvec& sv = b.f.singular_values;
      for (index_t j = 0; j < sv.size(); ++j) {
        total_ += sq(sv[j]);
        if (j < b.f.rank) spectrum_.push_back({sv[j], q, j});
      }
    }
    FASTQAOA_CHECK(!spectrum_.empty(), "MpsState: split of a zero matrix");
    std::sort(spectrum_.begin(), spectrum_.end(),
              [](const Value& x, const Value& y) {
                if (x.sigma != y.sigma) return x.sigma > y.sigma;
                return x.q != y.q ? x.q < y.q : x.j < y.j;
              });
  }

  /// Values within their block's numerical rank (never none), descending;
  /// the tail past each block's rank is structural and dropped for free.
  [[nodiscard]] index_t rank() const { return spectrum_.size(); }
  [[nodiscard]] double sigma(index_t t) const { return spectrum_[t].sigma; }
  /// Sum of every squared singular value, rank tails included.
  [[nodiscard]] double total() const { return total_; }

  /// Charges of the new bond kept at the leading k values.
  [[nodiscard]] Charges charges(index_t k) const {
    Charges q(k);
    for (index_t t = 0; t < k; ++t) q[t] = spectrum_[t].q;
    return q;
  }

  /// U for the leading k values into `out` (rows x k, row-major,
  /// pre-zeroed); column t is scaled by scale * sigma_t when `absorb`.
  void left(cplx* out, index_t k, bool absorb, double scale) const {
    for (index_t t = 0; t < k; ++t) {
      const Value& v = spectrum_[t];
      const Block& b = blocks_[v.q];
      const double w = absorb ? scale * v.sigma : 1.0;
      for (index_t i = 0; i < b.rows.size(); ++i) {
        out[b.rows[i] * k + t] = b.f.u(i, v.j) * w;
      }
    }
  }

  /// V^H for the leading k values into `out` (k x cols, row-major,
  /// pre-zeroed); row t is scaled by scale * sigma_t when `absorb`.
  void right(cplx* out, index_t k, bool absorb, double scale) const {
    for (index_t t = 0; t < k; ++t) {
      const Value& v = spectrum_[t];
      const Block& b = blocks_[v.q];
      const double w = absorb ? scale * v.sigma : 1.0;
      cplx* row = out + t * cols_;
      for (index_t j = 0; j < b.cols.size(); ++j) {
        row[b.cols[j]] = w * std::conj(b.f.v(j, v.j));
      }
    }
  }

 private:
  struct Block {
    std::vector<index_t> rows;  ///< matrix rows of this charge
    std::vector<index_t> cols;  ///< matrix columns of this charge
    CSvdResult f;
  };
  struct Value {
    double sigma;
    std::uint8_t q;  ///< block charge
    index_t j;       ///< column of the block's factors
  };

  index_t cols_;
  std::array<Block, 2> blocks_;
  std::vector<Value> spectrum_;
  double total_ = 0.0;
};

}  // namespace

MpsState MpsState::plus_state(index_t n) {
  FASTQAOA_CHECK(n >= 2, "MpsState: need n >= 2");
  MpsState st;
  st.n_ = n;
  st.center_ = 0;
  st.bonds_.assign(n + 1, 1);
  st.charges_.assign(n + 1, Charges{0});
  st.tensors_.assign(n, cvec{cplx{1.0, 0.0}, cplx{}});  // |+> is s = 0
  return st;
}

index_t MpsState::max_bond() const {
  return *std::max_element(bonds_.begin(), bonds_.end());
}

void MpsState::apply_rx(index_t site, double beta) {
  FASTQAOA_CHECK(site < n_, "apply_rx: site out of range");
  const index_t dl = bonds_[site];
  const index_t dr = bonds_[site + 1];
  const cplx ph0 = std::exp(cplx{0.0, -beta});  // X = +1 (|+>)
  const cplx ph1 = std::conj(ph0);              // X = -1 (|->)
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
  const BlockSvd f(tensors_[c].data(), with_site(charges_[c], false),
                   charges_[c + 1]);
  const index_t k = f.rank();

  cvec& t = tensors_[c];
  t.assign(dl * 2 * k, cplx{});
  f.left(t.data(), k, false, 1.0);

  // Absorb S V^H into the right neighbour (it becomes the new center).
  cvec svh(k * dr, cplx{});
  f.right(svh.data(), k, true, 1.0);
  const index_t dn = bonds_[c + 2];
  const cvec& old = tensors_[c + 1];  // (dr, 2, dn)
  cvec next(k * 2 * dn, cplx{});
  for (index_t b = 0; b < k; ++b) {
    cplx* dst = next.data() + b * 2 * dn;
    for (index_t r = 0; r < dr; ++r) {
      const cplx carry = svh[b * dr + r];
      if (carry == cplx{}) continue;
      const cplx* src = old.data() + r * 2 * dn;
      for (index_t j = 0; j < 2 * dn; ++j) dst[j] += carry * src[j];
    }
  }
  tensors_[c + 1] = std::move(next);
  bonds_[c + 1] = k;
  charges_[c + 1] = f.charges(k);
  center_ = c + 1;
}

void MpsState::shift_center_left() {
  const index_t c = center_;
  const index_t dl = bonds_[c];
  const index_t dr = bonds_[c + 1];
  // Group the physical leg with the right bond: dl x (2*dr), also the flat
  // layout (row l spans the 2*dr entries (s, r)).
  const BlockSvd f(tensors_[c].data(), charges_[c],
                   with_site(charges_[c + 1], true));
  const index_t k = f.rank();

  cvec& t = tensors_[c];
  t.assign(k * 2 * dr, cplx{});
  f.right(t.data(), k, false, 1.0);

  // Absorb U S into the left neighbour (it becomes the new center).
  cvec us(dl * k, cplx{});
  f.left(us.data(), k, true, 1.0);
  const index_t dp = bonds_[c - 1];
  const cvec& old = tensors_[c - 1];  // (dp, 2, dl)
  cvec prev(dp * 2 * k, cplx{});
  for (index_t row = 0; row < dp * 2; ++row) {
    const cplx* src = old.data() + row * dl;
    cplx* dst = prev.data() + row * k;
    for (index_t l = 0; l < dl; ++l) {
      const cplx coef = src[l];
      if (coef == cplx{}) continue;
      const cplx* urow = us.data() + l * k;
      for (index_t b = 0; b < k; ++b) dst[b] += coef * urow[b];
    }
  }
  tensors_[c - 1] = std::move(prev);
  bonds_[c] = k;
  charges_[c] = f.charges(k);
  center_ = c - 1;
}

void MpsState::apply_two_site(index_t bond, double angle, bool swap_sites,
                              index_t leave, const TruncationPolicy& policy,
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

  // theta(l, s0, s1, r) = sum_b A(l, sA, b) B(b, sB, r), matricized
  // rows (l*2+s0) x cols (s1*dr+r).
  cmat m(dl * 2, 2 * dr);
  for (index_t l = 0; l < dl; ++l) {
    for (index_t s0 = 0; s0 < 2; ++s0) {
      cplx* out = m.row(l * 2 + s0);
      for (index_t s1 = 0; s1 < 2; ++s1) {
        const index_t sa = swap_sites ? s1 : s0;
        const index_t sb = swap_sites ? s0 : s1;
        cplx* dst = out + s1 * dr;
        const cplx* arow = a.data() + (l * 2 + sa) * dm;
        for (index_t b = 0; b < dm; ++b) {
          const cplx coef = arow[b];
          if (coef == cplx{}) continue;
          const cplx* src = bt.data() + (b * 2 + sb) * dr;
          for (index_t r = 0; r < dr; ++r) dst[r] += coef * src[r];
        }
      }
    }
  }
  if (angle != 0.0) {
    // e^{-i angle Z Z} = cos I - i sin F (x) F: entry (l, s0, s1, r) mixes
    // with (l, 1-s0, 1-s1, r), i.e. row l*2 column j with row l*2+1 column
    // j +- dr.
    const double c = std::cos(angle);
    const cplx ms{0.0, -std::sin(angle)};
    for (index_t l = 0; l < dl; ++l) {
      cplx* row0 = m.row(l * 2);
      cplx* row1 = m.row(l * 2 + 1);
      for (index_t j = 0; j < 2 * dr; ++j) {
        const index_t jf = j < dr ? j + dr : j - dr;
        const cplx x = row0[j];
        const cplx y = row1[jf];
        row0[j] = c * x + ms * y;
        row1[jf] = c * y + ms * x;
      }
    }
  }

  const BlockSvd f(m.data(), with_site(charges_[bond], false),
                   with_site(charges_[bond + 2], true));
  const double total = f.total();
  index_t k = f.rank();

  // Hard cap: always enforced, even past the fidelity budget.
  double dropped = 0.0;
  while (k > policy.max_bond) {
    --k;
    dropped += sq(f.sigma(k));
  }
  const bool forced_over_budget =
      dropped > 0.0 && stats.discarded_weight >= policy.fidelity_budget;

  // Soft truncation: drop further tail values while the split's relative
  // discard stays under trunc_tol AND the cumulative discarded weight stays
  // within the fidelity budget.
  while (k > 1) {
    const double cand = dropped + sq(f.sigma(k - 1));
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

  // leave == bond + 1: A <- U (left-canonical), B <- scale * S V^H (new
  // center). leave == bond: A <- U * scale * S (new center), B <- V^H
  // (right-canonical).
  cvec& ta = tensors_[bond];
  cvec& tb = tensors_[bond + 1];
  ta.assign(dl * 2 * k, cplx{});
  tb.assign(k * 2 * dr, cplx{});
  f.left(ta.data(), k, leave == bond, scale);
  f.right(tb.data(), k, leave == bond + 1, scale);
  bonds_[bond + 1] = k;
  charges_[bond + 1] = f.charges(k);
  center_ = leave;
}

cvec MpsState::transfer(index_t site, const cvec& env, bool with_z) const {
  const index_t dl = bonds_[site];
  const index_t dr = bonds_[site + 1];
  const cvec& t = tensors_[site];
  cvec out(dl * dl, cplx{});
  cvec tmp(dl * dr);
  for (index_t s = 0; s < 2; ++s) {
    const index_t sb = with_z ? 1 - s : s;  // the bra's physical index
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
    // out(l, lp) += sum_rp tmp(l, rp) * conj(B_sb(lp, rp)).
    for (index_t l = 0; l < dl; ++l) {
      const cplx* trow = tmp.data() + l * dr;
      cplx* orow = out.data() + l * dl;
      for (index_t lp = 0; lp < dl; ++lp) {
        const cplx* brow = t.data() + (lp * 2 + sb) * dr;
        cplx acc{};
        for (index_t rp = 0; rp < dr; ++rp) {
          acc += trow[rp] * std::conj(brow[rp]);
        }
        orow[lp] += acc;
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
    const index_t sb = with_z ? 1 - s : s;  // the bra's physical index
    for (index_t l = 0; l < dl; ++l) {
      const cplx* brow = t.data() + (l * 2 + s) * dr;
      std::fill(trow.begin(), trow.end(), cplx{});
      for (index_t r = 0; r < dr; ++r) {
        const cplx coef = brow[r];
        if (coef == cplx{}) continue;
        const cplx* erow = env.data() + r * dr;
        for (index_t rp = 0; rp < dr; ++rp) trow[rp] += coef * erow[rp];
      }
      const cplx* bra = t.data() + (l * 2 + sb) * dr;
      cplx dot{};
      for (index_t rp = 0; rp < dr; ++rp) dot += trow[rp] * std::conj(bra[rp]);
      acc += dot;
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
  // <z|+> = 1/sqrt(2), <z|-> = (-1)^z / sqrt(2).
  const double h = 1.0 / std::sqrt(2.0);
  cvec v{cplx{1.0, 0.0}};
  for (index_t site = 0; site < n_; ++site) {
    const double sign = bit(x, static_cast<int>(site)) ? -h : h;
    const index_t dl = bonds_[site];
    const index_t dr = bonds_[site + 1];
    const cvec& t = tensors_[site];
    cvec next(dr, cplx{});
    for (index_t l = 0; l < dl; ++l) {
      const cplx coef = v[l];
      if (coef == cplx{}) continue;
      const cplx* row0 = t.data() + (l * 2 + 0) * dr;
      const cplx* row1 = t.data() + (l * 2 + 1) * dr;
      for (index_t r = 0; r < dr; ++r) {
        next[r] += coef * (h * row0[r] + sign * row1[r]);
      }
    }
    v = std::move(next);
  }
  return v[0];
}

double expectation(MpsState& state, const DiagonalHamiltonian& h) {
  FASTQAOA_CHECK(h.n == state.n(), "expectation: Hamiltonian size mismatch");
  FASTQAOA_CHECK(h.z_terms.empty(),
                 "expectation: linear Z terms break the parity symmetry");
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

  // ZZ terms grouped by right endpoint: one Z-insertion at v, then a single
  // leftward identity propagation serves every partner u < v.
  double acc = 0.0;
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
