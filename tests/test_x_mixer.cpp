// Unit tests for X-type mixers: the Walsh–Hadamard diagonal frame must
// reproduce the exact matrix exponential of the Pauli-sum Hamiltonian.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "bits/bitops.hpp"
#include "bits/combinatorics.hpp"
#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "mixers/x_mixer.hpp"
#include "test_util.hpp"

namespace fastqaoa {
namespace {

/// Dense matrix of sum_t w_t prod_{i in mask_t} X_i on the full basis.
linalg::cmat dense_x_hamiltonian(int n, const std::vector<PauliXTerm>& terms) {
  const index_t dim = index_t{1} << n;
  linalg::cmat h(dim, dim);
  for (const PauliXTerm& t : terms) {
    // prod X_i flips exactly the bits in the mask: <y|term|x> = w when
    // y == x ^ mask.
    for (index_t x = 0; x < dim; ++x) {
      h(x ^ t.mask, x) += t.weight;
    }
  }
  return h;
}

TEST(XMixer, DiagonalMatchesDefinition) {
  const int n = 5;
  std::vector<PauliXTerm> terms = {{0b00011, 1.5}, {0b10100, -0.5}};
  XMixer mixer(n, terms);
  ASSERT_EQ(mixer.diagonal().size(), 32u);
  for (state_t z = 0; z < 32; ++z) {
    const double expected =
        1.5 * z_sign(z, 0b00011) - 0.5 * z_sign(z, 0b10100);
    EXPECT_DOUBLE_EQ(mixer.diagonal()[z], expected);
  }
}

TEST(XMixer, TransverseFieldDiagonalIsNMinus2Weight) {
  // sum_i Z_i has diagonal n - 2*popcount(z).
  const int n = 6;
  XMixer mixer = XMixer::transverse_field(n);
  for (state_t z = 0; z < 64; ++z) {
    EXPECT_DOUBLE_EQ(mixer.diagonal()[z],
                     static_cast<double>(n - 2 * popcount(z)));
  }
}

TEST(XMixer, TransverseFieldBitIdenticalToTermSum) {
  // The closed-form diagonal must not move a single bit against the generic
  // term-summing constructor, or every cached tf plan would change.
  for (int n = 1; n <= 16; ++n) {
    const XMixer fast = XMixer::transverse_field(n);
    const XMixer summed(n, fast.terms());
    ASSERT_EQ(fast.diagonal().size(), summed.diagonal().size()) << "n=" << n;
    EXPECT_EQ(std::memcmp(fast.diagonal().data(), summed.diagonal().data(),
                          fast.diagonal().size() * sizeof(double)),
              0)
        << "n=" << n;
    EXPECT_EQ(fast.name(), "transverse-field");
    ASSERT_EQ(fast.terms().size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(fast.terms()[i], (PauliXTerm{state_t{1} << i, 1.0}));
    }
  }
}

TEST(XMixer, ApplyExpMatchesDenseExponential) {
  Rng rng(1);
  const int n = 4;
  std::vector<PauliXTerm> terms = {{0b0001, 1.0}, {0b0110, 0.7},
                                   {0b1111, -0.3}};
  XMixer mixer(n, terms);
  const linalg::cmat h = dense_x_hamiltonian(n, terms);

  for (const double beta : {0.0, 0.3, 1.2, -2.5}) {
    const linalg::cmat u = testutil::exp_minus_i_beta(h, beta);
    cvec psi = testutil::random_state(16, rng);
    cvec expected = testutil::matvec(u, psi);
    cvec scratch;
    mixer.apply_exp(psi, beta, scratch);
    EXPECT_LT(testutil::max_diff(psi, expected), 1e-10) << "beta=" << beta;
  }
}

TEST(XMixer, TransverseFieldMatchesProductOfRotations) {
  // e^{-i beta sum X_i} |0...0> has amplitude
  // prod over qubits of (cos beta or -i sin beta).
  const int n = 3;
  XMixer mixer = XMixer::transverse_field(n);
  const double beta = 0.8;
  cvec psi(8, cplx{0.0, 0.0});
  psi[0] = cplx{1.0, 0.0};
  cvec scratch;
  mixer.apply_exp(psi, beta, scratch);
  const cplx c{std::cos(beta), 0.0};
  const cplx s{0.0, -std::sin(beta)};
  for (state_t x = 0; x < 8; ++x) {
    cplx expected{1.0, 0.0};
    for (int q = 0; q < n; ++q) expected *= bit(x, q) ? s : c;
    EXPECT_NEAR(std::abs(psi[x] - expected), 0.0, 1e-12);
  }
}

TEST(XMixer, PreservesNorm) {
  Rng rng(2);
  XMixer mixer = XMixer::transverse_field(7);
  cvec psi = testutil::random_state(128, rng);
  cvec scratch;
  mixer.apply_exp(psi, 1.7, scratch);
  EXPECT_NEAR(linalg::norm(psi), 1.0, 1e-12);
}

TEST(XMixer, ExpOfZeroBetaIsIdentity) {
  Rng rng(3);
  XMixer mixer = XMixer::transverse_field(5);
  cvec psi = testutil::random_state(32, rng);
  cvec orig = psi;
  cvec scratch;
  mixer.apply_exp(psi, 0.0, scratch);
  EXPECT_LT(testutil::max_diff(psi, orig), 1e-12);
}

TEST(XMixer, InverseUndoesForward) {
  Rng rng(4);
  XMixer mixer = XMixer::transverse_field(6);
  cvec psi = testutil::random_state(64, rng);
  cvec orig = psi;
  cvec scratch;
  mixer.apply_exp(psi, 0.9, scratch);
  mixer.apply_exp(psi, -0.9, scratch);
  EXPECT_LT(testutil::max_diff(psi, orig), 1e-11);
}

TEST(XMixer, ApplyHamMatchesDenseHamiltonian) {
  Rng rng(5);
  const int n = 4;
  std::vector<PauliXTerm> terms = {{0b0011, 0.5}, {0b1000, 2.0}};
  XMixer mixer(n, terms);
  const linalg::cmat h = dense_x_hamiltonian(n, terms);
  cvec psi = testutil::random_state(16, rng);
  cvec out(psi.size()), scratch;
  mixer.apply_ham(psi, out, scratch);
  cvec expected = testutil::matvec(h, psi);
  EXPECT_LT(testutil::max_diff(out, expected), 1e-11);
}

TEST(XMixer, FromOrdersMatchesExplicitTerms) {
  // Krawtchouk-evaluated diagonal must equal brute-force term evaluation.
  const int n = 7;
  for (const auto& orders : std::vector<std::vector<int>>{
           {1}, {2}, {3}, {1, 2}, {1, 3}, {7}}) {
    XMixer fast = XMixer::from_orders(n, orders);
    std::vector<PauliXTerm> terms;
    for (int r : orders) {
      for_each_weight_k(n, r, [&](state_t m) { terms.push_back({m, 1.0}); });
    }
    XMixer direct(n, terms);
    for (state_t z = 0; z < (state_t{1} << n); ++z) {
      EXPECT_NEAR(fast.diagonal()[z], direct.diagonal()[z], 1e-9)
          << "orders[0]=" << orders[0] << " z=" << z;
    }
  }
}

TEST(XMixer, FromOrdersGroverLikeAllOrders) {
  // Order-1 mixer on 1 qubit is X itself: diagonal (1, -1).
  XMixer m = XMixer::from_orders(1, {1});
  EXPECT_DOUBLE_EQ(m.diagonal()[0], 1.0);
  EXPECT_DOUBLE_EQ(m.diagonal()[1], -1.0);
}

TEST(XMixer, ValidatesInput) {
  EXPECT_THROW(XMixer(3, {{0b11111, 1.0}}), Error);  // mask exceeds n
  EXPECT_THROW(XMixer::from_orders(4, {}), Error);
  EXPECT_THROW(XMixer::from_orders(4, {5}), Error);
  XMixer mixer = XMixer::transverse_field(4);
  cvec wrong(8);
  cvec scratch;
  EXPECT_THROW(mixer.apply_exp(wrong, 0.1, scratch), Error);
}

TEST(XMixer, InitialStateIsUniform) {
  XMixer mixer = XMixer::transverse_field(4);
  cvec psi;
  mixer.initial_state(psi);
  ASSERT_EQ(psi.size(), 16u);
  for (const auto& a : psi) {
    EXPECT_NEAR(std::abs(a - cplx{0.25, 0.0}), 0.0, 1e-14);
  }
}

}  // namespace
}  // namespace fastqaoa
