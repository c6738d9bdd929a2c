#pragma once
/// \file vector_ops.hpp
/// Flat SIMD-friendly kernels on complex amplitude vectors. These are the
/// inner loops of the simulator: fused diagonal-phase application, conjugated
/// dot products, rank-1 updates. All kernels are allocation-free and OpenMP
/// parallel over the vector length.
///
/// Every entry point takes StateRef / ConstStateRef views (spans), so a
/// cvec, a lane of a batch matrix or a raw buffer all bind without a copy.
/// Reductions accumulate fixed-size blocks in block order, so results are
/// bit-identical at every thread count.

#include <cstddef>

#include "common/types.hpp"
#include "linalg/state_ref.hpp"

namespace fastqaoa::linalg {

struct DiagDict;  // linalg/diag_dict.hpp

/// out <- value for every element.
void fill(StateRef v, cplx value);

/// dst_i <- src_i, parallel with the kernels' static schedule. dst must
/// already be sized to src.size() (views cannot grow). Exact (bitwise) copy.
void copy_state(ConstStateRef src, StateRef dst);

/// v <- v * s (complex scale).
void scale(StateRef v, cplx s);

/// y <- y + a * x. x and y must have equal length.
void axpy(cplx a, ConstStateRef x, StateRef y);

/// Conjugated inner product <x|y> = sum_i conj(x_i) * y_i.
[[nodiscard]] cplx dot(ConstStateRef x, ConstStateRef y);

/// Squared 2-norm sum_i |v_i|^2.
[[nodiscard]] double norm_sq(ConstStateRef v);

/// 2-norm.
[[nodiscard]] double norm(ConstStateRef v);

/// Normalize v to unit 2-norm; returns the original norm.
double normalize(StateRef v);

/// psi_i <- exp(-i * angle * d_i) * psi_i — the phase-separator /
/// diagonal-mixer kernel. d holds real eigenvalues (cost values). `dict`,
/// when non-null and valid, is the DiagDict of d: the sweep then computes
/// one sincos per distinct value (bit-identical; see
/// kernels::QuantizedDiag for where the route applies).
void apply_diag_phase(StateRef psi, const dvec& d, double angle,
                      const DiagDict* dict = nullptr);

/// psi_i <- d_i * s * psi_i (real diagonal times real scale), the Hamiltonian
/// analogue of apply_diag_phase used inside mixer apply_ham sandwiches.
void diag_mul(StateRef psi, const dvec& d, double s);

/// psi_i <- exp(-i * angle * d_i) * psi_i restricted to indices where
/// d_i > threshold applies phase -angle, else no phase: the threshold
/// phase separator of Golden et al. [18] uses an indicator cost; this
/// helper applies phase only above the threshold.
void apply_threshold_phase(StateRef psi, const dvec& d, double threshold,
                           double angle);

/// Expectation sum_i d_i * |psi_i|^2 of a diagonal observable.
[[nodiscard]] double diag_expectation(const dvec& d, ConstStateRef psi);

/// Derivative helper: Im( sum_i conj(lambda_i) * d_i * psi_i ), the
/// imaginary part of <lambda| diag(d) |psi>. Used by the adjoint gradient.
[[nodiscard]] double diag_bracket_imag(ConstStateRef lambda, const dvec& d,
                                       ConstStateRef psi);

/// Total probability of states whose cost equals the extremal value
/// (within tol): sum over argmax/argmin of |psi_i|^2.
[[nodiscard]] double probability_at_value(const dvec& d, ConstStateRef psi,
                                          double value, double tol = 1e-12);

/// Maximum |v_i - w_i| over all elements (test helper, but broadly useful).
[[nodiscard]] double max_abs_diff(ConstStateRef v, ConstStateRef w);

}  // namespace fastqaoa::linalg
