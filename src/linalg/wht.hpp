#pragma once
/// \file wht.hpp
/// Fast Walsh–Hadamard transform.
///
/// H^{⊗n} diagonalizes every mixer built from sums of products of Pauli-X
/// (HZH = X, Eq. 2 of the paper), so applying an X-type mixer exponential is
/// WHT -> elementwise phase -> WHT. The *unnormalized* transform applied
/// twice equals 2^n * identity; callers fold the single 1/2^n scale into an
/// adjacent elementwise pass instead of paying two 1/sqrt(2^n) scalings.
///
/// All single-state entry points take a StateRef (a span over the
/// amplitudes) and dispatch to the blocked kernel drivers of the active
/// backend (linalg/kernels/kernels.hpp).

#include "common/types.hpp"
#include "linalg/state_ref.hpp"

namespace fastqaoa::linalg {

struct DiagDict;  // linalg/diag_dict.hpp

/// In-place unnormalized Walsh–Hadamard transform of a length-2^n vector:
/// v'_x = sum_y (-1)^{popcount(x & y)} v_y.
/// Complexity O(n 2^n); cache-blocked butterflies, OpenMP parallel.
void wht_unnormalized(StateRef v);

/// In-place orthonormal transform H^{⊗n} (unnormalized WHT scaled by
/// 2^{-n/2}). Self-inverse.
void wht_orthonormal(StateRef v);

/// Fused diag-phase -> WHT: v_i *= scale * exp(-i * angle * d_i), then the
/// unnormalized WHT, in one pass over the data. The phase (and the folded
/// 1/2^n normalization of the surrounding mixer sandwich) is applied per
/// cache block right before that block's butterflies, so the vector is
/// streamed once instead of twice. `dict`, when non-null and valid, is the
/// DiagDict of d: the sweep then computes one sincos per distinct value
/// (bit-identical; see kernels::QuantizedDiag for where the route applies).
void phase_wht(StateRef v, const dvec& d, double angle, double scale,
               const DiagDict* dict = nullptr);

/// Unnormalized WHT with sum_i obj_i |v_i|^2 fused into the final butterfly
/// pass (the expectation epilogue of evaluate()).
double wht_expect(StateRef v, const dvec& obj);

/// phase_wht followed by the fused expectation: the complete final QAOA
/// round (phase, mixer half, expectation) in two passes over the vector.
/// `dict` as for phase_wht.
double phase_wht_expect(StateRef v, const dvec& d, double angle, double scale,
                        const dvec& obj, const DiagDict* dict = nullptr);

/// True iff sz is a power of two (and non-zero).
bool is_power_of_two(index_t sz);

/// log2 of a power-of-two size.
int log2_exact(index_t sz);

}  // namespace fastqaoa::linalg
