#pragma once
/// \file kernels.hpp
/// Runtime-dispatched kernel backend layer.
///
/// Every hot loop of the engine — the Walsh–Hadamard butterflies, the
/// diagonal phase sweep, the fixed-order reductions and the subspace GEMVs
/// — lives behind one table of function pointers, a KernelBackend. Three
/// implementations of the table are compiled into the library, each in its
/// own translation unit with its own target flags:
///
///   * scalar  — reference ordering, default build flags, libm sincos
///   * avx2    — -mavx2 -mfma, vectorized polynomial sincos
///   * avx512  — -mavx512{f,dq,vl,bw} -mfma, same kernels at wider lanes
///
/// The AVX TUs are compile-time gated (they degrade to a null registration
/// on compilers/arches without the flags) and runtime-dispatched: active()
/// picks the best table the CPU supports via CPUID, once, on first use.
/// The FASTQAOA_KERNEL environment variable and the --backend flag of
/// qaoa_cli / qaoa_serve override the choice ("scalar", "avx2", "avx512",
/// "auto").
///
/// Determinism contract: every kernel uses fixed-order reductions — partial
/// sums are accumulated per fixed-size block and combined in block order —
/// so a given backend returns bit-identical results at any thread count.
/// Different backends may differ in the last ulps (different sincos
/// polynomials, different vector widths); tests pin cross-backend parity to
/// 1e-13 relative.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace fastqaoa::linalg::kernels {

/// POD complex accumulator returned by reduction kernels. Kept a plain
/// aggregate (not std::complex) so ISA-specific TUs never instantiate
/// shared inline symbols.
struct CplxSum {
  double re = 0.0;
  double im = 0.0;
};

/// Optional quantized view of a diagonal table for the phase sweeps:
/// d[i] == vals[idx[i]] with nv distinct values (bit-pattern equality, so
/// +0.0 and -0.0 are distinct entries). QAOA diagonals are usually highly
/// degenerate — X-mixer eigenvalues take n+1 values, integer-weighted cost
/// functions a few hundred — so a phase sweep can compute one sincos per
/// distinct value and apply the factors by lookup. The entries that take a
/// view (the batched WHT family, lane by lane, and diag_phase) use it on
/// the fast-sincos backends only; the scalar backend always sweeps per
/// element. The looked-up factors are produced by the same sincos code as
/// the per-element sweep, so the result is bit-identical to the
/// unquantized path; kernels fall back to the per-element sweep whenever
/// the quantized route could diverge (too many values, fewer than 64
/// elements, or phases beyond the fast-sincos range). idx may be null to
/// disable the quantized path.
struct QuantizedDiag {
  const std::uint16_t* idx = nullptr;
  const double* vals = nullptr;
  index_t nv = 0;
};

/// Largest nv for which the kernels take the quantized phase route
/// (the factor table must stay L1-resident).
inline constexpr index_t kQuantizedDiagMax = 512;

/// The dispatch table. All pointers are non-null in a registered backend.
/// Kernels take raw pointers + element counts; the cvec-level wrappers in
/// linalg/{wht,vector_ops,dense}.hpp add size checks and instrumentation.
struct KernelBackend {
  const char* name;

  // --- Walsh–Hadamard family (lengths must be powers of two) -------------
  /// In-place unnormalized WHT, cache-blocked, one parallel region.
  void (*wht)(cplx* a, index_t n);
  /// Fused diag-phase (+ scale) -> WHT:
  ///   a_i *= scale * exp(-i * angle * d_i), then in-place WHT.
  /// d may be null (pure scale). Covers both `diag_phase -> WHT` and
  /// `WHT -> diag_phase -> normalize-scale` shapes of the X-mixer round.
  void (*phase_wht)(cplx* a, const double* d, double angle, double scale,
                    index_t n);
  /// In-place WHT with sum_i obj_i |a_i|^2 fused into the final butterfly
  /// pass (the evaluate() epilogue).
  double (*wht_expect)(cplx* a, const double* obj, index_t n);
  /// phase_wht and wht_expect combined: the whole final QAOA round.
  double (*phase_wht_expect)(cplx* a, const double* d, double angle,
                             double scale, const double* obj, index_t n);

  // --- batched WHT family -------------------------------------------------
  // `lanes` independent statevectors, lane l at a + l*stride (stride in
  // complex elements, stride >= n), each phased by its own angles[l] and
  // run through the single-state driver in lane order; the pad between
  // lanes is never touched. Per-lane results are bit-identical to the
  // one-lane call. These entries are the ones that carry a quantized view,
  // so the single-state wrappers (linalg::phase_wht, phase_wht_expect)
  // call them with lanes == 1.
  /// Batched phase_wht; d may be null (pure per-lane scale), dq may be null
  /// (no quantized view of d available). With lanes == 1 this is the
  /// single-state phase_wht plus the quantized route. init, when non-null,
  /// is a shared input vector copied into every lane before its transform
  /// (instead of transforming the lane's own contents).
  void (*phase_wht_batch)(cplx* a, index_t stride, int lanes, const cplx* init,
                          const double* d, const QuantizedDiag* dq,
                          const double* angles, double scale, index_t n);
  /// Batched wht_expect: out[l] = sum_i obj_i |a_{l,i}|^2 after the WHT.
  void (*wht_expect_batch)(cplx* a, index_t stride, int lanes,
                           const double* obj, double* out, index_t n);
  /// Batched phase_wht_expect: the whole final QAOA round for all lanes.
  void (*phase_wht_expect_batch)(cplx* a, index_t stride, int lanes,
                                 const double* d, const QuantizedDiag* dq,
                                 const double* angles, double scale,
                                 const double* obj, double* out, index_t n);

  // --- elementwise --------------------------------------------------------
  /// psi_i *= exp(-i * angle * d_i). dq, an optional quantized view of d
  /// (may be null), gives one sincos per distinct value where the route
  /// applies.
  void (*diag_phase)(cplx* psi, const double* d, const QuantizedDiag* dq,
                     double angle, index_t n);
  /// psi_i *= d_i * s (real diagonal times real scale).
  void (*diag_mul)(cplx* psi, const double* d, double s, index_t n);
  /// v_i *= (sr + i*si).
  void (*scale)(cplx* v, double sr, double si, index_t n);
  /// v_i *= s (real).
  void (*scale_real)(cplx* v, double s, index_t n);
  /// dst_i = s * src_i.
  void (*copy_scale)(cplx* dst, const cplx* src, double s, index_t n);
  /// v_i = (re + i*im).
  void (*fill)(cplx* v, double re, double im, index_t n);
  /// v_i += (re + i*im).
  void (*add_const)(cplx* v, double re, double im, index_t n);
  /// y_i += (ar + i*ai) * x_i.
  void (*axpy)(double ar, double ai, const cplx* x, cplx* y, index_t n);
  /// t_next_i = two_inv_r * t_next_i - t_prev_i (Chebyshev recurrence).
  void (*cheb_recur)(cplx* t_next, const cplx* t_prev, double two_inv_r,
                     index_t n);

  // --- fixed-order reductions ---------------------------------------------
  /// sum_i conj(x_i) * y_i.
  CplxSum (*dot)(const cplx* x, const cplx* y, index_t n);
  /// sum_i |v_i|^2.
  double (*norm_sq)(const cplx* v, index_t n);
  /// sum_i v_i.
  CplxSum (*vsum)(const cplx* v, index_t n);
  /// sum_i d_i * |psi_i|^2.
  double (*diag_expectation)(const double* d, const cplx* psi, index_t n);
  /// Im(sum_i conj(lambda_i) * d_i * psi_i).
  double (*diag_bracket_imag)(const cplx* lambda, const double* d,
                              const cplx* psi, index_t n);
  /// max_i |v_i - w_i|.
  double (*max_abs_diff)(const cplx* v, const cplx* w, index_t n);

  // --- dense GEMV (row-major A) -------------------------------------------
  /// y = A x (A real, rows x cols).
  void (*gemv_real)(const double* a, index_t rows, index_t cols,
                    const cplx* x, cplx* y);
  /// y = A^T x.
  void (*gemv_real_t)(const double* a, index_t rows, index_t cols,
                      const cplx* x, cplx* y);
  /// y = A x (A complex).
  void (*gemv_cplx)(const cplx* a, index_t rows, index_t cols, const cplx* x,
                    cplx* y);
  /// y = A^H x.
  void (*gemv_cplx_adj)(const cplx* a, index_t rows, index_t cols,
                        const cplx* x, cplx* y);
};

/// The active backend. Initialized on first use: FASTQAOA_KERNEL if set and
/// valid (else a one-line stderr warning and auto-pick), otherwise the best
/// table this CPU supports. Never null.
[[nodiscard]] const KernelBackend& active();

/// Name of the active backend ("scalar", "avx2", "avx512").
[[nodiscard]] const char* active_name();

/// Switch backends by name ("auto" re-runs CPU detection). Returns false —
/// and leaves the active backend unchanged — if the name is unknown, the
/// backend was not compiled in, or the CPU lacks the ISA. Not intended for
/// concurrent use with in-flight evaluations (call at startup).
bool select(const std::string& name);

/// Names of every backend that is both compiled in and supported by this
/// CPU (always contains "scalar").
[[nodiscard]] std::vector<std::string> available();

}  // namespace fastqaoa::linalg::kernels
