#pragma once
/// \file diag_dict.hpp
/// Quantized dictionary view of a diagonal table.
///
/// QAOA diagonals are highly degenerate: X-mixer eigenvalues in the Hadamard
/// frame take n+1 distinct values (n - 2*popcount), and integer-weighted cost
/// tables a few dozen to a few hundred. A DiagDict factors a length-2^n
/// table into (idx[i], vals[]) with d[i] == vals[idx[i]], letting the phase
/// kernels compute one sincos per distinct value (per lane) and apply the
/// factors by table lookup instead of running the per-element sincos sweep.
/// Batched sweeps take this route on every backend; single-state sweeps
/// (evaluate(), the adjoint gradient) take it on the fast-sincos backends.
/// Built once next to the table it mirrors (plan construction, mixer
/// construction) and read-only afterwards.
///
/// Distinctness is bit-pattern equality (so +0.0 and -0.0 are separate
/// entries — their sines differ in sign bit) and vals[] keeps first-
/// occurrence order, both of which make the factor tables — and therefore
/// the quantized results — bit-identical to the per-element sweep.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "linalg/kernels/kernels.hpp"

namespace fastqaoa::linalg {

/// Compressed view d[i] == vals[idx[i]] of a diagonal table. Invalid (empty)
/// when the table has more than kernels::kQuantizedDiagMax distinct values —
/// the kernels then fall back to the per-element phase sweep.
struct DiagDict {
  std::vector<std::uint16_t> idx;  ///< per-element dictionary index
  dvec vals;                       ///< distinct values, first-occurrence order

  [[nodiscard]] bool valid() const noexcept { return !idx.empty(); }

  /// Kernel-layer descriptor; all-null when invalid (kernels treat a null
  /// idx as "no quantized view available").
  [[nodiscard]] kernels::QuantizedDiag view() const noexcept {
    if (!valid()) return {};
    return {idx.data(), vals.data(), static_cast<index_t>(vals.size())};
  }
};

/// Build the dictionary for `table`. Returns an invalid (empty) dict when
/// the table exceeds kernels::kQuantizedDiagMax distinct values or is
/// shorter than 64 elements (below the kernels' vector-body floor).
[[nodiscard]] DiagDict build_diag_dict(const dvec& table);

}  // namespace fastqaoa::linalg
