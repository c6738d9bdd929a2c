#pragma once
/// \file hamiltonian.hpp
/// Structural diagonal cost Hamiltonians for the MPS engine.
///
/// The exact engine tabulates C(z) over all 2^n basis states; that table is
/// exactly what dies at large n. The MPS engine instead keeps the cost in
/// its sparse Pauli-Z form
///
///     C = constant + sum_i c_i Z_i + sum_{u<v} c_uv Z_u Z_v
///
/// (Z eigenvalue +1 for bit 0, -1 for bit 1), which is all the gate
/// scheduler needs: two-site bond gates (routed by swaps when non-adjacent)
/// for the quadratic terms. The MPS engine evaluates ZZ-only costs: it
/// stores the state with the Z2 parity of the bit flip prod_i X_i on every
/// bond, which a linear Z term breaks, so MpsPlan refuses a Hamiltonian
/// with z_terms. The field stays for the classical side (canonicalize,
/// eval_bits). Terms are canonicalized — u < v, lexicographic order,
/// duplicates merged — so every consumer walks them in one fixed
/// deterministic order.

#include <vector>

#include "common/types.hpp"
#include "graphs/graph.hpp"

namespace fastqaoa::mps {

/// c * Z_site.
struct ZTerm {
  index_t site = 0;
  double coeff = 0.0;
};

/// c * Z_u Z_v with u < v after canonicalization.
struct ZZTerm {
  index_t u = 0;
  index_t v = 0;
  double coeff = 0.0;
};

/// Sparse diagonal Hamiltonian over n qubits. As built (maxcut_hamiltonian,
/// canonicalize) site i is qubit i; an MpsPlan relabels the qubits onto MPS
/// sites, so MpsPlan::hamiltonian() is in site labels (MpsPlan::site_of).
struct DiagonalHamiltonian {
  index_t n = 0;
  double constant = 0.0;
  std::vector<ZTerm> z_terms;
  std::vector<ZZTerm> zz_terms;
};

/// Canonical form: zz terms with u < v, both term lists sorted by site
/// index (lexicographic for zz), duplicate terms merged by summing
/// coefficients, zero-coefficient terms dropped, Z_u Z_u folded into the
/// constant (Z^2 = I). Throws on out-of-range sites.
DiagonalHamiltonian canonicalize(DiagonalHamiltonian h);

/// MaxCut on a (weighted) graph: cut(x) = sum_{e : cut} w_e equals
/// W/2 - sum_e (w_e/2) Z_u Z_v with W the total edge weight. The returned
/// Hamiltonian's eval_bits matches problems::maxcut exactly, so MPS and
/// exact-engine expectations are directly comparable.
DiagonalHamiltonian maxcut_hamiltonian(const Graph& g);

/// Classical evaluation at a bitstring (tests / cross-validation only).
double eval_bits(const DiagonalHamiltonian& h, state_t x);

}  // namespace fastqaoa::mps
