#pragma once
/// \file state_ref.hpp
/// Non-owning views of a statevector. Every kernel wrapper, mixer and
/// analysis routine takes one of these, so a cvec, a slice of a batch
/// matrix or a raw buffer all bind without a copy.

#include <span>

#include "common/types.hpp"

namespace fastqaoa::linalg {

/// Mutable view of a statevector's amplitudes.
using StateRef = std::span<cplx>;

/// Read-only counterpart of StateRef.
using ConstStateRef = std::span<const cplx>;

}  // namespace fastqaoa::linalg
