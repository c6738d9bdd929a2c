#pragma once
/// \file fault.hpp
/// Deterministic fault injection for the failure-path test suite.
///
/// Production failure modes — a NaN escaping one basinhopping chain, an
/// instance factory throwing, a checkpoint write hitting a full disk, the
/// process being killed between rounds — are impossible to exercise
/// reliably from the outside. This harness lets tests (and CI) arm named
/// *fault points* that fire deterministically at instrumented sites:
///
///   fault::arm("anglefind.chain_nan", /*index=*/3);    // chain 3 only
///   fault::arm("crash.after_round", 2);                 // kill after p=2
///
/// Sites ask `FASTQAOA_FAULT_FIRE("point", index)` and act on `true` (return
/// a NaN, throw, _Exit, fail the stream). Each armed fault fires exactly
/// once, on its `after`-th matching hit, so runs are reproducible at any
/// thread count as long as the site's `index` discriminator is
/// schedule-independent (chain index, instance index, round number).
///
/// Everything is gated by the FASTQAOA_FAULT_INJECTION CMake option.
/// When OFF (the default, and all release/TSan builds) the macro is the
/// literal `false` and the arm/reset API is an inline no-op stub — zero
/// code, zero branches.
///
/// Known fault points:
///   anglefind.chain_nan       (index = chain)    objective returns NaN
///   study.factory_throw       (index = instance) instance factory throws
///   runtime.checkpoint_write_fail (index = -1)   checkpoint stream fails
///   crash.after_round         (index = round p)  _Exit(137) after the
///                                                round's checkpoint lands
///   study.crash_after_instance(index = instance) _Exit(137) after the
///                                                instance's file lands
///   net.accept_fail           (index = accept#)  daemon drops the freshly
///                                                accepted connection as if
///                                                accept() had failed
///   net.drop_connection       (index = accept#)  daemon abruptly closes the
///                                                connection mid-frame after
///                                                its next read
///   net.short_write           (index = accept#)  daemon writes at most one
///                                                byte on one flush pass
///   net.stall_reader          (index = accept#)  connection behaves as if
///                                                the peer never drains its
///                                                socket (writes stall until
///                                                the eviction timeout)

#include <string>
#include <string_view>

namespace fastqaoa::fault {

/// Whether this build compiled the harness in (FASTQAOA_FAULT_INJECTION=ON).
/// Tests skip the failure-path cases when false.
[[nodiscard]] bool compiled_in() noexcept;

#ifdef FASTQAOA_FAULT_INJECTION_ENABLED

/// Arm one fault: `point` fires on its `after`-th hit whose site index
/// matches `index` (-1 = any index). Thread-safe.
void arm(std::string_view point, long long index = -1, int after = 1);

/// Disarm everything and clear fired counts.
void reset() noexcept;

/// How many times `point` has fired since the last reset().
[[nodiscard]] int fired_count(std::string_view point);

/// Site-side check: consume-and-fire. Fast path (nothing armed) is one
/// relaxed atomic load. Thread-safe.
[[nodiscard]] bool fire(std::string_view point, long long index) noexcept;

/// Arm faults from the FASTQAOA_FAULTS environment variable:
/// comma-separated `point[:index[:after]]` entries, e.g.
///   FASTQAOA_FAULTS="crash.after_round:2,runtime.checkpoint_write_fail"
/// Used by qaoa_cli so CI can crash-test the binary without recompiling.
void arm_from_env();

#else  // !FASTQAOA_FAULT_INJECTION_ENABLED

inline void arm(std::string_view, long long = -1, int = 1) {}
inline void reset() noexcept {}
[[nodiscard]] inline int fired_count(std::string_view) { return 0; }
[[nodiscard]] inline bool fire(std::string_view, long long) noexcept {
  return false;
}
inline void arm_from_env() {}

#endif  // FASTQAOA_FAULT_INJECTION_ENABLED

}  // namespace fastqaoa::fault

/// Site-side macro: true when the armed fault `point` fires for `index`.
/// Compiles to the literal `false` when fault injection is off, so optimizers
/// and checkpoint writers carry no fault-path code in production builds.
#ifdef FASTQAOA_FAULT_INJECTION_ENABLED
#define FASTQAOA_FAULT_FIRE(point, index) \
  ::fastqaoa::fault::fire((point), (index))
#else
#define FASTQAOA_FAULT_FIRE(point, index) false
#endif
