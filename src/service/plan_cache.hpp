#pragma once
/// \file plan_cache.hpp
/// Cache of shared QaoaPlans — the amortization heart of the service layer.
///
/// The paper's workflow is "precompute once, evaluate thousands of times";
/// the PlanCache extends the amortization across *jobs*: every request that
/// resolves to the same precomputation reuses one immutable plan plus its
/// owned mixer, no matter which client sent it or which worker runs it.
///
/// Keys are FNV-1a fingerprints of a PlanKeyMaterial, which names a plan in
/// one of two ways. The service keys the plans it generates by their spec
/// (`spec` = workload::generator_cache_tag): a hit then never builds the
/// 2^n cost table, and the builder tabulates only on a miss. Library callers
/// that bring their own tables key by content (`obj_vals`, `phase_values`,
/// `initial_state`): two callers whose tables are equal share an entry. A
/// spec key leaves the tables empty and a content key leaves `spec` empty;
/// every field is length-prefixed, so the two kinds cannot alias.
///
/// Eviction is LRU under a configurable byte budget. Entry sizes come from
/// the process-wide MemoryTracker (common/alloc.hpp): the cache measures
/// the tracked-allocation delta across the build, which captures the cost
/// table, the plan's initial state, and the mixer's eigenvector matrices in
/// one number. An entry whose plan is referenced by a live job (its handle
/// is still held outside the cache) is never evicted — eviction skips it
/// and reclaims colder entries instead.

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/plan.hpp"
#include "mixers/mixer.hpp"
#include "mps/mps_plan.hpp"

namespace fastqaoa::service {

/// Everything that identifies a plan, by spec or by content. Spans and
/// views reference the caller's data; they are only read during
/// fingerprinting.
struct PlanKeyMaterial {
  std::string_view mixer_kind;  ///< "tf", "grover", "clique", "ring", ...
  int n = 0;                    ///< qubit count
  int k = -1;                   ///< Hamming weight (-1 = full space)
  int rounds = 1;               ///< p baked into the QaoaPlan
  std::span<const double> obj_vals;
  std::span<const double> phase_values{};   ///< empty = objective table
  std::span<const cplx> initial_state{};    ///< empty = mixer default
  /// Engine + approximation knobs (workload::engine_cache_tag): "exact" or
  /// "mps;chi=..;tol=..;budget=..". Part of result identity — an exact and
  /// an MPS evaluation of the same problem, or two MPS evaluations with
  /// different truncation knobs, must never share a cache entry.
  std::string_view engine = "exact";
  /// Generator inputs that produce the tables (workload::
  /// generator_cache_tag). Set by callers that key a generated plan by its
  /// spec and leave the tables empty; "" for content-keyed plans.
  std::string_view spec{};
};

/// FNV-1a (64-bit) over every key field, length-prefixed so adjacent
/// variable-length fields cannot alias.
[[nodiscard]] std::uint64_t plan_fingerprint(
    const PlanKeyMaterial& material) noexcept;

/// One cached precomputation: the plan plus the mixer it references (the
/// plan holds raw Mixer pointers, so the mixer must live exactly as long).
/// Exactly one of `plan` (exact engine) or `mps_plan` (MPS engine) is set —
/// the engine field in the key material keeps their fingerprints disjoint.
struct CachedPlan {
  std::uint64_t fingerprint = 0;
  std::unique_ptr<const Mixer> mixer;
  std::shared_ptr<const QaoaPlan> plan;
  std::shared_ptr<const mps::MpsPlan> mps_plan;
  std::size_t bytes = 0;  ///< tracked-allocation footprint of this entry
};

/// Shared handle a job holds while it runs. While any handle is alive the
/// entry is pinned (eviction skips it).
using PlanHandle = std::shared_ptr<const CachedPlan>;

class PlanCache {
 public:
  struct Config {
    /// Byte budget for resident entries (0 = unlimited). Pinned entries are
    /// exempt, so the budget can be transiently exceeded while jobs run.
    std::size_t max_bytes = 0;
  };

  struct PartitionStats {
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::uint64_t evictions = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    /// Per-tenant partitions with an explicit budget; entries charged to
    /// the shared (unbudgeted) pool are not listed here.
    std::map<std::string, PartitionStats> partitions;
  };

  PlanCache() = default;
  explicit PlanCache(Config config) : config_(config) {}

  /// Give `partition` its own byte budget. Entries *built* under that
  /// partition are charged to it and evicted only by its own budget — one
  /// tenant's churn can never push another budgeted tenant's plans out.
  /// Entries built under partitions with no budget (including the default
  /// "") share the global `max_bytes` pool exactly as before. Hits
  /// remain cross-partition: a plan built by tenant A is served to
  /// tenant B from A's partition (shared immutable data, charged once).
  void set_partition_budget(const std::string& partition, std::size_t bytes);

  /// Return the cached entry for `material`, building (and inserting) it on
  /// a miss. Builds run under the cache lock — deliberately single-flight:
  /// two workers asking for the same plan never build it twice. The
  /// builder's CachedPlan needs only `mixer` and `plan` set; fingerprint
  /// and byte accounting are filled in here.
  PlanHandle get_or_build(const PlanKeyMaterial& material,
                          const std::function<CachedPlan()>& build);

  /// Partition-charging variant: a miss is charged to `partition`'s budget
  /// (when one was declared via set_partition_budget).
  PlanHandle get_or_build(const PlanKeyMaterial& material,
                          const std::string& partition,
                          const std::function<CachedPlan()>& build);

  [[nodiscard]] Stats stats() const;

  /// Drop every unpinned entry (pinned ones stay until released, but are
  /// forgotten by the cache).
  void clear();

 private:
  void evict_over_budget_locked(const std::string& partition);
  [[nodiscard]] bool has_budget(const std::string& partition) const {
    auto it = budgets_.find(partition);
    return it != budgets_.end() && it->second > 0;
  }

  Config config_;
  mutable std::mutex mu_;
  /// front = most recently used.
  std::list<std::uint64_t> lru_;
  struct Entry {
    PlanHandle plan;
    std::list<std::uint64_t>::iterator pos;
    /// Partition the entry's bytes are charged to ("" = shared pool).
    std::string partition;
  };
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::map<std::string, std::size_t> budgets_;
  std::map<std::string, PartitionStats> partition_stats_;
  std::size_t bytes_ = 0;
  /// Bytes charged to budgeted partitions (bytes_ minus the shared pool).
  std::size_t budgeted_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace fastqaoa::service
