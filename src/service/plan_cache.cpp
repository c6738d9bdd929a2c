#include "service/plan_cache.hpp"

#include <algorithm>
#include <cstring>

#include "common/alloc.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa::service {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) noexcept {
  fnv_bytes(h, &v, sizeof(v));
}

}  // namespace

std::uint64_t plan_fingerprint(const PlanKeyMaterial& material) noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, material.mixer_kind.size());
  fnv_bytes(h, material.mixer_kind.data(), material.mixer_kind.size());
  fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(material.n)));
  fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(material.k)));
  fnv_u64(h, static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(material.rounds)));
  fnv_u64(h, material.obj_vals.size());
  fnv_bytes(h, material.obj_vals.data(), material.obj_vals.size_bytes());
  fnv_u64(h, material.phase_values.size());
  fnv_bytes(h, material.phase_values.data(),
            material.phase_values.size_bytes());
  fnv_u64(h, material.initial_state.size());
  fnv_bytes(h, material.initial_state.data(),
            material.initial_state.size_bytes());
  fnv_u64(h, material.engine.size());
  fnv_bytes(h, material.engine.data(), material.engine.size());
  fnv_u64(h, material.spec.size());
  fnv_bytes(h, material.spec.data(), material.spec.size());
  return h;
}

void PlanCache::set_partition_budget(const std::string& partition,
                                     std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partition.empty()) return;  // "" is the shared pool by definition
  budgets_[partition] = bytes;
  partition_stats_.emplace(partition, PartitionStats{});
}

PlanHandle PlanCache::get_or_build(const PlanKeyMaterial& material,
                                   const std::function<CachedPlan()>& build) {
  return get_or_build(material, std::string{}, build);
}

PlanHandle PlanCache::get_or_build(const PlanKeyMaterial& material,
                                   const std::string& partition,
                                   const std::function<CachedPlan()>& build) {
  const std::uint64_t fp = plan_fingerprint(material);
  // Floor for the byte estimate, in case the builder received pre-built
  // tables (the MemoryTracker delta then misses them). Each component is
  // rounded to its tracked allocation size — the tracker accounts padded
  // 64-byte-aligned blocks, so summing raw size_bytes() here would
  // undercount and let the cache drift past its byte budget.
  const std::size_t nominal =
      tracked_alloc_bytes(material.obj_vals.size_bytes()) +
      tracked_alloc_bytes(material.phase_values.size_bytes()) +
      tracked_alloc_bytes(material.initial_state.size_bytes());

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = entries_.find(fp); it != entries_.end()) {
    ++hits_;
    FASTQAOA_OBS_COUNT_GLOBAL("service.plan_cache.hit", 1);
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.plan;
  }
  ++misses_;
  FASTQAOA_OBS_COUNT_GLOBAL("service.plan_cache.miss", 1);

  const std::size_t before = MemoryTracker::current_bytes();
  CachedPlan built = build();
  const std::size_t after = MemoryTracker::current_bytes();
  FASTQAOA_CHECK(built.plan != nullptr || built.mps_plan != nullptr,
                 "PlanCache: builder returned a null plan");
  built.fingerprint = fp;
  built.bytes = std::max(after > before ? after - before : std::size_t{0},
                         nominal);

  // Charge a budgeted partition when the builder has one; everything else
  // (unknown partitions, the default "") lands in the shared pool.
  const std::string charged = has_budget(partition) ? partition : std::string{};
  auto handle = std::make_shared<const CachedPlan>(std::move(built));
  lru_.push_front(fp);
  entries_[fp] = Entry{handle, lru_.begin(), charged};
  bytes_ += handle->bytes;
  if (!charged.empty()) {
    budgeted_bytes_ += handle->bytes;
    PartitionStats& ps = partition_stats_[charged];
    ++ps.entries;
    ps.bytes += handle->bytes;
  }
  evict_over_budget_locked(charged);
  return handle;
}

/// Evict LRU-first within one accounting pool. A budgeted partition only
/// ever sheds its own entries; the shared pool only sheds unbudgeted ones —
/// that asymmetry is the isolation guarantee (one tenant's churn cannot
/// evict another budgeted tenant's plans).
void PlanCache::evict_over_budget_locked(const std::string& partition) {
  std::size_t limit = 0;
  if (partition.empty()) {
    limit = config_.max_bytes;
  } else {
    auto it = budgets_.find(partition);
    limit = it == budgets_.end() ? 0 : it->second;
  }
  if (limit == 0) return;

  const auto pool_bytes = [&]() -> std::size_t {
    if (partition.empty()) {
      return bytes_ - std::min(bytes_, budgeted_bytes_);
    }
    auto it = partition_stats_.find(partition);
    return it == partition_stats_.end() ? 0 : it->second.bytes;
  };

  auto it = lru_.end();
  while (pool_bytes() > limit && it != lru_.begin()) {
    --it;
    auto ent = entries_.find(*it);
    if (ent == entries_.end()) {
      it = lru_.erase(it);
      continue;
    }
    if (ent->second.partition != partition) continue;  // other pool
    // use_count > 1 means a job still holds the handle: pinned, skip.
    if (ent->second.plan.use_count() > 1) continue;
    const std::size_t entry_bytes = ent->second.plan->bytes;
    bytes_ -= std::min(bytes_, entry_bytes);
    if (!partition.empty()) {
      budgeted_bytes_ -= std::min(budgeted_bytes_, entry_bytes);
      PartitionStats& ps = partition_stats_[partition];
      ps.entries -= std::min<std::size_t>(ps.entries, 1);
      ps.bytes -= std::min(ps.bytes, entry_bytes);
      ++ps.evictions;
    }
    ++evictions_;
    FASTQAOA_OBS_COUNT_GLOBAL("service.plan_cache.evict", 1);
    entries_.erase(ent);
    it = lru_.erase(it);
  }
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.partitions = partition_stats_;
  return s;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
  bytes_ = 0;
  budgeted_bytes_ = 0;
  for (auto& [name, ps] : partition_stats_) {
    ps.entries = 0;
    ps.bytes = 0;
  }
}

}  // namespace fastqaoa::service
