#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "orchestrator/campaign.hpp"

namespace ao::orchestrator {

/// One compiled campaign expansion: the deterministic output of
/// Campaign::groups() plus the counts the service derives from it. Immutable
/// once published by the PlanCache — consumers rebuild JobQueues from it with
/// push_groups()/push_group_subset() instead of re-expanding the request.
struct CompiledCampaign {
  std::vector<Campaign::JobGroup> groups;
  std::size_t job_count = 0;  ///< sum of group.jobs.size()
};

/// Builds a CompiledCampaign from a campaign description (groups() once,
/// count the jobs).
CompiledCampaign compile_campaign(const Campaign& campaign);

/// Content-keyed LRU cache of compiled campaign expansions — the
/// orchestration twin of the ResultCache: repeated campaigns skip the
/// (chips × impls × sizes) expansion walk the same way repeated measurements
/// skip the simulator.
///
/// Keys are the FULL canonical text of every request field that can change
/// the expansion (service::plan_key()); the map compares them by string
/// equality, so two distinct option sets can never collide — there is no
/// hash to collide on. Requests that differ only in identity or scheduling
/// fields (client, priority, worker/shard counts, deadline) intentionally
/// share a compilation: those fields cannot change groups().
///
/// Thread-safe; compile callbacks run OUTSIDE the lock (expansion can be
/// slow), so two concurrent misses on one key may both compile — benign,
/// expansion is deterministic and the second insert is dropped.
class PlanCache {
 public:
  struct Stats {
    std::size_t hits = 0;       ///< checkouts served from the cache
    std::size_t misses = 0;     ///< checkouts that compiled
    std::size_t evictions = 0;  ///< entries dropped by the LRU bound
    std::size_t size = 0;       ///< entries currently retained
  };

  /// `capacity` = maximum retained compilations; at least 1.
  explicit PlanCache(std::size_t capacity = 64);

  /// Returns the compiled expansion for `key`, refreshing its recency;
  /// compiles via `compile` on a miss (outside the lock) and retains the
  /// result, evicting the least recently used entry when full. The returned
  /// pointer stays valid past an eviction — holders share the immutable
  /// compilation.
  std::shared_ptr<const CompiledCampaign> checkout(
      const std::string& key, const std::function<CompiledCampaign()>& compile);

  Stats stats() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  void clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CompiledCampaign> compiled;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace ao::orchestrator
