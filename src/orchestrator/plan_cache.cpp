#include "orchestrator/plan_cache.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ao::orchestrator {

CompiledCampaign compile_campaign(const Campaign& campaign) {
  CompiledCampaign compiled;
  compiled.groups = campaign.groups();
  for (const Campaign::JobGroup& group : compiled.groups) {
    compiled.job_count += group.jobs.size();
  }
  return compiled;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const CompiledCampaign> PlanCache::checkout(
    const std::string& key, const std::function<CompiledCampaign()>& compile) {
  AO_REQUIRE(!key.empty(), "plan-cache key must not be empty");
  {
    std::lock_guard lock(mutex_);
    const auto found = index_.find(key);
    if (found != index_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second);
      ++stats_.hits;
      return found->second->compiled;
    }
    ++stats_.misses;
  }
  // Compile outside the lock: expansion walks the whole sweep. A concurrent
  // miss on the same key compiles redundantly but deterministically; the
  // loser's insert below is dropped in favor of the resident entry.
  auto compiled = std::make_shared<const CompiledCampaign>(compile());
  std::lock_guard lock(mutex_);
  const auto found = index_.find(key);
  if (found != index_.end()) {
    lru_.splice(lru_.begin(), lru_, found->second);
    return found->second->compiled;
  }
  lru_.push_front(Entry{key, compiled});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return compiled;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats out = stats_;
  out.size = lru_.size();
  return out;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

void PlanCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace ao::orchestrator
