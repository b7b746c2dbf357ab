#include "topo/path_cache.h"

#include <utility>

#include "sim/hash_rng.h"
#include "topo/internet.h"

namespace cronets::topo {

PathRef PathCache::get(int ep_src, int ep_dst) {
  const std::uint64_t k = sim::pack_pair(ep_src, ep_dst);
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    auto it = cache_.find(k);
    if (it != cache_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Compute outside the lock: paths are deterministic, so losing the
  // insert race below just discards an identical duplicate.
  auto path = std::make_shared<const RouterPath>(topo_->path(ep_src, ep_dst));
  std::unique_lock<std::shared_mutex> lk(mu_);
  return cache_.emplace(k, std::move(path)).first->second;
}

void PathCache::invalidate() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  cache_.clear();
  ++invalidations_;
}

std::size_t PathCache::size() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return cache_.size();
}

}  // namespace cronets::topo
