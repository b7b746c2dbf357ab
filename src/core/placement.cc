#include "core/placement.h"

#include <algorithm>
#include <cassert>

#include "sim/rng.h"

namespace cronets::core {

void PlacementOptimizer::measure(const std::vector<std::pair<int, int>>& pairs,
                                 const std::vector<int>& candidates, sim::Time at) {
  assert(candidates.size() <= 20 && "exhaustive/greedy search is exponential-ish");
  candidates_ = candidates;
  direct_.clear();
  split_.clear();
  std::vector<PairSample> samples(pairs.size());
  meter_->measure_batch(pairs.data(), pairs.size(), candidates, at,
                        samples.data());
  for (const PairSample& s : samples) {
    direct_.push_back(s.direct_bps);
    std::vector<double> row(candidates.size(), 0.0);
    for (const auto& o : s.overlays) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (candidates[c] == o.overlay_ep) row[c] = o.split_bps;
      }
    }
    split_.push_back(std::move(row));
  }
}

double PlacementOptimizer::value_of(const std::vector<int>& subset_idx,
                                    double* avg_improvement) const {
  double total = 0.0;
  double imp = 0.0;
  for (std::size_t p = 0; p < direct_.size(); ++p) {
    double best = direct_[p];
    for (int c : subset_idx) {
      best = std::max(best, split_[p][static_cast<std::size_t>(c)]);
    }
    total += best;
    imp += direct_[p] > 0 ? best / direct_[p] : 1.0;
  }
  if (avg_improvement) {
    *avg_improvement = direct_.empty() ? 0.0 : imp / static_cast<double>(direct_.size());
  }
  return total;
}

PlacementOptimizer::Result PlacementOptimizer::greedy(int k) const {
  assert(!split_.empty() && "call measure() first");
  std::vector<int> chosen_idx;
  for (int round = 0; round < k; ++round) {
    int best_c = -1;
    double best_v = -1.0;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      if (std::find(chosen_idx.begin(), chosen_idx.end(), static_cast<int>(c)) !=
          chosen_idx.end()) {
        continue;
      }
      auto trial = chosen_idx;
      trial.push_back(static_cast<int>(c));
      const double v = value_of(trial, nullptr);
      if (v > best_v) {
        best_v = v;
        best_c = static_cast<int>(c);
      }
    }
    if (best_c < 0) break;
    chosen_idx.push_back(best_c);
  }
  Result r;
  r.total_bps = value_of(chosen_idx, &r.avg_improvement);
  for (int c : chosen_idx) r.chosen.push_back(candidates_[static_cast<std::size_t>(c)]);
  return r;
}

PlacementOptimizer::Result PlacementOptimizer::exhaustive(int k) const {
  assert(!split_.empty() && "call measure() first");
  const std::size_t n = candidates_.size();
  assert(n <= 20);
  Result best;
  best.total_bps = -1.0;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) != k) continue;
    std::vector<int> idx;
    for (std::size_t c = 0; c < n; ++c) {
      if (mask & (1u << c)) idx.push_back(static_cast<int>(c));
    }
    Result r;
    r.total_bps = value_of(idx, &r.avg_improvement);
    if (r.total_bps > best.total_bps) {
      for (int c : idx) r.chosen.push_back(candidates_[static_cast<std::size_t>(c)]);
      best = r;
    }
  }
  return best;
}

PlacementOptimizer::Result PlacementOptimizer::random_baseline(int k, int trials,
                                                               std::uint64_t seed) const {
  assert(!split_.empty() && "call measure() first");
  sim::Rng rng(seed);
  Result avg;
  std::vector<int> all(candidates_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  for (int t = 0; t < trials; ++t) {
    rng.shuffle(all);
    std::vector<int> idx(all.begin(), all.begin() + k);
    double imp = 0.0;
    avg.total_bps += value_of(idx, &imp) / trials;
    avg.avg_improvement += imp / trials;
  }
  return avg;
}

}  // namespace cronets::core
