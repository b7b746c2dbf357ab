// Figure 2 (§III-A): CDFs of throughput improvement ratios (plain overlay
// and split-overlay over the direct path) for the real-life web server
// experiment: ~110 PlanetLab-like clients x 10 mirror servers x 5 overlay
// DCs = 6,600 observed Internet paths.
//
// Paper reference points:
//   plain overlay:  49% of pairs improved, average factor 1.29
//   split overlay:  78% improved, average 3.27, median 1.67,
//                   67% with >= 25% improvement

#include <bit>

#include "bench_util.h"
#include "sim/hash_rng.h"
#include "wkld/experiments.h"

using namespace cronets;
using namespace cronets::bench;

int main() {
  BenchRun run("fig2_weblarge");
  wkld::World world(world_seed());
  const auto exp = wkld::run_web_experiment(world);
  run.stop_clock();
  run.set_pairs(static_cast<long>(exp.samples.size()));

  analysis::Cdf plain_ratio, split_ratio;
  double plain_improved = 0, split_improved = 0, split_25 = 0;
  double plain_sum = 0, split_sum = 0;
  int n = 0;

  // Order-sensitive hash over every measured sample: the figure pipeline's
  // determinism witness (bitwise identical at any thread count and SIMD
  // level), and what the bench gate pins against bench/baselines/.
  std::uint64_t fingerprint = 0;
  for (const auto& s : exp.samples) {
    fingerprint = sim::hash_combine(
        fingerprint,
        sim::hash_combine(std::bit_cast<std::uint64_t>(s.direct_bps),
                          std::bit_cast<std::uint64_t>(s.best_split_bps())));
    if (s.direct_bps <= 0) continue;
    ++n;
    const double rp = s.best_plain_bps() / s.direct_bps;
    const double rs = s.best_split_bps() / s.direct_bps;
    plain_ratio.add(rp);
    split_ratio.add(rs);
    plain_improved += rp > 1.0;
    split_improved += rs > 1.0;
    split_25 += rs >= 1.25;
    plain_sum += rp;
    split_sum += rs;
  }

  print_header("Figure 2", "throughput improvement ratios, real-life web servers");
  std::printf("clients: %zu  servers: %zu  overlay DCs: %zu  paths observed: %d\n\n",
              exp.clients.size(), exp.servers.size(), exp.overlays.size(), n * 6);
  print_cdf_log(plain_ratio, "overlay", 1e-2, 1e2);
  print_cdf_log(split_ratio, "split-overlay", 1e-2, 1e2);

  run.finish({
      {"plain: fraction improved (ratio > 1)", 0.49, plain_improved / n},
      {"plain: average improvement factor", 1.29, plain_sum / n},
      {"split: fraction improved", 0.78, split_improved / n},
      {"split: average improvement factor", 3.27, split_sum / n},
      {"split: median improvement factor", 1.67, split_ratio.median()},
      {"split: fraction with >=25% improvement", 0.67, split_25 / n},
      {"sample fingerprint (low 32 bits)", -1.0,
       static_cast<double>(fingerprint & 0xffffffffu)},
  });
  return 0;
}
