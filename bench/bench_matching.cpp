// Matching-engine microbench: the key-interval pruned IndexStore::match
// against the brute-force O(subscriptions x MBRs) reference, at and beyond
// the paper's Table-I operating points (query radius 0.1 / 0.2). The
// match_steady rows time the steady-state incremental pass: one pass, then
// 1% new MBRs, then the timed second pass, checked against brute force.
//
// Usage: bench_matching [--smoke] [--json <path>]
//   --smoke    one quick configuration (CI smoke label)
//   --json     also emit BENCH_matching.json-style results (schema v1, see
//              bench_common.hpp)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/index_store.hpp"

namespace {

using namespace sdsi;

struct MatchConfig {
  std::size_t mbrs = 0;
  std::size_t subs = 0;
  double radius = 0.1;
  int repetitions = 5;
};

std::string describe(const MatchConfig& config) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "mbrs=%zu subs=%zu radius=%.2f",
                config.mbrs, config.subs, config.radius);
  return buf;
}

const sim::SimTime kExpires =
    sim::SimTime::zero() + sim::Duration::seconds(3600);

void add_box(core::IndexStore& store, StreamId stream,
             std::vector<double> low, std::vector<double> high) {
  core::IndexStore::StoredMbr entry;
  entry.stream = stream;
  entry.mbr = dsp::Mbr(std::move(low), std::move(high));
  entry.expires = kExpires;
  store.add_mbr(std::move(entry));
}

/// One Table-I-like MBR: 4 real dimensions (two retained complex
/// coefficients) with a narrow routing interval — batches of consecutive
/// windows are strongly correlated (Fig 3b).
void add_random_mbr(core::IndexStore& store, common::Pcg32& rng,
                    StreamId stream) {
  std::vector<double> low(4);
  std::vector<double> high(4);
  for (std::size_t d = 0; d < low.size(); ++d) {
    low[d] = rng.uniform(-1.0, 0.92);
    high[d] = low[d] + rng.uniform(0.01, 0.06);
  }
  add_box(store, stream, std::move(low), std::move(high));
}

/// A batch of a stream that has just moved onto `point`.
void add_mbr_around(core::IndexStore& store, common::Pcg32& rng,
                    const dsp::FeatureVector& point, StreamId stream) {
  std::vector<double> low = point.as_reals();
  std::vector<double> high = low;
  for (std::size_t d = 0; d < low.size(); ++d) {
    low[d] -= rng.uniform(0.005, 0.03);
    high[d] += rng.uniform(0.005, 0.03);
  }
  add_box(store, stream, std::move(low), std::move(high));
}

/// Populates one store with `config.mbrs` such MBRs and subscriptions whose
/// balls use the paper's radii.
core::IndexStore build_store(const MatchConfig& config, std::uint64_t seed) {
  common::Pcg32 rng(seed, 17);
  core::IndexStore store;
  for (std::size_t i = 0; i < config.mbrs; ++i) {
    add_random_mbr(store, rng, i);
  }
  for (std::size_t q = 0; q < config.subs; ++q) {
    core::SimilarityQuery query;
    query.id = q;
    query.features = dsp::FeatureVector(
        {dsp::Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
         dsp::Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}});
    query.radius = config.radius;
    store.add_subscription(
        std::make_shared<const core::SimilarityQuery>(std::move(query)), 0,
        kExpires);
  }
  return store;
}

struct EngineTiming {
  double wall_ms = 0.0;
  double pairs_per_sec = 0.0;
  std::size_t matches = 0;
};

EngineTiming time_engine(const MatchConfig& config, bool pruned) {
  using Clock = std::chrono::steady_clock;
  EngineTiming timing;
  double total_seconds = 0.0;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    core::IndexStore store =
        build_store(config, static_cast<std::uint64_t>(rep) + 1);
    const auto start = Clock::now();
    const auto matches = pruned ? store.match(sim::SimTime::zero())
                                : store.match_brute_force(sim::SimTime::zero());
    const auto stop = Clock::now();
    total_seconds += std::chrono::duration<double>(stop - start).count();
    timing.matches += matches.size();
  }
  timing.wall_ms = total_seconds * 1e3;
  const double pairs = static_cast<double>(config.mbrs) *
                       static_cast<double>(config.subs) *
                       static_cast<double>(config.repetitions);
  timing.pairs_per_sec = total_seconds > 0.0 ? pairs / total_seconds : 0.0;
  return timing;
}

using PairSet = std::vector<std::pair<core::QueryId, StreamId>>;

PairSet pair_set(const std::vector<core::SimilarityMatch>& matches) {
  PairSet pairs;
  pairs.reserve(matches.size());
  for (const core::SimilarityMatch& m : matches) {
    pairs.emplace_back(m.query, m.stream);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// The steady-state NPER pass: the store has matched once, then 1% new
/// MBRs arrive — every other one inside a random subscription's ball, so
/// the pass has matches to find — and the second pass is timed.
/// `pairs_per_sec` counts the same mbrs x subs pairs as the first-pass
/// rows, since the pass answers the same question over a store of that
/// size. Returns false (and prints) when the timed pass differs from
/// match_brute_force on a copy of the same store.
bool time_steady(const MatchConfig& config, EngineTiming& timing) {
  using Clock = std::chrono::steady_clock;
  const std::size_t added = std::max<std::size_t>(1, config.mbrs / 100);
  double total_seconds = 0.0;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    const auto seed = static_cast<std::uint64_t>(rep) + 1;
    core::IndexStore store = build_store(config, seed);
    store.match(sim::SimTime::zero());
    std::vector<const dsp::FeatureVector*> centers;
    for (const auto& entry : store.subscriptions()) {
      centers.push_back(&entry.second.query->features);
    }
    common::Pcg32 rng(seed, 29);
    for (std::size_t i = 0; i < added; ++i) {
      const StreamId stream = config.mbrs + i;
      if (i % 2 == 0) {
        add_random_mbr(store, rng, stream);
      } else {
        const auto pick =
            rng.bounded(static_cast<std::uint32_t>(centers.size()));
        add_mbr_around(store, rng, *centers[pick], stream);
      }
    }
    core::IndexStore oracle = store;
    const auto start = Clock::now();
    const auto matches = store.match(sim::SimTime::zero());
    const auto stop = Clock::now();
    total_seconds += std::chrono::duration<double>(stop - start).count();
    timing.matches += matches.size();
    if (pair_set(matches) !=
        pair_set(oracle.match_brute_force(sim::SimTime::zero()))) {
      std::fprintf(stderr,
                   "FATAL: steady pass diverges from brute force at %s\n",
                   describe(config).c_str());
      return false;
    }
  }
  timing.wall_ms = total_seconds * 1e3;
  const double pairs = static_cast<double>(config.mbrs) *
                       static_cast<double>(config.subs) *
                       static_cast<double>(config.repetitions);
  timing.pairs_per_sec = total_seconds > 0.0 ? pairs / total_seconds : 0.0;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = sdsi::bench::consume_json_flag(argc, argv);
  const bool smoke = sdsi::bench::consume_flag(argc, argv, "--smoke");

  std::vector<MatchConfig> configs;
  if (smoke) {
    configs.push_back(MatchConfig{500, 50, 0.1, 3});
  } else {
    configs.push_back(MatchConfig{100, 20, 0.1, 40});
    configs.push_back(MatchConfig{1000, 100, 0.1, 10});
    configs.push_back(MatchConfig{5000, 500, 0.1, 5});
    configs.push_back(MatchConfig{5000, 500, 0.2, 5});
  }

  sdsi::bench::JsonBenchReporter reporter("matching");
  std::printf("%-38s %14s %12s %10s\n", "configuration", "pairs/s", "wall ms",
              "matches");
  for (const MatchConfig& config : configs) {
    const EngineTiming brute = time_engine(config, /*pruned=*/false);
    const EngineTiming pruned = time_engine(config, /*pruned=*/true);
    if (brute.matches != pruned.matches) {
      std::fprintf(stderr,
                   "FATAL: engines disagree (%zu vs %zu matches) at %s\n",
                   brute.matches, pruned.matches,
                   describe(config).c_str());
      return 1;
    }
    const std::string label = describe(config);
    std::printf("%-38s %14.3g %12.3f %10zu  brute\n", label.c_str(),
                brute.pairs_per_sec, brute.wall_ms, brute.matches);
    std::printf("%-38s %14.3g %12.3f %10zu  pruned (%.1fx)\n", label.c_str(),
                pruned.pairs_per_sec, pruned.wall_ms, pruned.matches,
                pruned.wall_ms > 0.0 ? brute.wall_ms / pruned.wall_ms : 0.0);
    reporter.add(sdsi::bench::BenchResult{"match_brute_force", label,
                                          brute.pairs_per_sec,
                                          brute.wall_ms});
    reporter.add(sdsi::bench::BenchResult{"match_pruned", label,
                                          pruned.pairs_per_sec,
                                          pruned.wall_ms});
    EngineTiming steady;
    if (!time_steady(config, steady)) {
      return 1;
    }
    std::printf("%-38s %14.3g %12.3f %10zu  steady, +1%% MBRs (%.1fx)\n",
                label.c_str(), steady.pairs_per_sec, steady.wall_ms,
                steady.matches,
                steady.wall_ms > 0.0 ? pruned.wall_ms / steady.wall_ms : 0.0);
    reporter.add(sdsi::bench::BenchResult{"match_steady", label,
                                          steady.pairs_per_sec,
                                          steady.wall_ms});
  }

  if (!json_path.empty() && !reporter.write(json_path)) {
    return 1;
  }
  return 0;
}
