// The system-level completeness property the whole design hangs on
// (Sec IV-E): "a super-set of the actual node set — with false positives,
// but WITHOUT false dismissals".
//
// Under arbitrary random-walk dynamics we cannot predict which streams
// *should* match a query at any instant, but a sufficient condition is
// checkable: if every feature vector a stream ever emitted stayed inside
// the query ball (with slack), then a continuous query with enough runtime
// MUST report that stream. We shadow the feature pipeline outside the
// system with the strategy's own summarizer (same inputs -> same features)
// and assert the implication over many random seeds, on a one-hop ring and
// on a multi-hop Chord overlay, where the one range node designated to
// report a pair can sit many hops from the query's middle node.
//
// dft and ecm route by Eq. 6 over coordinates in [-1, 1], so both must be
// exact. lsh's probe cap can drop a corner bucket by design, so it is held
// to its docs/STRATEGIES.md floor over the pooled obligations of all seeds.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "chord/network.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"
#include "streams/generators.hpp"
#include "streams/summarizer.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;
constexpr unsigned kIdBits = 24;
// Six random walks plus one unit-step ramp (the last stream). Every
// z-normalized window of a ramp is the same, so its feature vector never
// moves and a query centered on it is always owed that stream.
constexpr std::size_t kStreams = 7;

MiddlewareConfig config(StrategyKind strategy) {
  MiddlewareConfig cfg;
  cfg.strategy = strategy;
  cfg.features.window_size = kWindow;
  cfg.features.num_coefficients = 2;
  cfg.batching.batch_size = 3;
  cfg.mbr_lifespan = sim::Duration::seconds(8);
  cfg.notify_period = sim::Duration::millis(500);
  return cfg;
}

enum class Substrate {
  kStaticRing,  // 8 nodes, one hop to any key
  kChord,       // 64 nodes, O(log N) hops
};

struct Case {
  Substrate substrate;
  StrategyKind strategy;
  std::uint64_t seed;
};

// The instantiation prefix names the substrate; test names and the ctest
// entries discovered from them carry the seed alone.
void PrintTo(const Case& c, std::ostream* os) { *os << c.seed; }

std::unique_ptr<routing::RoutingSystem> make_ring(sim::Simulator& sim,
                                                  const Case& c) {
  const common::IdSpace space(kIdBits);
  if (c.substrate == Substrate::kStaticRing) {
    return std::make_unique<routing::StaticRing>(
        sim, space, routing::hash_node_ids(8, space, c.seed));
  }
  chord::ChordConfig chord_config;
  chord_config.id_bits = kIdBits;
  auto chord = std::make_unique<chord::ChordNetwork>(sim, chord_config);
  chord->bootstrap(routing::hash_node_ids(64, space, c.seed));
  return chord;
}

/// The obligations of one run: streams that every query must report, and
/// a line for each one it did not.
struct Outcome {
  int obligations = 0;
  std::vector<std::string> dismissals;
};

Outcome run_case(const Case& c) {
  sim::Simulator sim;
  const std::unique_ptr<routing::RoutingSystem> ring = make_ring(sim, c);
  const std::size_t nodes = ring->num_nodes();
  MiddlewareSystem system(*ring, config(c.strategy));
  system.start();

  common::RngFactory rng_factory(c.seed);
  std::vector<streams::RandomWalkGenerator> walks;
  // Our ground-truth mirror of each stream's summary.
  std::vector<std::unique_ptr<streams::Summarizer>> shadows;
  std::vector<std::vector<dsp::FeatureVector>> emitted(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    system.register_stream(static_cast<NodeIndex>(s % nodes), 100 + s);
    if (s + 1 < kStreams) {
      walks.emplace_back(rng_factory.make("walk", s));
    } else {
      walks.emplace_back(rng_factory.make("walk", s), 0.0, 1.0, 1.0);
    }
    shadows.push_back(system.strategy().make_summarizer());
  }

  struct PostedQuery {
    QueryId id;
    dsp::FeatureVector center;
    double radius;
    std::size_t posted_at_step;
  };
  std::vector<PostedQuery> queries;
  common::Pcg32 query_rng = rng_factory.make("queries");

  constexpr int kSteps = 200;
  dsp::FeatureVector features;
  for (int step = 0; step < kSteps; ++step) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      const Sample value = walks[s].next();
      system.post_stream_value(static_cast<NodeIndex>(s % nodes), 100 + s,
                               value);
      shadows[s]->push(value);
      if (shadows[s]->features_into(features)) {
        emitted[s].push_back(features);
      }
    }
    // Pose a few queries early, centered on live stream states so the
    // always-inside condition is sometimes satisfiable; the last one is
    // centered on the ramp, so it always is.
    if (step == 40 || step == 50 || step == 60) {
      const std::size_t target =
          step == 60 ? kStreams - 1 : query_rng.bounded(kStreams);
      if (shadows[target]->features_into(features)) {
        const double radius = query_rng.uniform(0.3, 0.6);
        const QueryId id = system.subscribe_similarity(
            static_cast<NodeIndex>(query_rng.bounded(
                static_cast<std::uint32_t>(nodes))),
            features, radius, sim::Duration::seconds(600));
        queries.push_back(
            PostedQuery{id, features, radius, emitted[target].size()});
      }
    }
    sim.run_until(sim.now() + sim::Duration::millis(100));
  }
  // Generous run-out: every periodic stage (match, report to the middle
  // node, aggregate, push) gets many cycles.
  sim.run_until(sim.now() + sim::Duration::seconds(15));

  EXPECT_FALSE(queries.empty());
  // The routed storage unit is one MBR = the bounding box of batch_size
  // consecutive feature vectors (aligned to the stream's emission order).
  // Obligation: if any fully-post-query batch's box sits strictly inside
  // the query ball, its routing interval meets the ball's, so the stored
  // range of that MBR meets the query's routed range (the ContentKeyMap
  // placement rule). The node covering their nearest overlap key holds
  // both the batch and the subscription and is the pair's designated
  // reporter, so the stream MUST eventually be reported.
  const std::size_t beta = config(c.strategy).batching.batch_size;
  auto box_inside_ball = [](const dsp::Mbr& box,
                            const dsp::FeatureVector& center, double radius) {
    const auto reals = center.as_reals();
    double worst = 0.0;
    for (std::size_t d = 0; d < reals.size(); ++d) {
      const double lo_gap = std::abs(reals[d] - box.low()[d]);
      const double hi_gap = std::abs(reals[d] - box.high()[d]);
      const double gap = std::max(lo_gap, hi_gap);
      worst += gap * gap;
    }
    return std::sqrt(worst) <= radius * 0.999;
  };

  Outcome outcome;
  for (const PostedQuery& query : queries) {
    const ClientQueryRecord* record = system.client_record(query.id);
    EXPECT_NE(record, nullptr);
    if (record == nullptr) {
      continue;
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      bool must_match = false;
      for (std::size_t batch = 0;
           (batch + 1) * beta <= emitted[s].size() && !must_match; ++batch) {
        if (batch * beta < query.posted_at_step) {
          continue;  // batch overlaps the pre-query era: no obligation
        }
        const dsp::Mbr box = dsp::bounding_box(
            std::span<const dsp::FeatureVector>(emitted[s])
                .subspan(batch * beta, beta));
        must_match = box_inside_ball(box, query.center, query.radius);
      }
      if (must_match) {
        ++outcome.obligations;
        if (!record->matched_streams.contains(100 + s)) {
          std::ostringstream line;
          line << strategy_name(c.strategy) << " seed=" << c.seed
               << " query=" << query.id << " stream=" << 100 + s;
          outcome.dismissals.push_back(line.str());
        }
      }
    }
  }
  return outcome;
}

class NoFalseDismissal : public ::testing::TestWithParam<Case> {};

TEST_P(NoFalseDismissal, EveryAlwaysInsideStreamIsReported) {
  const Outcome outcome = run_case(GetParam());
  for (const std::string& line : outcome.dismissals) {
    ADD_FAILURE() << "FALSE DISMISSAL: " << line;
  }
  // The ramp query always owes its stream, so no seed passes vacuously.
  EXPECT_GT(outcome.obligations, 0)
      << "no in-ball batch for seed " << GetParam().seed;
}

constexpr std::uint64_t kSeeds = 12;

std::vector<Case> seeds(Substrate substrate, StrategyKind strategy) {
  std::vector<Case> cases;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    cases.push_back(Case{substrate, strategy, seed});
  }
  return cases;
}

std::string seed_name(const ::testing::TestParamInfo<Case>& info) {
  return std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NoFalseDismissal,
    ::testing::ValuesIn(seeds(Substrate::kStaticRing, StrategyKind::kDft)),
    seed_name);
INSTANTIATE_TEST_SUITE_P(
    Chord, NoFalseDismissal,
    ::testing::ValuesIn(seeds(Substrate::kChord, StrategyKind::kDft)),
    seed_name);
INSTANTIATE_TEST_SUITE_P(
    EcmSeeds, NoFalseDismissal,
    ::testing::ValuesIn(seeds(Substrate::kStaticRing, StrategyKind::kEcm)),
    seed_name);
INSTANTIATE_TEST_SUITE_P(
    EcmChord, NoFalseDismissal,
    ::testing::ValuesIn(seeds(Substrate::kChord, StrategyKind::kEcm)),
    seed_name);

// lsh: the share of the pooled obligations of all seeds on one substrate
// that were reported must meet the strategy's floor.
constexpr double kLshFloor = 0.55;

class LshDismissalFloor : public ::testing::TestWithParam<Substrate> {};

TEST_P(LshDismissalFloor, PooledObligationsMeetTheStrategyFloor) {
  int obligations = 0;
  std::size_t dismissed = 0;
  for (const Case& c : seeds(GetParam(), StrategyKind::kLsh)) {
    const Outcome outcome = run_case(c);
    obligations += outcome.obligations;
    dismissed += outcome.dismissals.size();
  }
  ASSERT_GT(obligations, 0);
  const double reported =
      static_cast<double>(obligations - static_cast<int>(dismissed)) /
      obligations;
  EXPECT_GE(reported, kLshFloor)
      << dismissed << " of " << obligations << " obligations dismissed";
}

std::string substrate_name(const ::testing::TestParamInfo<Substrate>& info) {
  return info.param == Substrate::kStaticRing ? "StaticRing" : "Chord";
}

INSTANTIATE_TEST_SUITE_P(
    Lsh, LshDismissalFloor,
    ::testing::Values(Substrate::kStaticRing, Substrate::kChord),
    substrate_name);

}  // namespace
}  // namespace sdsi::core
