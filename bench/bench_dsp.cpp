// Micro-benchmarks (google-benchmark) for the stream-processing substrate —
// ablation A5: the paper's Sec III-C claim that incremental coefficient
// maintenance (Eq. 5) beats recomputing the transform per arriving item.
//
// Usage: bench_dsp [--smoke] [--json <path>] [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/index_store.hpp"
#include "dsp/dft.hpp"
#include "dsp/features.hpp"
#include "dsp/mbr.hpp"
#include "dsp/normalize.hpp"
#include "dsp/sliding_dft.hpp"
#include "streams/summarizer.hpp"

namespace {

using namespace sdsi;

std::vector<Sample> random_signal(std::size_t n) {
  common::Pcg32 rng(n, 9);
  std::vector<Sample> signal(n);
  for (Sample& x : signal) {
    x = rng.uniform(-1.0, 1.0);
  }
  return signal;
}

void BM_NaiveDftPerItem(benchmark::State& state) {
  // Recompute the full O(N^2) transform on every arrival (the strawman).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto signal = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::naive_dft(signal));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveDftPerItem)->Arg(32)->Arg(128)->Arg(512);

void BM_FftPerItem(benchmark::State& state) {
  // Recompute an O(N log N) FFT on every arrival.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto signal = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::fft(signal));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FftPerItem)->Arg(32)->Arg(128)->Arg(512);

void BM_SlidingDftPerItem(benchmark::State& state) {
  // Eq. 5: O(k) per arrival.
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::SlidingDft dft(n, 3);
  common::Pcg32 rng(n, 10);
  for (auto _ : state) {
    dft.push(rng.uniform(-1.0, 1.0));
    benchmark::DoNotOptimize(dft.coefficients());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlidingDftPerItem)->Arg(32)->Arg(128)->Arg(512);

void BM_SummarizerPerItem(benchmark::State& state) {
  // Full production path: raw sample -> normalized k-coefficient features.
  dsp::FeatureConfig config;
  config.window_size = static_cast<std::size_t>(state.range(0));
  config.num_coefficients = 2;
  streams::StreamSummarizer summarizer(config);
  common::Pcg32 rng(7, 7);
  Sample value = 0.0;
  for (auto _ : state) {
    value += rng.uniform(-1.0, 1.0);
    summarizer.push(value);
    benchmark::DoNotOptimize(summarizer.features());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SummarizerPerItem)->Arg(32)->Arg(128)->Arg(512);

void BM_ExtractFeaturesBatch(benchmark::State& state) {
  // One-shot extraction (query path).
  dsp::FeatureConfig config;
  config.window_size = static_cast<std::size_t>(state.range(0));
  config.num_coefficients = 2;
  const auto window = random_signal(config.window_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::extract_features(window, config));
  }
}
BENCHMARK(BM_ExtractFeaturesBatch)->Arg(32)->Arg(128)->Arg(512);

void BM_MbrMatch(benchmark::State& state) {
  // Index-side candidate test: MBR vs query ball.
  common::Pcg32 rng(1, 1);
  std::vector<dsp::Mbr> boxes;
  for (int i = 0; i < 256; ++i) {
    const double lo = rng.uniform(-1.0, 0.9);
    boxes.emplace_back(std::vector<double>{lo, lo},
                       std::vector<double>{lo + 0.05, lo + 0.05});
  }
  const dsp::FeatureVector query({dsp::Complex{0.2, 0.1}});
  for (auto _ : state) {
    int hits = 0;
    for (const dsp::Mbr& box : boxes) {
      hits += box.intersects_ball(query, 0.1) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_MbrMatch);

void BM_IndexStoreMatch(benchmark::State& state) {
  // Per-tick matching cost at one node: `subs` live subscriptions against
  // `mbrs` stored boxes through the key-interval pruned engine (see
  // bench_matching for the pruned-vs-brute comparison). Match sets are
  // consumed by the dedup logic, so rebuild the store each iteration, but
  // time only match().
  const auto mbrs = static_cast<std::size_t>(state.range(0));
  const auto subs = static_cast<std::size_t>(state.range(1));
  common::Pcg32 rng(9, 9);
  const auto expires =
      sim::SimTime::zero() + sim::Duration::seconds(3600);
  for (auto _ : state) {
    state.PauseTiming();
    core::IndexStore store;
    for (std::size_t i = 0; i < mbrs; ++i) {
      const double lo = rng.uniform(-1.0, 0.9);
      core::IndexStore::StoredMbr entry;
      entry.stream = i;
      entry.mbr = dsp::Mbr({lo, lo}, {lo + 0.05, lo + 0.05});
      entry.expires = expires;
      store.add_mbr(std::move(entry));
    }
    for (std::size_t q = 0; q < subs; ++q) {
      core::SimilarityQuery query;
      query.id = q;
      query.features =
          dsp::FeatureVector({dsp::Complex{rng.uniform(-1.0, 1.0),
                                           rng.uniform(-1.0, 1.0)}});
      query.radius = 0.1;
      store.add_subscription(
          std::make_shared<const core::SimilarityQuery>(std::move(query)), 0,
          expires);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.match(sim::SimTime::zero()));
  }
}
BENCHMARK(BM_IndexStoreMatch)
    ->Args({20, 10})
    ->Args({100, 50})
    ->Args({500, 200});

void BM_Reconstruct(benchmark::State& state) {
  // Eq. 7 inverse reconstruction (inner-product answering path).
  dsp::FeatureConfig config;
  config.window_size = static_cast<std::size_t>(state.range(0));
  config.num_coefficients = 2;
  const auto features =
      dsp::extract_features(random_signal(config.window_size), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::reconstruct(features, config));
  }
}
BENCHMARK(BM_Reconstruct)->Arg(32)->Arg(128);

void BM_ZNormalize(benchmark::State& state) {
  const auto window = random_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::z_normalize(window));
  }
}
BENCHMARK(BM_ZNormalize)->Arg(128);

// Captures every finished run for the BENCH_dsp.json emission layer while
// still printing the normal console table.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(sdsi::bench::JsonBenchReporter* sink)
      : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      sdsi::bench::BenchResult result;
      const std::string full = run.benchmark_name();
      const std::size_t slash = full.find('/');
      result.name = full.substr(0, slash);
      result.config =
          slash == std::string::npos ? "" : "n=" + full.substr(slash + 1);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        result.ops_per_sec = items->second;
      } else if (run.real_accumulated_time > 0.0) {
        result.ops_per_sec = static_cast<double>(run.iterations) /
                             run.real_accumulated_time;
      }
      result.wall_ms = run.real_accumulated_time * 1e3;
      sink_->add(std::move(result));
    }
  }

 private:
  sdsi::bench::JsonBenchReporter* sink_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = sdsi::bench::consume_json_flag(argc, argv);
  const bool smoke = sdsi::bench::consume_flag(argc, argv, "--smoke");

  // Rebuild argv so --smoke maps onto a short google-benchmark min time.
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.02";
  if (smoke) {
    args.push_back(min_time.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());

  sdsi::bench::JsonBenchReporter reporter("dsp");
  JsonCaptureReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.write(json_path)) {
    return 1;
  }
  return 0;
}
