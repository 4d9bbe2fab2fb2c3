#include "sim.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <any>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "calibration.hpp"
#include "core/experiment.hpp"
#include "core/robustness.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "streams/generators.hpp"

namespace sdsi::bench {
namespace {

constexpr std::size_t kNodes = 1000;
constexpr double kWarmupS = 120.0;  // the DFT window fills, queries settle
constexpr double kChunkS = 2.0;     // oracle sampling cadence
constexpr int kSlices = 8;
// Chunks per slice per second of --seconds: at ~70 ms of wall time per
// simulated second, --seconds 10 gives 8 slices of 16 simulated seconds.
constexpr double kChunksPerSecond = 0.8;
constexpr int kSetupReps = 5;
// The untraced pass also measures its timed window in this many forked
// copies of the process, one after another. They do the identical simulated
// work, and host contention only ever adds time, so each slice counts the
// least any of them paid.
constexpr int kForkedCopies = 2;

/// Forwards every routing observation to the middleware's own collector and
/// notes when each (query, stream) pair first reaches its client.
class DeliveryWatch final : public routing::MetricsHook {
 public:
  DeliveryWatch(routing::MetricsHook& inner, const sim::Simulator& sim)
      : inner_(inner), sim_(sim) {}

  void on_send(NodeIndex from, const routing::Message& msg) override {
    inner_.on_send(from, msg);
  }
  void on_transit(NodeIndex via, const routing::Message& msg) override {
    inner_.on_transit(via, msg);
  }
  void on_deliver(NodeIndex at, const routing::Message& msg) override {
    inner_.on_deliver(at, msg);
    if (msg.kind != routing::MsgKind::kResponse) {
      return;
    }
    const auto* payload =
        std::any_cast<std::shared_ptr<const core::ResponsePayload>>(
            &msg.payload);
    if (payload == nullptr || (*payload)->client != at) {
      return;
    }
    for (const core::SimilarityMatch& match : (*payload)->matches) {
      first_seen_.try_emplace(pair_code((*payload)->query, match.stream),
                              sim_.now().as_seconds());
    }
  }
  void on_drop(fault::DropCause cause, const routing::Message& msg) override {
    inner_.on_drop(cause, msg);
  }
  void on_detour(NodeIndex around, const routing::Message& msg) override {
    inner_.on_detour(around, msg);
  }
  void on_oracle_fallback(NodeIndex node) override {
    inner_.on_oracle_fallback(node);
  }

  const std::unordered_map<std::uint64_t, double>& first_seen() const {
    return first_seen_;
  }

 private:
  routing::MetricsHook& inner_;
  const sim::Simulator& sim_;
  std::unordered_map<std::uint64_t, double> first_seen_;
};

/// Classes each step body by the first trace record it emits: an overlay
/// transit, a delivery of some message kind, or neither (sample emission,
/// NPER tick, expiry).
class StepClassifier final : public obs::TraceSink {
 public:
  static constexpr std::size_t kPeriodic = 0;
  static constexpr std::size_t kTransit = routing::kNumMsgKinds + 1;
  static constexpr std::size_t kClasses = kTransit + 1;  // 1..16: deliver

  void start_step() {
    decided_ = false;
    cls_ = kPeriodic;
    request_ = 0;
  }
  void record(const obs::TraceRecord& record) override {
    if (decided_) {
      return;
    }
    decided_ = true;
    request_ = record.trace_id;
    if (record.event == obs::TraceEventKind::kTransit) {
      cls_ = kTransit;
    } else if (record.event == obs::TraceEventKind::kDeliver &&
               record.kind >= 1 && record.kind <= routing::kNumMsgKinds) {
      cls_ = static_cast<std::size_t>(record.kind);
    }
  }
  std::size_t cls() const noexcept { return cls_; }
  std::uint64_t request() const noexcept { return request_; }

 private:
  bool decided_ = false;
  std::size_t cls_ = kPeriodic;
  std::uint64_t request_ = 0;
};

std::string class_span_name(std::size_t cls) {
  if (cls == StepClassifier::kPeriodic) {
    return "core.periodic";
  }
  if (cls == StepClassifier::kTransit) {
    return "routing.transit";
  }
  return std::string("core.handle.") +
         routing::msg_kind_name(static_cast<routing::MsgKind>(cls));
}

struct Digest {
  std::uint64_t queries = 0;
  std::uint64_t responses = 0;
  std::uint64_t matched = 0;
  std::uint64_t oracle_pairs = 0;
  bool operator==(const Digest&) const = default;
};

struct SimPass {
  std::vector<double> setup_s;
  double timed_s = 0.0;
  // CPU per sample at reference host speed, one per slice.
  std::vector<double> slice_cpu_us;
  // Per slice, the least that this pass or one of its forked copies paid.
  std::vector<double> least_slice_cpu_us;
  double cpu_s = 0.0;  // raw CPU of the timed window, oracle excluded
  double calibration_ms = 0.0;  // mean kernel time
  double peak_rss_mb = 0.0;     // growth over the pass
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  double load_events = 0.0;
  Digest digest;
  double recall = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t extra = 0;
  std::vector<double> detect_ms;
  double hops_mbr = 0.0;
  double hops_query = 0.0;
  double hops_response = 0.0;
  double copies_per_mbr = 0.0;
  double copies_per_query = 0.0;
};

std::uint64_t samples_seen(const core::MiddlewareSystem& system) {
  std::uint64_t total = 0;
  for (NodeIndex node = 0; node < system.num_nodes(); ++node) {
    for (const auto& [id, local] : system.node(node).streams) {
      total += local.summarizer->samples_seen();
    }
  }
  return total;
}

sim::SimTime at_seconds(double s) {
  return sim::SimTime::zero() + sim::Duration::seconds(s);
}

/// One query the benchmark poses, generated before any timing starts.
struct PlannedQuery {
  double due_s = 0.0;
  NodeIndex client = 0;
  dsp::FeatureVector features;
  sim::Duration lifespan;
};

/// Table I's query workload — QRATE, lifespans in [QMIN, QMAX], random-walk
/// patterns, a uniformly drawn client — sampled evenly instead of at random.
/// Query j is due inside the j-th slot of length 1 / QRATE at a phase from a
/// golden-ratio sequence, and its lifespan comes from a second
/// low-discrepancy sequence over [QMIN, QMAX]; both start at a seeded point.
/// The live-query population sets most of the simulator's work (the match
/// scans), and with the harness's Poisson arrivals that work per sample
/// spread 13.5% between seeds; sampled this way it spreads 6.3%.
std::vector<PlannedQuery> plan_queries(const core::ExperimentConfig& config,
                                       double horizon_s) {
  const core::WorkloadConfig& table = config.workload;
  const auto strategy = core::IndexingStrategy::make(
      config.strategy, config.features, common::IdSpace(config.id_bits));
  common::RngFactory factory(config.seed);
  common::Pcg32 rng = factory.make("bench-sim-queries");
  const double phase0 = rng.uniform01();
  const double life0 = rng.uniform01();
  const double golden = (std::sqrt(5.0) - 1.0) / 2.0;
  const double silver = std::sqrt(2.0) - 1.0;
  const std::int64_t qmin = table.query_lifespan_min.count_micros();
  const auto qspan =
      static_cast<double>(table.query_lifespan_max.count_micros() - qmin);
  std::vector<PlannedQuery> plan;
  std::vector<Sample> window(config.features.window_size);
  for (std::uint64_t j = 0;; ++j) {
    const auto k = static_cast<double>(j);
    const double due = (k + std::fmod(phase0 + golden * k, 1.0)) /
                       table.query_rate_per_sec;
    if (due >= horizon_s) {
      break;
    }
    streams::RandomWalkGenerator walk(
        factory.make("bench-sim-query-pattern", j));
    for (Sample& x : window) {
      x = walk.next();
    }
    const double life = std::fmod(life0 + silver * k, 1.0);
    plan.push_back(PlannedQuery{
        due, static_cast<NodeIndex>(rng.bounded(kNodes)),
        strategy->features_from_window(window),
        sim::Duration::micros(qmin + static_cast<std::int64_t>(life * qspan))});
  }
  return plan;
}

/// CPU cost of the timed window.
struct WindowCost {
  // CPU per sample at reference host speed, one per slice.
  std::vector<double> slice_cpu_us;
  double cpu_s = 0.0;           // raw CPU of every slice
  double calibration_ms = 0.0;  // mean kernel time
};

/// Steps the timed window chunk by chunk with `step_chunk(boundary)`. After
/// each chunk, outside the measured CPU time, it calls `between(boundary)`
/// and times one calibration kernel.
template <typename StepChunk, typename Between>
WindowCost measure_window(const core::MiddlewareSystem& system,
                          double warmup_s, int chunks, Calibrator& calibrator,
                          StepChunk&& step_chunk, Between&& between) {
  WindowCost cost;
  CalibrationWindow calibration;
  const int chunks_per_slice = chunks / kSlices;
  std::uint64_t slice_samples0 = samples_seen(system);
  double slice_cpu = 0.0;
  for (int c = 1; c <= chunks; ++c) {
    const sim::SimTime boundary = at_seconds(warmup_s + c * kChunkS);
    const double cpu_start = process_cpu_seconds();
    step_chunk(boundary);
    slice_cpu += process_cpu_seconds() - cpu_start;
    between(boundary);
    const double kernel_ms = calibrator.run_ms();
    calibration.add(kernel_ms);
    cost.calibration_ms += kernel_ms / chunks;
    if (c % chunks_per_slice == 0) {
      const std::uint64_t now_samples = samples_seen(system);
      cost.slice_cpu_us.push_back(
          ratio(slice_cpu * 1e6 * calibration.factor(),
                static_cast<double>(now_samples - slice_samples0)));
      cost.cpu_s += slice_cpu;
      calibration.clear();
      slice_cpu = 0.0;
      slice_samples0 = now_samples;
    }
  }
  return cost;
}

/// Runs `measure` in a forked copy of this process and returns the kSlices
/// costs it measured. The copy starts from this process's simulator state,
/// so it does the identical simulated work; it leaves this process's state
/// and files alone and ends with _exit.
template <typename Measure>
std::vector<double> forked_slice_costs(Measure&& measure) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const std::vector<double> slices = measure();
      const auto* bytes = reinterpret_cast<const char*>(slices.data());
      std::size_t left = slices.size() * sizeof(double);
      while (left > 0) {
        const ssize_t n = write(fds[1], bytes, left);
        if (n <= 0) {
          break;
        }
        bytes += n;
        left -= static_cast<std::size_t>(n);
      }
      code = left == 0 ? 0 : 1;
    } catch (...) {
    }
    _exit(code);
  }
  close(fds[1]);
  std::vector<double> slices(kSlices);
  auto* bytes = reinterpret_cast<char*>(slices.data());
  const std::size_t want = slices.size() * sizeof(double);
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = read(fds[0], bytes + got, want - got);
    if (n <= 0) {
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      got != want) {
    throw std::runtime_error(
        "a forked copy measuring the timed window failed");
  }
  return slices;
}

SimPass run_pass(const core::ExperimentConfig& config,
                 const std::vector<PlannedQuery>& plan, double warmup_s,
                 double timed_s, SpanRecorder* spans) {
  SimPass pass;
  pass.timed_s = timed_s;
  Calibrator calibrator;
  const PeakRss rss;
  std::unique_ptr<core::Experiment> experiment;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    experiment.reset();
    const std::int64_t start = mono_ns();
    experiment = std::make_unique<core::Experiment>(config);
    experiment->prepare();
    const double raw_s = static_cast<double>(mono_ns() - start) / 1e9;
    pass.setup_s.push_back(raw_s * kSyscallReferenceMs / syscall_kernel_ms());
  }
  sim::Simulator& sim = experiment->simulator();
  core::MiddlewareSystem& system = experiment->system();
  routing::RoutingSystem& routing = experiment->routing_system();
  for (const PlannedQuery& query : plan) {
    sim.schedule_at(at_seconds(query.due_s), [&system, &query, &config] {
      system.subscribe_similarity(query.client, query.features,
                                  config.workload.query_radius,
                                  query.lifespan);
    });
  }

  // Benchmark-owned observers: they add no simulator events. A publication
  // is only noted inside the hook; the oracle's shadow store and the
  // reference take it between chunks, outside the measured CPU time (the
  // oracle matches by brute force at sample time, so the result is the same).
  core::RecallOracle oracle;
  std::map<StreamId, std::vector<RefBatch>> batches;
  std::unordered_map<core::QueryId, RefQuery> queries;
  std::vector<std::pair<core::MbrPayload, sim::SimTime>> published;
  system.set_publish_hook([&](const core::MbrPayload& payload) {
    published.emplace_back(payload, sim.now());
  });
  const auto take_published = [&] {
    for (const auto& [payload, at] : published) {
      oracle.on_publish(payload, at);
      batches[payload.stream].push_back(RefBatch{payload.stream,
                                                 at.as_seconds(),
                                                 payload.expires.as_seconds(),
                                                 payload.mbr});
    }
    published.clear();
  };
  system.set_query_hook([&](std::shared_ptr<const core::SimilarityQuery> q) {
    queries.emplace(q->id, RefQuery{q->id, q->issued_at.as_seconds(),
                                    (q->issued_at + q->lifespan).as_seconds(),
                                    q->features, q->radius});
    oracle.on_subscribe(std::move(q));
  });
  DeliveryWatch watch(system.metrics(), sim);
  routing.set_metrics_hook(&watch);

  for (double t = kChunkS; t <= warmup_s; t += kChunkS) {
    sim.run_until(at_seconds(t));
    take_published();
    oracle.sample(at_seconds(t));
  }
  system.metrics().reset();
  system.metrics().set_enabled(true);

  StepClassifier classifier;
  std::int64_t body_start = 0;
  std::uint32_t step_span = 0;
  std::uint32_t dequeue_span = 0;
  std::vector<std::uint32_t> class_spans;
  if (spans != nullptr) {
    step_span = spans->name_id("sim.step");
    dequeue_span = spans->name_id("sim.dequeue");
    for (std::size_t cls = 0; cls < StepClassifier::kClasses; ++cls) {
      class_spans.push_back(spans->name_id(class_span_name(cls)));
    }
    routing.set_trace_sink(&classifier);
    sim.set_execution_probe(
        [&body_start](sim::SimTime, SeqNo) { body_start = mono_ns(); });
    spans->set_keeping(true);
  }

  const auto chunks = static_cast<int>(std::llround(timed_s / kChunkS));
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t samples0 = samples_seen(system);
  const auto step_plain = [&sim](sim::SimTime boundary) {
    while (sim.now() < boundary && sim.step()) {
    }
  };
  // Each step splits at the execution probe: dequeue before it, the event
  // body after.
  const auto step_traced = [&](sim::SimTime boundary) {
    while (sim.now() < boundary) {
      classifier.start_step();
      const std::int64_t start = mono_ns();
      if (!sim.step()) {
        break;
      }
      const std::int64_t end = mono_ns();
      const std::uint32_t step = spans->add(step_span, start, end, 0,
                                            SpanRecorder::kNoSpan,
                                            classifier.request());
      spans->add(dequeue_span, start, body_start, body_start - start, step, 0);
      spans->add(class_spans[classifier.cls()], body_start, end,
                 end - body_start, step, classifier.request());
    }
  };
  // Outside the measured CPU time: the oracle's brute-force pass.
  const auto between = [&](sim::SimTime boundary) {
    take_published();
    oracle.sample(boundary);
  };

  std::vector<std::vector<double>> copies;
  if (spans == nullptr) {
    for (int copy = 0; copy < kForkedCopies; ++copy) {
      copies.push_back(forked_slice_costs([&] {
        return measure_window(system, warmup_s, chunks, calibrator, step_plain,
                              [](sim::SimTime) {})
            .slice_cpu_us;
      }));
    }
  }
  const WindowCost own =
      spans == nullptr ? measure_window(system, warmup_s, chunks, calibrator,
                                        step_plain, between)
                       : measure_window(system, warmup_s, chunks, calibrator,
                                        step_traced, between);
  pass.slice_cpu_us = own.slice_cpu_us;
  pass.cpu_s = own.cpu_s;
  pass.calibration_ms = own.calibration_ms;
  pass.least_slice_cpu_us = own.slice_cpu_us;
  for (const std::vector<double>& copy : copies) {
    for (std::size_t k = 0; k < copy.size(); ++k) {
      pass.least_slice_cpu_us[k] =
          std::min(pass.least_slice_cpu_us[k], copy[k]);
    }
  }
  system.metrics().set_enabled(false);
  if (spans != nullptr) {
    spans->set_keeping(false);
    routing.set_trace_sink(nullptr);
    sim.set_execution_probe({});
  }
  pass.samples = samples_seen(system) - samples0;
  pass.events = sim.executed_events() - events0;

  const core::MetricsCollector& metrics = system.metrics();
  for (NodeIndex node = 0; node < kNodes; ++node) {
    pass.load_events += static_cast<double>(metrics.node_load_total(node));
  }
  pass.hops_mbr = metrics.mbr().hops_routed.mean();
  pass.hops_query = metrics.query().hops_routed.mean();
  pass.hops_response = metrics.response().hops_routed.mean();
  pass.copies_per_mbr =
      ratio(static_cast<double>(metrics.mbr().range_internal),
            static_cast<double>(metrics.mbr().originated));
  pass.copies_per_query =
      ratio(static_cast<double>(metrics.query().range_internal),
            static_cast<double>(metrics.query().originated));
  pass.drops = routing.total_drops();

  pass.digest.queries = queries.size();
  for (const auto& [id, record] : system.client_records()) {
    pass.digest.responses += record.responses_received;
    pass.digest.matched += record.matched_streams.size();
  }
  std::uint64_t oracle_delivered = 0;
  for (const auto& [query, stream] : oracle.pairs()) {
    const core::ClientQueryRecord* record = system.client_record(query);
    if (record != nullptr && record->matched_streams.contains(stream)) {
      ++oracle_delivered;
    }
  }
  pass.digest.oracle_pairs = oracle.pairs().size();
  pass.recall = ratio(static_cast<double>(oracle_delivered),
                      static_cast<double>(oracle.pairs().size()));

  // Every delivered pair must be one the inputs allow; its detection
  // latency runs from the reference start to its first arrival.
  ReferenceOptions options;
  options.margin_s = 1e-6;
  options.nper_s = config.workload.notify_period.as_seconds();
  options.horizon_s = warmup_s + timed_s + kChunkS;
  options.max_batch_life_s = config.workload.mbr_lifespan.as_seconds();
  static const std::vector<RefBatch> kNoBatches;
  for (const auto& [id, record] : system.client_records()) {
    const auto query = queries.find(id);
    for (const StreamId stream : record.matched_streams) {
      ++pass.delivered;
      const auto stream_batches = batches.find(stream);
      const std::optional<ReferencePair> pair =
          query == queries.end()
              ? std::nullopt
              : reference_pair(query->second,
                               stream_batches == batches.end()
                                   ? kNoBatches
                                   : stream_batches->second,
                               options);
      if (!pair.has_value()) {
        ++pass.extra;
        continue;
      }
      const auto seen = watch.first_seen().find(pair_code(id, stream));
      if (seen != watch.first_seen().end() && pair->start_s >= warmup_s &&
          pair->start_s < warmup_s + timed_s) {
        pass.detect_ms.push_back(std::max(0.0, seen->second - pair->start_s) *
                                 1e3);
      }
    }
  }
  routing.set_metrics_hook(&system.metrics());
  pass.peak_rss_mb = rss.growth_mb();
  return pass;
}

double summarize_replay_ns(const core::ExperimentConfig& config,
                           std::uint64_t seed) {
  const auto strategy = core::IndexingStrategy::make(
      config.strategy, config.features, common::IdSpace(config.id_bits));
  common::RngFactory factory(seed);
  constexpr int kStreams = 64;
  constexpr int kSamples = 2000;
  std::vector<std::vector<Sample>> samples(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    streams::RandomWalkGenerator walk(
        factory.make("bench-sim-replay", static_cast<std::uint64_t>(s)));
    for (int k = 0; k < kSamples; ++k) {
      samples[s].push_back(walk.next());
    }
  }
  dsp::FeatureVector features;
  std::uint64_t ready = 0;
  const std::int64_t start = mono_ns();
  for (const auto& stream : samples) {
    auto summarizer = strategy->make_summarizer();
    for (const Sample value : stream) {
      summarizer->push(value);
      if (summarizer->ready() && summarizer->features_into(features)) {
        ++ready;
      }
    }
  }
  const std::int64_t elapsed = mono_ns() - start;
  SDSI_CHECK(ready > 0);
  return static_cast<double>(elapsed) / (kStreams * kSamples);
}

}  // namespace

RunReport run_sim(const BenchOptions& options) {
  RunReport report;
  report.workload = kSimWorkload;
  core::ExperimentConfig config;
  config.num_nodes = kNodes;
  config.seed = options.seed;
  double warmup_s = kWarmupS;
  const double timed_s =
      kSlices * kChunkS *
      std::max(1.0, std::round(options.seconds * kChunksPerSecond));
  if (options.smoke) {
    warmup_s = 60.0;  // the 256-sample DFT windows fill after ~51 s
  }
  const std::vector<PlannedQuery> plan =
      plan_queries(config, warmup_s + timed_s);
  // The benchmark poses every query; the harness's own Poisson arrivals are
  // pushed past the run (a first gap of about 1e9 simulated seconds).
  config.workload.query_rate_per_sec = 1e-9;

  const SimPass plain = run_pass(config, plan, warmup_s, timed_s, nullptr);
  const double cpu_us = quantile(plain.least_slice_cpu_us, 0.5);
  report.set("detect_p50_ms", quantile(plain.detect_ms, 0.5), "ms");
  report.set("detect_p99_ms", quantile(plain.detect_ms, 0.99), "ms");
  report.set("cpu_us_per_sample", cpu_us, "us");
  report.set("msgs_per_sample",
             ratio(plain.load_events, static_cast<double>(plain.samples)),
             "msgs");
  report.set("recall", plain.recall, "ratio");
  report.set("setup_s", quantile(plain.setup_s, 0.5), "s");
  report.set("calibration_ms", plain.calibration_ms, "ms");
  report.set("detect_pairs", static_cast<double>(plain.detect_ms.size()),
             "count");
  report.set("drop_rate",
             ratio(static_cast<double>(plain.drops), plain.load_events),
             "ratio");
  report.set("sim_rate", ratio(timed_s, plain.cpu_s), "sim-s/cpu-s");
  report.set("msgs_per_node_s",
             plain.load_events / static_cast<double>(kNodes) / timed_s,
             "msgs/node/s");
  report.attempted = plain.delivered + static_cast<std::uint64_t>(
                                           plain.load_events);
  report.failed = plain.extra + plain.drops;
  if (plain.extra > 0) {
    report.fail(std::to_string(plain.extra) +
                " delivered pairs that no batch of the run allows");
  }
  if (plain.drops > 0) {
    report.fail(std::to_string(plain.drops) +
                " messages dropped on a fault-free simulation");
  }
  if (plain.digest.queries != plan.size() || plain.recall <= 0.0) {
    report.fail("the simulation posed " +
                std::to_string(plain.digest.queries) + " queries, not the " +
                std::to_string(plan.size()) +
                " planned, or delivered no match");
  }
  if (!options.smoke && plain.detect_ms.size() < kMinDetectPairs) {
    report.fail("only " + std::to_string(plain.detect_ms.size()) +
                " detection pairs in the timed window");
  }

  if (options.trace) {
    report.set("sim.events_per_sim_s",
               ratio(static_cast<double>(plain.events), timed_s), "1/s");
    report.set("routing.hops_mbr", plain.hops_mbr, "hops");
    report.set("routing.hops_query", plain.hops_query, "hops");
    report.set("routing.hops_response", plain.hops_response, "hops");
    report.set("routing.copies_per_mbr", plain.copies_per_mbr, "msgs");
    report.set("routing.copies_per_query", plain.copies_per_query, "msgs");

    SpanRecorder spans(kSpanKeepLimit);
    const SimPass traced = run_pass(config, plan, warmup_s, timed_s, &spans);
    if (!(traced.digest == plain.digest)) {
      report.fail("traced and untraced passes disagree on the quality "
                  "digest (queries, responses, matched streams, oracle "
                  "pairs)");
    }
    const SpanRecorder::Totals dequeue = spans.totals("sim.dequeue");
    report.set("sim.kernel_ns_per_event",
               ratio(static_cast<double>(dequeue.total_ns),
                     static_cast<double>(dequeue.count)),
               "ns");
    double body_ns = 0.0;
    double deliver_ns = 0.0;
    for (std::size_t cls = 0; cls < StepClassifier::kClasses; ++cls) {
      const double ns =
          static_cast<double>(spans.totals(class_span_name(cls)).total_ns);
      body_ns += ns;
      if (cls != StepClassifier::kPeriodic && cls != StepClassifier::kTransit) {
        deliver_ns += ns;
      }
    }
    const auto mean_ns = [&spans](const std::string& name) {
      const SpanRecorder::Totals totals = spans.totals(name);
      return ratio(static_cast<double>(totals.total_ns),
                   static_cast<double>(totals.count));
    };
    report.set("routing.transit_ns", mean_ns("routing.transit"), "ns");
    report.set("core.periodic_ns", mean_ns("core.periodic"), "ns");
    for (const routing::MsgKind kind :
         {routing::MsgKind::kMbrUpdate, routing::MsgKind::kSimilarityQuery,
          routing::MsgKind::kResponse, routing::MsgKind::kNeighborExchange}) {
      report.set(std::string("core.handle_ns.") + routing::msg_kind_name(kind),
                 mean_ns(class_span_name(static_cast<std::size_t>(kind))),
                 "ns");
    }
    report.set("sim.body_share.transit",
               ratio(static_cast<double>(
                         spans.totals("routing.transit").total_ns),
                     body_ns),
               "ratio");
    report.set("sim.body_share.deliver", ratio(deliver_ns, body_ns), "ratio");
    report.set(
        "sim.body_share.periodic",
        ratio(static_cast<double>(spans.totals("core.periodic").total_ns),
              body_ns),
        "ratio");
    report.set("dsp.summarize_ns", summarize_replay_ns(config, options.seed),
               "ns");
    report.set("trace.overhead",
               ratio(quantile(traced.slice_cpu_us, 0.5),
                     quantile(plain.slice_cpu_us, 0.5)) -
                   1.0,
               "ratio");
    report.set("trace.stage_sum_share",
               ratio((static_cast<double>(dequeue.total_ns) + body_ns) / 1e9,
                     traced.cpu_s),
               "ratio");
    if (!options.spans_path.empty() &&
        !spans.write_jsonl(options.spans_path, kSimWorkload)) {
      report.fail("cannot write " + options.spans_path);
    }
  }
  report.set("peak_rss_mb", plain.peak_rss_mb, "MB");
  return report;
}

}  // namespace sdsi::bench
