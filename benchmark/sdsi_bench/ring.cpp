#include "ring.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "calibration.hpp"
#include "common/rng.hpp"
#include "core/batcher.hpp"
#include "core/index_store.hpp"
#include "core/strategy.hpp"
#include "net/node.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "net/workload.hpp"
#include "reference.hpp"
#include "routing/static_ring.hpp"
#include "spans.hpp"

namespace sdsi::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNodes = 8;
constexpr unsigned kIdBits = 32;
constexpr std::uint64_t kRingSalt = 77;
constexpr double kNperS = 0.1;           // NPER pass cadence
constexpr double kBspanS = 5.0;          // Table I BSPAN (MBR lifespan)
constexpr double kReliabilityStepS = 0.01;
// Scheduling slack between a due time and the wall time the ring saw it;
// the generator's measured lag stays far below it.
constexpr double kMarginS = 0.25;
constexpr int kSetupReps = 15;
constexpr int kCpuSlices = 10;  // CPU per sample is the median over slices
// The generator wakes at most once per quantum: it publishes everything due,
// drains the sockets, and sleeps, so idle time is not spent spinning.
constexpr double kQuantumS = 1e-3;
constexpr int kMaxPollRounds = 16;
constexpr std::size_t kRecordedFramesPerKind = 2000;
constexpr std::size_t kReplayVectorLimit = 200'000;
constexpr std::size_t kKinds = routing::kNumMsgKinds + 1;

struct RingWorkload {
  const char* name;
  std::uint32_t streams;
  double sample_rate;  // samples/s over all streams
  double query_rate;   // queries/s
  double query_lifespan_s;
  double radius;
  bool reliable;
};

constexpr RingWorkload kWorkloads[] = {
    {"ring-ingest", 512, 32'000.0, 40.0, 0.5, 0.1, false},
    {"ring-match", 256, 2'000.0, 100.0, 10.0, 0.2, false},
    {"ring-reliable", 128, 1'500.0, 40.0, 5.0, 0.1, true},
};

struct Phases {
  double warmup_s = 6.0;
  double timed_s = 10.0;
  double drain_s = 1.0;

  double input_end() const { return warmup_s + timed_s; }
  double end() const { return input_end() + drain_s; }
};

/// Everything derived from the seed, generated before any timing starts.
struct RingInputs {
  net::WorkloadConfig config;
  std::vector<StreamId> stream_ids;     // by stream index
  std::vector<NodeIndex> stream_nodes;  // by stream index
  std::vector<std::vector<Sample>> samples;
  std::uint64_t total_samples = 0;
  std::vector<RefQuery> queries;     // posed_s is the due time
  std::vector<NodeIndex> clients;    // by query
  std::map<StreamId, std::vector<RefBatch>> batches;
  ReferenceSet reference;
};

RingInputs make_inputs(const RingWorkload& workload, const Phases& phases,
                       std::uint64_t seed) {
  RingInputs in;
  net::WorkloadConfig& config = in.config;
  config.nodes = kNodes;
  config.seed = seed;
  config.id_bits = kIdBits;
  config.ring_salt = kRingSalt;
  config.streams_per_node = workload.streams / kNodes;
  config.query_radius = workload.radius;
  const std::uint32_t streams = workload.streams;
  in.total_samples = static_cast<std::uint64_t>(
      std::floor(phases.input_end() * workload.sample_rate));
  config.samples_per_stream =
      static_cast<std::uint32_t>((in.total_samples + streams - 1) / streams);

  // Stream s lives on node s % 8, so consecutive samples visit every node.
  for (std::uint32_t s = 0; s < streams; ++s) {
    const NodeIndex node = s % kNodes;
    const StreamId id = net::workload_stream_id(config, node, s / kNodes);
    in.stream_ids.push_back(id);
    in.stream_nodes.push_back(node);
    in.samples.push_back(net::workload_samples(config, id));
  }

  const auto strategy = core::IndexingStrategy::make(
      config.strategy, config.features, common::IdSpace(kIdBits));
  const core::MbrBatcher::Options batching;
  for (std::uint32_t s = 0; s < streams; ++s) {
    auto summarizer = strategy->make_summarizer();
    core::MbrBatcher batcher(batching);
    dsp::FeatureVector features;
    std::vector<RefBatch>& out = in.batches[in.stream_ids[s]];
    for (std::uint64_t k = 0; k * streams + s < in.total_samples; ++k) {
      summarizer->push(in.samples[s][k]);
      if (!summarizer->ready() || !summarizer->features_into(features)) {
        continue;
      }
      if (std::optional<dsp::Mbr> mbr = batcher.push(features)) {
        const double due =
            static_cast<double>(k * streams + s) / workload.sample_rate;
        out.push_back(
            RefBatch{in.stream_ids[s], due, due + kBspanS, std::move(*mbr)});
      }
    }
  }

  // Query j is due inside the j-th slot of length 1 / rate, at a phase
  // from a golden-ratio sequence with a seeded start, and poses the current
  // window of the next stream of a seeded permutation, from the next node
  // in turn. Arrivals thus spread evenly over the NPER grid and every stream
  // is queried equally often, so percentiles and pair counts do not hinge
  // on a few draws; each query has at least its own stream as a match.
  common::RngFactory factory(seed);
  common::Pcg32 rng = factory.make("bench-ring-queries");
  std::vector<std::uint32_t> order(streams);
  for (std::uint32_t s = 0; s < streams; ++s) {
    order[s] = s;
  }
  for (std::uint32_t s = streams - 1; s > 0; --s) {
    std::swap(order[s], order[rng.bounded(s + 1)]);
  }
  const double phase0 = rng.uniform01();
  const std::uint32_t client0 = rng.bounded(kNodes);
  const double golden = (std::sqrt(5.0) - 1.0) / 2.0;
  const std::size_t window = config.features.window_size;
  for (std::uint64_t j = 0;; ++j) {
    const double phase =
        std::fmod(phase0 + golden * static_cast<double>(j), 1.0);
    const double due = (static_cast<double>(j) + phase) / workload.query_rate;
    if (due >= phases.input_end()) {
      break;
    }
    const std::uint32_t s = order[j % streams];
    const auto client = static_cast<NodeIndex>((client0 + j) % kNodes);
    const auto last = std::min(
        static_cast<std::uint64_t>(std::floor(due * workload.sample_rate)),
        in.total_samples - 1);
    const std::uint64_t published = last < s ? 0 : (last - s) / streams + 1;
    if (published < window) {
      continue;
    }
    const std::span<const Sample> samples(in.samples[s]);
    in.queries.push_back(RefQuery{
        in.queries.size() + 1, due, due + workload.query_lifespan_s,
        strategy->features_from_window(
            samples.subspan(published - window, window)),
        workload.radius});
    in.clients.push_back(client);
  }

  ReferenceOptions options;
  options.margin_s = kMarginS;
  options.nper_s = kNperS;
  options.horizon_s = phases.input_end();
  options.max_batch_life_s = kBspanS;
  in.reference = reference_pairs(in.queries, in.batches, options);
  return in;
}

/// Counters shared by the eight metered transports.
struct FrameMeter {
  SpanRecorder* spans = nullptr;  // set only inside the traced window
  std::uint32_t send_span = 0;
  std::uint32_t poll_span = 0;
  bool in_window = false;
  std::uint64_t sent_total = 0;
  std::array<std::uint64_t, kKinds> sent{};  // timed window, by kind
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::size_t record_limit = 0;  // frames kept per kind for the wire replay
  std::array<std::vector<routing::Message>, kKinds> recorded;
};

/// The benchmark's Transport decorator: counts every frame a node hands its
/// socket and, in the traced pass, times send (encode + enqueue + write) and
/// poll (syscalls + decode + the deliver upcalls, which are spans of their
/// own).
class MeteredTransport final : public net::Transport {
 public:
  MeteredTransport(net::SocketTransport& socket, FrameMeter& meter)
      : socket_(socket), meter_(meter) {}

  bool send(NodeIndex peer, const routing::Message& msg) override {
    ++meter_.sent_total;
    if (meter_.in_window) {
      const auto kind = static_cast<std::size_t>(msg.kind);
      ++meter_.sent[kind];
      if (meter_.recorded[kind].size() < meter_.record_limit) {
        meter_.recorded[kind].push_back(msg);
      }
    }
    SpanScope span(meter_.spans, meter_.send_span, msg.trace_id);
    return socket_.send(peer, msg);
  }

  void set_deliver(DeliverFn fn) override {
    socket_.set_deliver([this, fn = std::move(fn)](routing::Message&& msg) {
      ++delivered_;
      fn(std::move(msg));
    });
  }

  void poll(int budget_ms) override {
    const std::uint64_t before = delivered_;
    {
      SpanScope span(meter_.spans, meter_.poll_span);
      socket_.poll(budget_ms);
    }
    if (meter_.in_window) {
      ++meter_.polls;
      if (delivered_ == before) {
        ++meter_.empty_polls;
      }
    }
  }

  std::size_t peer_count() const override { return socket_.peer_count(); }

  std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  net::SocketTransport& socket_;
  FrameMeter& meter_;
  std::uint64_t delivered_ = 0;
};

/// Node counters summed over the ring.
struct RingCounters {
  std::uint64_t mbrs_published = 0;
  std::uint64_t mbrs_stored = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t socket_frames = 0;
  std::uint64_t socket_drops = 0;

  RingCounters operator-(const RingCounters& o) const {
    return RingCounters{mbrs_published - o.mbrs_published,
                        mbrs_stored - o.mbrs_stored,
                        refreshes - o.refreshes,
                        send_failures - o.send_failures,
                        bytes_sent - o.bytes_sent,
                        socket_frames - o.socket_frames,
                        socket_drops - o.socket_drops};
  }
};

/// What one pass measured.
struct PassResult {
  std::vector<double> setup_s;
  bool mesh_ok = true;
  // Timed window.
  double cpu_s = 0.0;  // raw, calibration excluded
  double wall_s = 0.0;
  double idle_s = 0.0;  // asleep or calibrating
  double calibration_ms = 0.0;  // mean kernel time inside the window
  double peak_rss_mb = 0.0;     // growth over the pass
  std::vector<double> slice_cpu_us;  // at reference host speed
  std::uint64_t samples = 0;
  std::vector<double> lag_ms;
  std::array<std::uint64_t, kKinds> frames_by_kind{};
  std::uint64_t frames = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  RingCounters window;
  std::uint64_t passes = 0;
  double scanned = 0.0;
  double store_mbrs = 0.0;  // summed per pass of the per-node mean
  double store_subs = 0.0;
  std::vector<double> tick_pass_ms;  // traced: self time per NPER pass
  std::uint64_t new_pairs = 0;
  std::uint64_t mbr_deliveries = 0;
  // Whole run.
  std::uint64_t frames_total = 0;
  std::uint64_t drops = 0;
  std::uint64_t detector_deaths = 0;
  std::unordered_map<std::uint64_t, double> first_seen;  // pair -> wall s
  std::set<PairKey> delivered;
  std::array<std::vector<routing::Message>, kKinds> recorded;
};

/// One run of a workload over a freshly built ring.
class RingPass {
 public:
  RingPass(const RingWorkload& workload, const RingInputs& inputs,
           const Phases& phases, SpanRecorder* spans)
      : workload_(workload),
        inputs_(inputs),
        phases_(phases),
        spans_(spans),
        space_(kIdBits),
        net_ring_(space_,
                  routing::hash_node_ids(kNodes, space_, kRingSalt)) {
    if (spans_ != nullptr) {
      publish_span_ = spans_->name_id("net_node.publish");
      subscribe_span_ = spans_->name_id("net_node.subscribe");
      tick_span_ = spans_->name_id("net_node.tick");
      heartbeat_span_ = spans_->name_id("net_node.heartbeat_tick");
      reliability_span_ = spans_->name_id("net_node.reliability_tick");
      meter_.send_span = spans_->name_id("socket.send");
      meter_.poll_span = spans_->name_id("socket.poll");
      for (std::size_t kind = 0; kind < kKinds; ++kind) {
        deliver_span_[kind] = spans_->name_id(
            std::string("net_node.deliver.") +
            routing::msg_kind_name(static_cast<routing::MsgKind>(kind)));
      }
      meter_.record_limit = kRecordedFramesPerKind;
    }
  }

  RingPass(const RingPass&) = delete;
  RingPass& operator=(const RingPass&) = delete;

  PassResult run();

 private:
  /// Transports, nodes and the fully connected mesh of one ring.
  struct Ring {
    std::vector<std::unique_ptr<net::SocketTransport>> sockets;
    std::vector<std::unique_ptr<MeteredTransport>> transports;
    std::vector<std::unique_ptr<net::NetNode>> nodes;
  };

  std::unique_ptr<Ring> build_ring();
  double since_start() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  void publish(std::uint64_t index, double t);
  void subscribe(std::size_t index, double t);
  void nper_pass();
  void reliability_pass(double t);
  void on_deliver(NodeIndex node, routing::Message&& msg);
  void note_pair(core::QueryId query, StreamId stream);
  void diff_results(NodeIndex node);
  RingCounters counters() const;
  void open_window(double t);
  void close_window(double t);
  void close_slice(double t);

  const RingWorkload& workload_;
  const RingInputs& inputs_;
  const Phases& phases_;
  SpanRecorder* spans_;
  SpanRecorder* active_spans_ = nullptr;  // spans_ inside the timed window
  common::IdSpace space_;
  net::NetRing net_ring_;
  FrameMeter meter_;
  std::unique_ptr<Ring> ring_;
  PassResult result_;
  Clock::time_point t0_;
  sim::SimTime now_;
  bool in_window_ = false;
  double cpu0_ = 0.0;
  double wall0_ = 0.0;
  RingCounters counters0_;
  Calibrator calibrator_;
  CalibrationWindow calibration_;  // kernel runs of the current slice
  double calibration_cpu_s_ = 0.0;  // kernel CPU inside the timed window
  double slice_end_ = 0.0;
  double slice_cpu0_ = 0.0;
  double slice_calibration_cpu_s_ = 0.0;
  std::uint64_t slice_samples0_ = 0;
  std::unordered_map<core::QueryId, std::size_t> seen_sizes_;
  std::uint32_t publish_span_ = 0;
  std::uint32_t subscribe_span_ = 0;
  std::uint32_t tick_span_ = 0;
  std::uint32_t heartbeat_span_ = 0;
  std::uint32_t reliability_span_ = 0;
  std::array<std::uint32_t, kKinds> deliver_span_{};
};

std::unique_ptr<RingPass::Ring> RingPass::build_ring() {
  auto ring = std::make_unique<Ring>();
  net::NetNodeConfig config;
  config.features = inputs_.config.features;
  config.strategy = inputs_.config.strategy;
  config.mbr_lifespan = sim::Duration::seconds(kBspanS);
  config.reliability.enabled = workload_.reliable;
  for (NodeIndex i = 0; i < kNodes; ++i) {
    ring->sockets.push_back(std::make_unique<net::SocketTransport>(0));
  }
  for (NodeIndex i = 0; i < kNodes; ++i) {
    for (NodeIndex j = 0; j < kNodes; ++j) {
      if (i != j) {
        ring->sockets[i]->set_peer(j, "127.0.0.1",
                                   ring->sockets[j]->listen_port());
      }
    }
    ring->transports.push_back(
        std::make_unique<MeteredTransport>(*ring->sockets[i], meter_));
    ring->nodes.push_back(std::make_unique<net::NetNode>(
        net_ring_, i, *ring->transports[i], config));
    ring->transports[i]->set_deliver([this, i](routing::Message&& msg) {
      on_deliver(i, std::move(msg));
    });
  }
  // An empty raw frame opens each outbound connection without putting a
  // protocol message on the wire.
  for (NodeIndex i = 0; i < kNodes; ++i) {
    for (NodeIndex j = 0; j < kNodes; ++j) {
      if (i != j) {
        ring->sockets[i]->send_raw(j, {});
      }
    }
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  bool connected = false;
  while (!connected && Clock::now() < deadline) {
    connected = true;
    for (NodeIndex i = 0; i < kNodes; ++i) {
      ring->sockets[i]->poll(0);
      for (NodeIndex j = 0; j < kNodes; ++j) {
        connected = connected && (i == j || ring->sockets[i]->connected(j));
      }
    }
  }
  // One more round lets every listener accept its inbound connections.
  for (NodeIndex i = 0; i < kNodes; ++i) {
    ring->sockets[i]->poll(0);
  }
  if (!connected) {
    result_.mesh_ok = false;
  }
  return ring;
}

RingCounters RingPass::counters() const {
  RingCounters c;
  for (NodeIndex i = 0; i < kNodes; ++i) {
    const net::NetNode::Counters& n = ring_->nodes[i]->counters();
    c.mbrs_published += n.mbrs_published;
    c.mbrs_stored += n.mbrs_stored;
    c.refreshes += n.mbr_refreshes + n.query_refreshes;
    c.send_failures += n.send_failures;
    const net::SocketTransportStats& s = ring_->sockets[i]->stats();
    c.bytes_sent += s.bytes_sent;
    c.socket_frames += s.frames_sent;
    c.socket_drops += s.dropped_overflow + s.decode_rejects;
  }
  return c;
}

void RingPass::publish(std::uint64_t index, double t) {
  const std::uint32_t streams = workload_.streams;
  const auto s = static_cast<std::size_t>(index % streams);
  const auto k = static_cast<std::size_t>(index / streams);
  {
    SpanScope span(active_spans_, publish_span_);
    ring_->nodes[inputs_.stream_nodes[s]]->publish_value(
        inputs_.stream_ids[s], inputs_.samples[s][k], now_);
  }
  if (in_window_) {
    ++result_.samples;
    result_.lag_ms.push_back(
        (t - static_cast<double>(index) / workload_.sample_rate) * 1e3);
  }
}

void RingPass::subscribe(std::size_t index, double t) {
  const RefQuery& query = inputs_.queries[index];
  {
    SpanScope span(active_spans_, subscribe_span_);
    ring_->nodes[inputs_.clients[index]]->subscribe_similarity(
        query.id, query.features, query.radius,
        sim::Duration::seconds(workload_.query_lifespan_s), now_);
  }
  if (in_window_) {
    result_.lag_ms.push_back((t - query.posed_s) * 1e3);
  }
}

void RingPass::note_pair(core::QueryId query, StreamId stream) {
  if (result_.first_seen.emplace(pair_code(query, stream), since_start())
          .second &&
      in_window_) {
    ++result_.new_pairs;
  }
}

void RingPass::on_deliver(NodeIndex node, routing::Message&& msg) {
  std::shared_ptr<const core::ResponsePayload> response;
  if (msg.kind == routing::MsgKind::kResponse) {
    if (const auto* payload =
            std::any_cast<std::shared_ptr<const core::ResponsePayload>>(
                &msg.payload)) {
      response = *payload;
    }
  } else if (msg.kind == routing::MsgKind::kMbrUpdate && in_window_) {
    ++result_.mbr_deliveries;
  }
  {
    SpanScope span(active_spans_,
                   deliver_span_[static_cast<std::size_t>(msg.kind)],
                   msg.trace_id);
    ring_->nodes[node]->deliver(std::move(msg), now_);
  }
  if (response != nullptr && response->client == node) {
    for (const core::SimilarityMatch& match : response->matches) {
      note_pair(response->query, match.stream);
    }
  }
}

void RingPass::diff_results(NodeIndex node) {
  // A node answers its own queries inside tick() without a frame; those
  // pairs surface here.
  for (const auto& [query, streams] : ring_->nodes[node]->results()) {
    std::size_t& seen = seen_sizes_[query];
    if (streams.size() == seen) {
      continue;
    }
    seen = streams.size();
    for (const StreamId stream : streams) {
      note_pair(query, stream);
    }
  }
}

void RingPass::nper_pass() {
  std::int64_t pass_self_ns = 0;
  for (NodeIndex i = 0; i < kNodes; ++i) {
    if (active_spans_ != nullptr) {
      active_spans_->begin(tick_span_);
    }
    ring_->nodes[i]->tick(now_);
    if (active_spans_ != nullptr) {
      pass_self_ns += active_spans_->end();
    }
    diff_results(i);
  }
  // One calibration kernel per pass, inside and outside the window alike;
  // its CPU is excluded from the measured slices.
  const double kernel_ms = calibrator_.run_ms();
  calibration_.add(kernel_ms);
  if (!in_window_) {
    return;
  }
  calibration_cpu_s_ += kernel_ms / 1e3;
  slice_calibration_cpu_s_ += kernel_ms / 1e3;
  result_.idle_s += kernel_ms / 1e3;
  ++result_.passes;
  double mbrs = 0.0;
  double subs = 0.0;
  for (NodeIndex i = 0; i < kNodes; ++i) {
    const core::IndexStore& store = ring_->nodes[i]->store();
    result_.scanned += static_cast<double>(store.last_match_work());
    mbrs += static_cast<double>(store.mbr_count());
    subs += static_cast<double>(store.subscription_count());
  }
  result_.store_mbrs += mbrs / kNodes;
  result_.store_subs += subs / kNodes;
  if (active_spans_ != nullptr) {
    result_.tick_pass_ms.push_back(static_cast<double>(pass_self_ns) / 1e6);
  }
}

void RingPass::reliability_pass(double t) {
  const auto now_ms = static_cast<std::int64_t>(std::llround(t * 1e3));
  for (NodeIndex i = 0; i < kNodes; ++i) {
    {
      SpanScope span(active_spans_, heartbeat_span_);
      ring_->nodes[i]->heartbeat_tick(now_ms, now_);
    }
    SpanScope span(active_spans_, reliability_span_);
    ring_->nodes[i]->reliability_tick(now_ms, now_);
  }
}

void RingPass::open_window(double t) {
  in_window_ = true;
  meter_.in_window = true;
  active_spans_ = spans_;
  meter_.spans = spans_;
  if (spans_ != nullptr) {
    spans_->set_keeping(true);
  }
  wall0_ = t;
  counters0_ = counters();
  calibration_.clear();
  slice_end_ = t + phases_.timed_s / kCpuSlices;
  slice_samples0_ = 0;
  slice_calibration_cpu_s_ = 0.0;
  cpu0_ = process_cpu_seconds();
  slice_cpu0_ = cpu0_;
}

void RingPass::close_slice(double t) {
  const double cpu = process_cpu_seconds();
  const auto samples = static_cast<double>(result_.samples - slice_samples0_);
  result_.slice_cpu_us.push_back(
      ratio((cpu - slice_cpu0_ - slice_calibration_cpu_s_) * 1e6 *
                calibration_.factor(),
            samples));
  calibration_.clear();
  slice_cpu0_ = cpu;
  slice_calibration_cpu_s_ = 0.0;
  slice_samples0_ = result_.samples;
  slice_end_ = t + phases_.timed_s / kCpuSlices;
}

void RingPass::close_window(double t) {
  close_slice(t);
  result_.cpu_s = process_cpu_seconds() - cpu0_ - calibration_cpu_s_;
  result_.calibration_ms =
      ratio(calibration_cpu_s_ * 1e3, static_cast<double>(result_.passes));
  result_.wall_s = t - wall0_;
  result_.window = counters() - counters0_;
  in_window_ = false;
  meter_.in_window = false;
  active_spans_ = nullptr;
  meter_.spans = nullptr;
  if (spans_ != nullptr) {
    spans_->set_keeping(false);
  }
}

PassResult RingPass::run() {
  result_.first_seen.reserve(inputs_.reference.size());
  result_.lag_ms.reserve(static_cast<std::size_t>(
      phases_.timed_s * (workload_.sample_rate + workload_.query_rate) * 1.1));
  const PeakRss rss;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ring_.reset();
    const std::int64_t start = mono_ns();
    ring_ = build_ring();
    const double raw_s = static_cast<double>(mono_ns() - start) / 1e9;
    result_.setup_s.push_back(raw_s * kSyscallReferenceMs /
                              syscall_kernel_ms());
  }
  if (!result_.mesh_ok) {
    return std::move(result_);
  }

  t0_ = Clock::now();
  std::uint64_t next_sample = 0;
  std::size_t next_query = 0;
  double next_tick = kNperS;
  double next_reliability = 0.0;
  bool window_done = false;
  const double input_end = phases_.input_end();
  while (true) {
    const double t = since_start();
    if (t >= phases_.end()) {
      break;
    }
    if (!in_window_ && !window_done && t >= phases_.warmup_s) {
      open_window(t);
    }
    if (in_window_ && t >= input_end) {
      close_window(t);
      window_done = true;
    } else if (in_window_ && t >= slice_end_) {
      close_slice(t);
    }
    now_ = sim::SimTime::from_micros(std::llround(t * 1e6));

    while (next_sample < inputs_.total_samples &&
           static_cast<double>(next_sample) / workload_.sample_rate <= t) {
      publish(next_sample++, t);
    }
    while (next_query < inputs_.queries.size() &&
           inputs_.queries[next_query].posed_s <= t) {
      subscribe(next_query++, t);
    }
    // Drain: keep polling while frames arrive, so a range walk crosses the
    // ring within one iteration.
    for (int round = 0; round < kMaxPollRounds; ++round) {
      std::uint64_t received = 0;
      for (const auto& transport : ring_->transports) {
        const std::uint64_t before = transport->delivered();
        transport->poll(0);
        received += transport->delivered() - before;
      }
      if (received == 0) {
        break;
      }
    }
    if (t >= next_tick) {
      nper_pass();
      while (next_tick <= t) {
        next_tick += kNperS;
      }
    }
    if (workload_.reliable && t >= next_reliability) {
      reliability_pass(t);
      while (next_reliability <= t) {
        next_reliability += kReliabilityStepS;
      }
    }
    // Sleep until the next input is due, but no sooner than one quantum
    // after this iteration began, and no later than the next timer.
    double wake = t + kQuantumS;
    if (next_sample < inputs_.total_samples) {
      wake = std::max(wake, static_cast<double>(next_sample) /
                                workload_.sample_rate);
    }
    if (next_query < inputs_.queries.size()) {
      wake = std::min(wake, std::max(t + kQuantumS,
                                     inputs_.queries[next_query].posed_s));
    }
    wake = std::min({wake, next_tick, phases_.end()});
    if (workload_.reliable) {
      wake = std::min(wake, next_reliability);
    }
    if (!window_done) {
      wake = std::min(wake, in_window_ ? input_end : phases_.warmup_s);
    }
    const double before = since_start();
    if (wake > before) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wake - before));
      if (in_window_) {
        result_.idle_s += since_start() - before;
      }
    }
  }
  if (in_window_) {
    close_window(since_start());
  }

  for (NodeIndex i = 0; i < kNodes; ++i) {
    for (const auto& [query, streams] : ring_->nodes[i]->results()) {
      for (const StreamId stream : streams) {
        note_pair(query, stream);
        result_.delivered.emplace(query, stream);
      }
    }
    result_.detector_deaths += ring_->nodes[i]->detector().counters().deaths;
  }
  const RingCounters end = counters();
  result_.drops = end.socket_drops + end.send_failures;
  result_.frames_total = meter_.sent_total;
  result_.frames_by_kind = meter_.sent;
  for (const std::uint64_t n : meter_.sent) {
    result_.frames += n;
  }
  result_.polls = meter_.polls;
  result_.empty_polls = meter_.empty_polls;
  result_.recorded = std::move(meter_.recorded);
  result_.peak_rss_mb = rss.growth_mb();
  ring_.reset();
  return std::move(result_);
}

/// End-to-end numbers and the correctness verdict of one pass.
struct PassSummary {
  CheckResult check;
  std::vector<double> detect_ms;
  double cpu_us_per_sample = 0.0;
  double msgs_per_sample = 0.0;
};

PassSummary summarize_pass(const RingInputs& inputs, const Phases& phases,
                           const PassResult& pass) {
  PassSummary summary;
  summary.check = check_pairs(inputs.reference, pass.delivered);
  for (const auto& [key, pair] : inputs.reference) {
    if (!pair.required || pair.start_s < phases.warmup_s ||
        pair.start_s >= phases.input_end()) {
      continue;
    }
    const auto it = pass.first_seen.find(pair_code(key.first, key.second));
    if (it != pass.first_seen.end()) {
      summary.detect_ms.push_back(std::max(0.0, it->second - pair.start_s) *
                                  1e3);
    }
  }
  const auto samples = static_cast<double>(pass.samples);
  summary.cpu_us_per_sample = quantile(pass.slice_cpu_us, 0.5);
  summary.msgs_per_sample = ratio(static_cast<double>(pass.frames), samples);
  return summary;
}

void check_pass(const char* label, const PassResult& pass,
                const PassSummary& summary, const BenchOptions& options,
                RunReport& report) {
  const std::string where = std::string(label) + " pass: ";
  if (!pass.mesh_ok) {
    report.fail(where + "the loopback mesh did not connect within 5 s");
    return;
  }
  if (!summary.check.extra.empty()) {
    const PairKey& first = summary.check.extra.front();
    report.fail(where + std::to_string(summary.check.extra.size()) +
                " delivered pairs outside the reference, e.g. query " +
                std::to_string(first.first) + " stream " +
                std::to_string(first.second));
  }
  if (!summary.check.missing.empty()) {
    const PairKey& first = summary.check.missing.front();
    report.fail(where + std::to_string(summary.check.missing.size()) + " of " +
                std::to_string(summary.check.required) +
                " reference pairs never delivered, e.g. query " +
                std::to_string(first.first) + " stream " +
                std::to_string(first.second));
  }
  if (pass.drops > 0) {
    report.fail(where + std::to_string(pass.drops) +
                " frames dropped on a fault-free ring");
  }
  if (pass.detector_deaths > 0) {
    report.fail(where + "the failure detector declared " +
                std::to_string(pass.detector_deaths) +
                " live peers dead (the generator loop stalled)");
  }
  if (pass.samples == 0 || summary.check.required == 0) {
    report.fail(where + "no samples or no reference pairs: the checks would "
                "pass vacuously");
  }
  if (!options.smoke && summary.detect_ms.size() < kMinDetectPairs) {
    report.fail(where + "only " + std::to_string(summary.detect_ms.size()) +
                " detection pairs in the timed window (p99 needs " +
                std::to_string(kMinDetectPairs) + ")");
  }
}

/// Mean self time per span.
double self_ns_per(const SpanRecorder::Totals& totals) {
  return ratio(static_cast<double>(totals.self_ns),
               static_cast<double>(totals.count));
}

/// Times `body` over `rounds` repetitions and returns ns per op.
template <typename Fn>
double time_ns_per_op(std::size_t ops, int rounds, Fn&& body) {
  if (ops == 0) {
    return 0.0;
  }
  const std::int64_t start = mono_ns();
  for (int r = 0; r < rounds; ++r) {
    body();
  }
  return static_cast<double>(mono_ns() - start) /
         (static_cast<double>(ops) * rounds);
}

struct ReplayCosts {
  double summarize_ns = 0.0;
  double batch_ns = 0.0;
  double keymap_ns = 0.0;
  double store_add_ns = 0.0;
};

/// Stage replay: the run's own inputs pushed through each layer API alone.
ReplayCosts replay_stages(const RingInputs& inputs, RunReport& report) {
  ReplayCosts costs;
  const auto strategy = core::IndexingStrategy::make(
      inputs.config.strategy, inputs.config.features,
      common::IdSpace(kIdBits));
  const auto streams = static_cast<std::uint64_t>(inputs.samples.size());
  const std::uint64_t replayed = inputs.total_samples;

  const auto samples_of = [&](std::uint64_t s) {
    return replayed <= s ? 0 : (replayed - s - 1) / streams + 1;
  };
  // Timed: the summarizer alone. The vectors the later stages need are
  // collected in a second, untimed pass.
  std::uint64_t pushed = 0;
  const std::int64_t start = mono_ns();
  for (std::uint64_t s = 0; s < streams; ++s) {
    auto summarizer = strategy->make_summarizer();
    dsp::FeatureVector features;
    for (std::uint64_t k = 0; k < samples_of(s); ++k) {
      summarizer->push(inputs.samples[s][k]);
      if (summarizer->ready()) {
        summarizer->features_into(features);
      }
    }
    pushed += samples_of(s);
  }
  costs.summarize_ns = ratio(static_cast<double>(mono_ns() - start),
                             static_cast<double>(pushed));

  std::vector<std::vector<dsp::FeatureVector>> vectors(streams);
  std::size_t kept_vectors = 0;
  for (std::uint64_t s = 0;
       s < streams && kept_vectors < kReplayVectorLimit; ++s) {
    auto summarizer = strategy->make_summarizer();
    dsp::FeatureVector features;
    for (std::uint64_t k = 0;
         k < samples_of(s) && kept_vectors < kReplayVectorLimit; ++k) {
      summarizer->push(inputs.samples[s][k]);
      if (summarizer->ready() && summarizer->features_into(features)) {
        vectors[s].push_back(features);
        ++kept_vectors;
      }
    }
  }

  std::vector<dsp::Mbr> mbrs;
  costs.batch_ns = time_ns_per_op(kept_vectors, 1, [&] {
    for (const auto& stream_vectors : vectors) {
      core::MbrBatcher batcher;
      for (const dsp::FeatureVector& v : stream_vectors) {
        if (std::optional<dsp::Mbr> mbr = batcher.push(v)) {
          mbrs.push_back(std::move(*mbr));
        }
      }
    }
  });
  std::vector<std::pair<Key, Key>> ranges;
  costs.keymap_ns = time_ns_per_op(mbrs.size(), 5, [&] {
    for (const dsp::Mbr& mbr : mbrs) {
      strategy->key_map().mbr_ranges(mbr, ranges);
    }
  });
  costs.store_add_ns = time_ns_per_op(mbrs.size(), 1, [&] {
    core::IndexStore store;
    const sim::SimTime now = sim::SimTime::from_micros(1);
    const sim::SimTime expires = now + sim::Duration::seconds(3600);
    for (std::size_t i = 0; i < mbrs.size(); ++i) {
      store.add_mbr({static_cast<StreamId>(i % streams + 1), 0, mbrs[i], i,
                     now, expires});
    }
  });
  report.set("dsp.summarize_ns", costs.summarize_ns, "ns");
  report.set("core.batch_ns", costs.batch_ns, "ns");
  report.set("core.keymap_ns", costs.keymap_ns, "ns");
  report.set("core.store_add_ns", costs.store_add_ns, "ns");
  return costs;
}

void replay_wire(const PassResult& pass, RunReport& report) {
  for (const routing::MsgKind kind :
       {routing::MsgKind::kMbrUpdate, routing::MsgKind::kSimilarityQuery,
        routing::MsgKind::kResponse}) {
    const std::string name = routing::msg_kind_name(kind);
    const auto& frames = pass.recorded[static_cast<std::size_t>(kind)];
    std::vector<std::vector<std::uint8_t>> encoded(frames.size());
    const double encode_ns = time_ns_per_op(frames.size(), 5, [&] {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        encoded[i] = net::encode_frame(frames[i]);
      }
    });
    bool decoded_all = true;
    const double decode_ns = time_ns_per_op(frames.size(), 5, [&] {
      for (const auto& bytes : encoded) {
        routing::Message msg;
        decoded_all = decoded_all &&
                      net::decode_frame(bytes, &msg) == net::DecodeResult::kOk;
      }
    });
    if (!decoded_all) {
      report.fail("wire replay: a recorded " + name + " frame did not decode");
    }
    report.set("wire.encode_ns." + name, encode_ns, "ns");
    report.set("wire.decode_ns." + name, decode_ns, "ns");
  }
}

/// Kinds whose frame rate the traced run reports.
constexpr routing::MsgKind kRateKinds[] = {
    routing::MsgKind::kMbrUpdate,   routing::MsgKind::kSimilarityQuery,
    routing::MsgKind::kResponse,    routing::MsgKind::kHeartbeat,
    routing::MsgKind::kMbrAck,      routing::MsgKind::kResponseAck,
    routing::MsgKind::kReplicaPut,  routing::MsgKind::kAntiEntropyDigest};

void report_counts(const PassResult& pass, RunReport& report) {
  report.set("gen.lag_p99_ms", quantile(pass.lag_ms, 0.99), "ms");
  report.set("gen.busy_share", 1.0 - ratio(pass.idle_s, pass.wall_s),
             "ratio");
  const auto frames = static_cast<double>(pass.frames);
  report.set("net_node.refresh_share",
             ratio(static_cast<double>(pass.window.refreshes), frames),
             "ratio");
  const double remote_stores = static_cast<double>(pass.window.mbrs_stored) -
                               static_cast<double>(pass.window.mbrs_published);
  const auto deliveries = static_cast<double>(pass.mbr_deliveries);
  report.set("net_node.dup_store_share",
             deliveries == 0.0
                 ? 0.0
                 : std::max(0.0, 1.0 - remote_stores / deliveries),
             "ratio");
  report.set("socket.empty_poll_share",
             ratio(static_cast<double>(pass.empty_polls),
                   static_cast<double>(pass.polls)),
             "ratio");
  report.set("socket.bytes_per_frame",
             ratio(static_cast<double>(pass.window.bytes_sent),
                   static_cast<double>(pass.window.socket_frames)),
             "bytes");
  for (const routing::MsgKind kind : kRateKinds) {
    report.set(std::string("socket.frames_per_s.") +
                   routing::msg_kind_name(kind),
               ratio(static_cast<double>(
                         pass.frames_by_kind[static_cast<std::size_t>(kind)]),
                     pass.wall_s),
               "1/s");
  }
  const auto passes = static_cast<double>(pass.passes);
  report.set("core.match_scanned_per_pass", ratio(pass.scanned, passes),
             "entries");
  report.set("core.match_yield",
             ratio(static_cast<double>(pass.new_pairs), pass.scanned),
             "ratio");
  report.set("core.store_mbrs", ratio(pass.store_mbrs, passes), "entries");
  report.set("core.store_subs", ratio(pass.store_subs, passes), "entries");
}

void report_spans(const SpanRecorder& spans, const PassResult& pass,
                  RunReport& report) {
  report.set("net_node.publish_ns",
             self_ns_per(spans.totals("net_node.publish")), "ns");
  report.set("net_node.subscribe_ns",
             self_ns_per(spans.totals("net_node.subscribe")), "ns");
  report.set("net_node.tick_ms_p50", quantile(pass.tick_pass_ms, 0.5), "ms");
  report.set("net_node.tick_ms_p99", quantile(pass.tick_pass_ms, 0.99), "ms");
  SpanRecorder::Totals control;
  for (std::size_t kind = 1; kind < kKinds; ++kind) {
    const auto k = static_cast<routing::MsgKind>(kind);
    const SpanRecorder::Totals totals = spans.totals(
        std::string("net_node.deliver.") + routing::msg_kind_name(k));
    if (k == routing::MsgKind::kMbrUpdate ||
        k == routing::MsgKind::kSimilarityQuery ||
        k == routing::MsgKind::kResponse) {
      report.set(std::string("net_node.deliver_ns.") +
                     routing::msg_kind_name(k),
                 self_ns_per(totals), "ns");
    } else {
      control.count += totals.count;
      control.self_ns += totals.self_ns;
    }
  }
  report.set("net_node.deliver_ns.control", self_ns_per(control), "ns");
  report.set("net_node.reliability_tick_ns",
             self_ns_per(spans.totals("net_node.reliability_tick")), "ns");
  report.set("net_node.heartbeat_tick_ns",
             self_ns_per(spans.totals("net_node.heartbeat_tick")), "ns");
  report.set("socket.send_ns", self_ns_per(spans.totals("socket.send")), "ns");
  report.set("socket.poll_self_ns",
             self_ns_per(spans.totals("socket.poll")), "ns");
}

/// Share of the traced pass's CPU that the replayed publish stages plus the
/// self time of every other span account for.
double stage_sum_share(const SpanRecorder& spans, const PassResult& pass,
                       const ReplayCosts& replay) {
  const auto samples = static_cast<double>(pass.samples);
  double ns = (replay.summarize_ns + replay.batch_ns) * samples +
              (replay.keymap_ns + replay.store_add_ns) *
                  static_cast<double>(pass.window.mbrs_published);
  for (const char* name :
       {"net_node.subscribe", "net_node.tick", "net_node.heartbeat_tick",
        "net_node.reliability_tick", "socket.send", "socket.poll"}) {
    ns += static_cast<double>(spans.totals(name).self_ns);
  }
  for (std::size_t kind = 1; kind < kKinds; ++kind) {
    ns += static_cast<double>(
        spans
            .totals(std::string("net_node.deliver.") +
                    routing::msg_kind_name(static_cast<routing::MsgKind>(kind)))
            .self_ns);
  }
  return ratio(ns, pass.cpu_s * 1e9);
}

const RingWorkload* find_workload(const std::string& name) {
  for (const RingWorkload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

}  // namespace

bool is_ring_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

RunReport run_ring(const std::string& name, const BenchOptions& options) {
  const RingWorkload* workload = find_workload(name);
  SDSI_CHECK(workload != nullptr);
  Phases phases;
  phases.timed_s = options.seconds;
  if (options.smoke) {
    // Just long enough for every stream's first window to fill, so queries
    // are posed and the reference holds pairs.
    const double fill_s = static_cast<double>(dsp::FeatureConfig{}.window_size *
                                              workload->streams) /
                          workload->sample_rate;
    phases.warmup_s = fill_s + 0.5;
    phases.drain_s = 0.5;
  }
  RunReport report;
  report.workload = name;

  const RingInputs inputs = make_inputs(*workload, phases, options.seed);

  PassResult plain;
  {
    RingPass pass(*workload, inputs, phases, nullptr);
    plain = pass.run();
  }
  const PassSummary summary = summarize_pass(inputs, phases, plain);
  check_pass("untraced", plain, summary, options, report);

  report.set("detect_p50_ms", quantile(summary.detect_ms, 0.5), "ms");
  report.set("detect_p99_ms", quantile(summary.detect_ms, 0.99), "ms");
  report.set("cpu_us_per_sample", summary.cpu_us_per_sample, "us");
  report.set("msgs_per_sample", summary.msgs_per_sample, "msgs");
  report.set("recall", summary.check.recall(), "ratio");
  report.set("setup_s", quantile(plain.setup_s, 0.5), "s");
  report.set("calibration_ms", plain.calibration_ms, "ms");
  report.set("detect_pairs", static_cast<double>(summary.detect_ms.size()),
             "count");
  report.set("drop_rate",
             ratio(static_cast<double>(plain.drops),
                   static_cast<double>(plain.frames_total)),
             "ratio");
  report.attempted = summary.check.required + plain.frames_total;
  report.failed = summary.check.missing.size() + summary.check.extra.size() +
                  plain.drops;

  if (options.trace) {
    report_counts(plain, report);
    SpanRecorder spans(kSpanKeepLimit);
    PassResult traced;
    {
      RingPass pass(*workload, inputs, phases, &spans);
      traced = pass.run();
    }
    const PassSummary traced_summary = summarize_pass(inputs, phases, traced);
    check_pass("traced", traced, traced_summary, options, report);
    report_spans(spans, traced, report);
    const ReplayCosts replay = replay_stages(inputs, report);
    replay_wire(traced, report);
    report.set("trace.overhead",
               ratio(traced_summary.cpu_us_per_sample,
                     summary.cpu_us_per_sample) -
                   1.0,
               "ratio");
    report.set("trace.stage_sum_share",
               stage_sum_share(spans, traced, replay),
               "ratio");
    if (!options.spans_path.empty() &&
        !spans.write_jsonl(options.spans_path, name)) {
      report.fail("cannot write " + options.spans_path);
    }
  }
  report.set("peak_rss_mb", plain.peak_rss_mb, "MB");
  return report;
}

}  // namespace sdsi::bench
