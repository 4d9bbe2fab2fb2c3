// sdsi_node: one ring member as a real OS process — the paper's data center
// daemon, speaking wire protocol v1 over TCP (docs/WIRE_FORMAT.md).
//
// N processes rendezvous through a shared directory (port files, then named
// phase barriers), derive the identical ring from (nodes, bits, salt), run
// the deterministic net workload (src/net/workload.hpp), and each write
// their client-side results as JSON. tools/net_equiv launches a set of
// these and compares the merged digests against the simulated middleware.
//
// Phase structure (every phase ends with flush + barrier + settle):
//   1. subscribe own similarity queries, publish own streams (content
//      traffic; each stream registers with the location service)
//   2. pose own inner-product queries: the location service resolves each
//      stream's source, which installs the query
//   3. tick: match, report to the middle nodes, which push to the clients;
//      every source answers its inner-product queries
//   4. straggler tick: catches anything that raced past phase 3 — store
//      and client dedup make it a no-op when nothing did
//   5. (--reliable + --converge-ms) convergence: keep polling, heartbeating
//      and retransmitting until the healing layers have had time to repair
//      whatever chaos broke
//   6. write out.<i>.json, final barrier, exit 0
//
// The node runs on the process's monotone wall clock, which also fires its
// ack, push and refresh timers. Lifespans are hours, so the matched sets are
// timing-independent, and every inner-product answer comes after the last
// sample — the property the equivalence gate rests on.
//
// Chaos mode (docs/EXPERIMENTS.md "chaos on a real ring"): the --fault-*
// flags wrap the socket transport in a seeded net::FaultyTransport, and
// --reliable switches on the NetNode self-healing stack (heartbeat failure
// detection, acked publications and pushes with retransmit, soft-state
// refresh, successor replication, anti-entropy). --port/--epoch let a
// supervisor SIGKILL a member and restart it on the same address with a
// bumped epoch, which peers detect through heartbeats and answer with
// repair traffic.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/strategy.hpp"
#include "fault/model.hpp"
#include "net/faulty_transport.hpp"
#include "net/node.hpp"
#include "net/socket_transport.hpp"
#include "net/workload.hpp"
#include "obs/json.hpp"
#include "routing/static_ring.hpp"
#include "tools/flags.hpp"

namespace fs = std::filesystem;
using namespace sdsi;

namespace {

struct Options {
  NodeIndex index = 0;
  std::uint32_t nodes = 0;
  std::string dir;
  net::WorkloadConfig workload;
  std::uint16_t port = 0;     // 0: ephemeral; fixed for restart-in-place
  std::uint64_t epoch = 0;    // bumped by the supervisor on each restart
  bool reliable = false;
  int converge_ms = 0;
  fault::FaultPlan faults;
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;
};

[[noreturn]] void usage_and_exit(const char* argv0, std::FILE* out = stderr,
                                 int code = 2) {
  std::fprintf(
      out,
      "usage: %s --index I --nodes N --dir RENDEZVOUS_DIR "
      "[--seed S] [--samples K] [--streams-per-node M]\n"
      "  [--strategy dft|ecm|lsh] [--port P] [--epoch E] [--reliable]\n"
      "  [--converge-ms MS]\n"
      "  [--fault-uniform P] [--fault-burst RATE] [--fault-jitter-ms MS]\n"
      "  [--fault-reorder P] [--fault-corrupt P] [--fault-seed S]\n",
      argv0);
  std::exit(code);
}

}  // namespace

void sdsi::tools::usage_error(const char* argv0) { usage_and_exit(argv0); }

namespace {

Options parse_args(int argc, char** argv) {
  Options opts;
  bool have_index = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    const auto whole = [&] { return tools::parse_long(next(), argv[0]); };
    const auto probability = [&] {
      return tools::parse_probability(next(), argv[0]);
    };
    if (arg == "--help" || arg == "-h") {
      usage_and_exit(argv[0], stdout, 0);
    } else if (arg == "--index") {
      opts.index = static_cast<NodeIndex>(whole());
      have_index = true;
    } else if (arg == "--nodes") {
      opts.nodes = static_cast<std::uint32_t>(whole());
    } else if (arg == "--dir") {
      opts.dir = next();
    } else if (arg == "--seed") {
      opts.workload.seed = static_cast<std::uint64_t>(whole());
    } else if (arg == "--samples") {
      opts.workload.samples_per_stream = static_cast<std::uint32_t>(whole());
    } else if (arg == "--streams-per-node") {
      opts.workload.streams_per_node = static_cast<std::uint32_t>(whole());
    } else if (arg == "--strategy") {
      const auto kind = core::parse_strategy(next());
      if (!kind.has_value()) usage_and_exit(argv[0]);
      opts.workload.strategy = *kind;
    } else if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(whole());
    } else if (arg == "--epoch") {
      opts.epoch = static_cast<std::uint64_t>(whole());
    } else if (arg == "--reliable") {
      opts.reliable = true;
    } else if (arg == "--converge-ms") {
      opts.converge_ms = static_cast<int>(whole());
    } else if (arg == "--fault-uniform") {
      opts.faults.uniform_loss = probability();
    } else if (arg == "--fault-burst") {
      // Stationary loss target: solve the Gilbert-Elliott chain for
      // p_good_to_bad at the default recovery rate (mean burst length 4).
      const double rate = tools::parse_burst_loss(next(), argv[0]);
      if (rate > 0.0) {
        fault::GilbertElliottParams ge;
        ge.p_bad_to_good = 0.25;
        ge.p_good_to_bad = rate * ge.p_bad_to_good / (1.0 - rate);
        opts.faults.burst_loss = ge;
      }
    } else if (arg == "--fault-jitter-ms") {
      const long ms = tools::parse_millis(next(), argv[0], 0);
      if (ms > 0) {
        opts.faults.jitter = fault::LatencyJitter{sim::Duration::millis(ms)};
      }
    } else if (arg == "--fault-reorder") {
      opts.faults.reorder = probability();
    } else if (arg == "--fault-corrupt") {
      opts.faults.corrupt = probability();
    } else if (arg == "--fault-seed") {
      opts.fault_seed = static_cast<std::uint64_t>(whole());
      opts.fault_seed_set = true;
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (!have_index || opts.nodes == 0 || opts.dir.empty() ||
      opts.index >= opts.nodes) {
    usage_and_exit(argv[0]);
  }
  opts.workload.nodes = opts.nodes;
  if (!opts.fault_seed_set) {
    // Per-endpoint stream: same drill seed, distinct per-node fault draws.
    opts.fault_seed = opts.workload.seed ^
                      (0x9e3779b97f4a7c15ull * (opts.index + 1)) ^
                      (opts.epoch << 56);
  }
  return opts;
}

/// Atomic small-file publication: peers only ever see complete contents.
void write_file_atomic(const fs::path& path, const std::string& contents) {
  const fs::path tmp = path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    SDSI_CHECK(out.is_open());
    out << contents;
  }
  fs::rename(tmp, path);
}

/// One I/O pump step: drive the (possibly fault-wrapped) transport and, in
/// reliable mode, the node's heartbeat/retransmit clocks.
using PumpFn = std::function<void(int budget_ms)>;

/// Polls while waiting for every process to publish `name.J`.
void barrier(const PumpFn& pump, const Options& opts,
             const std::string& name) {
  write_file_atomic(fs::path(opts.dir) / (name + "." +
                                          std::to_string(opts.index)),
                    "1");
  while (true) {
    bool all = true;
    for (std::uint32_t j = 0; j < opts.nodes; ++j) {
      if (!fs::exists(fs::path(opts.dir) /
                      (name + "." + std::to_string(j)))) {
        all = false;
        break;
      }
    }
    if (all) return;
    pump(5);
  }
}

/// Drives I/O until every queued frame reached the kernel (including frames
/// parked in the fault layer's delay queue) AND the ring looks settled. In
/// plain mode "settled" means no new frame arrived for `quiet_ms` — on a
/// localhost ring that bounds the full range-forwarding chain by orders of
/// magnitude. In reliable mode the ring is NEVER frame-quiet (heartbeats
/// every 50 ms from every peer, periodic anti-entropy digests), so settle
/// instead pumps for a fixed `quiet_ms` budget and then only insists the
/// outbound queues drained; actual convergence is the converge phase's job.
void settle(const PumpFn& pump, net::SocketTransport& socket,
            const net::FaultyTransport* faulty, bool periodic_traffic,
            int quiet_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(quiet_ms);
  std::uint64_t seen = socket.stats().frames_received;
  auto last_change = Clock::now();
  while (true) {
    pump(5);
    if (socket.stats().frames_received != seen) {
      seen = socket.stats().frames_received;
      last_change = Clock::now();
    }
    const bool drained =
        socket.pending_out_bytes() == 0 &&
        (faulty == nullptr || faulty->pending_delayed() == 0);
    if (!drained) {
      continue;
    }
    if (periodic_traffic) {
      if (Clock::now() >= deadline) return;
    } else if (Clock::now() - last_change >
               std::chrono::milliseconds(quiet_ms)) {
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  const net::WorkloadConfig& workload = opts.workload;
  const common::IdSpace space(workload.id_bits);

  net::SocketTransport socket(opts.port);
  socket.set_backoff_seed(opts.fault_seed ^ 0xb0ffull);
  std::optional<net::FaultyTransport> faulty;
  if (opts.faults.has_link_faults()) {
    faulty.emplace(socket, opts.faults, space, opts.fault_seed);
  }
  net::Transport& transport = faulty ? static_cast<net::Transport&>(*faulty)
                                     : socket;
  write_file_atomic(fs::path(opts.dir) /
                        ("port." + std::to_string(opts.index)),
                    std::to_string(socket.listen_port()) + "\n");

  // Address book: wait for every peer's port file.
  for (std::uint32_t j = 0; j < opts.nodes; ++j) {
    if (j == opts.index) continue;
    const fs::path path = fs::path(opts.dir) / ("port." + std::to_string(j));
    while (!fs::exists(path)) {
      transport.poll(5);
    }
    std::ifstream in(path);
    std::uint32_t port = 0;
    in >> port;
    SDSI_CHECK(port > 0 && port <= 0xFFFF);
    socket.set_peer(j, "127.0.0.1", static_cast<std::uint16_t>(port));
  }

  net::NetRing ring(space, routing::hash_node_ids(opts.nodes, space,
                                                  workload.ring_salt));
  net::NetNodeConfig node_config;
  node_config.features = workload.features;
  node_config.strategy = workload.strategy;
  node_config.reliability.enabled = opts.reliable;
  node_config.epoch = opts.epoch;
  net::NetNode node(ring, opts.index, transport, node_config);

  // Monotone wall clock: the failure detector's time base and the node's
  // clock (see header comment).
  const auto started = std::chrono::steady_clock::now();
  const auto wall_ms = [&started]() -> std::int64_t {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - started)
        .count();
  };
  const auto now = [&wall_ms] {
    return sim::SimTime::from_micros(wall_ms() * 1000);
  };
  transport.set_deliver([&node, &now](routing::Message&& msg) {
    node.deliver(std::move(msg), now());
  });
  const PumpFn pump = [&](int budget_ms) {
    transport.poll(budget_ms);
    if (opts.reliable) {
      node.heartbeat_tick(wall_ms(), now());
      node.reliability_tick(wall_ms(), now());
    }
  };

  if (opts.reliable && opts.epoch > 0) {
    // Restarted in place: ask the live successor for the arc we own.
    node.request_handoff(now());
  }

  // --- Phase 1: content traffic ------------------------------------------
  // Query features come from the same strategy the nodes index with, so the
  // socket leg matches the sim reference for every --strategy.
  const auto strategy = core::IndexingStrategy::make(workload.strategy,
                                                     workload.features, space);
  for (const net::WorkloadQuery& query : net::workload_queries(workload)) {
    if (query.client != opts.index) continue;
    node.subscribe_similarity(
        query.id, strategy->features_from_window(query.window), query.radius,
        sim::Duration::seconds(3600), now());
  }
  for (std::uint32_t slot = 0; slot < workload.streams_per_node; ++slot) {
    const StreamId stream =
        net::workload_stream_id(workload, opts.index, slot);
    std::uint32_t fed = 0;
    for (const Sample value : net::workload_samples(workload, stream)) {
      node.publish_value(stream, value, now());
      if (++fed % 64 == 0) pump(0);  // keep draining inbound
    }
  }
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);
  barrier(pump, opts, "sent");
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);

  // --- Phase 2: inner-product queries ------------------------------------
  for (const net::WorkloadInnerQuery& query :
       net::workload_inner_queries(workload)) {
    if (query.client != opts.index) continue;
    node.subscribe_inner_product(query.id, query.stream, query.index,
                                 query.weights, sim::Duration::seconds(3600),
                                 now());
  }
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);
  barrier(pump, opts, "asked");
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);

  // --- Phase 3: match + respond ------------------------------------------
  node.tick(now());
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);
  barrier(pump, opts, "tick1");
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);

  // --- Phase 4: straggler sweep ------------------------------------------
  node.tick(now());
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);
  barrier(pump, opts, "tick2");
  settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);

  // --- Phase 5: convergence under chaos -----------------------------------
  // Lifespans are hours, so nothing expires; the clock keeps driving
  // retransmits, refresh and anti-entropy until the healing layers run out
  // of gaps to close.
  if (opts.reliable && opts.converge_ms > 0) {
    using Clock = std::chrono::steady_clock;
    const auto until =
        Clock::now() + std::chrono::milliseconds(opts.converge_ms);
    auto last_match = Clock::now();
    while (Clock::now() < until) {
      pump(5);
      if (Clock::now() - last_match > std::chrono::milliseconds(100)) {
        node.tick(now());
        last_match = Clock::now();
      }
    }
    node.tick(now());
    settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);
    barrier(pump, opts, "conv");
    node.tick(now());
    settle(pump, socket, faulty ? &*faulty : nullptr, opts.reliable, 300);
  }

  // --- Phase 6: report ----------------------------------------------------
  obs::Json doc = obs::Json::object();
  doc["index"] = static_cast<std::uint64_t>(opts.index);
  doc["epoch"] = opts.epoch;
  doc["listen_port"] = static_cast<std::uint64_t>(socket.listen_port());
  obs::Json results = obs::Json::object();
  for (const auto& [query, streams] : node.results()) {
    obs::Json arr = obs::Json::array();
    for (const StreamId stream : streams) {
      arr.push_back(stream);
    }
    results[std::to_string(query)] = std::move(arr);
  }
  doc["results"] = std::move(results);
  obs::Json inner = obs::Json::object();
  for (const auto& [query, value] : node.inner_values()) {
    inner[std::to_string(query)] = value;
  }
  doc["inner"] = std::move(inner);
  obs::Json counters = obs::Json::object();
  const net::NetNode::Counters& c = node.counters();
  counters["mbrs_published"] = c.mbrs_published;
  counters["queries_posed"] = c.queries_posed;
  counters["mbrs_stored"] = c.mbrs_stored;
  counters["send_failures"] = c.send_failures;
  counters["shape_rejects"] = c.shape_rejects;
  if (opts.reliable) {
    counters["heartbeats_sent"] = c.heartbeats_sent;
    counters["heartbeats_received"] = c.heartbeats_received;
    counters["detours"] = c.detours;
    counters["mbr_retransmits"] = c.mbr_retransmits;
    counters["refresh_rounds"] = c.refresh_rounds;
    counters["mbr_refreshes"] = c.mbr_refreshes;
    counters["query_refreshes"] = c.query_refreshes;
    counters["response_retransmits"] = c.response_retransmits;
    counters["response_acks_received"] = c.response_acks_received;
    counters["replica_puts_sent"] = c.replica_puts_sent;
    counters["anti_entropy_rounds"] = c.anti_entropy_rounds;
    obs::Json det = obs::Json::object();
    det["suspects"] = node.detector().counters().suspects;
    det["false_suspicions"] = node.detector().counters().false_suspicions;
    det["deaths"] = node.detector().counters().deaths;
    det["recoveries"] = node.detector().counters().recoveries;
    det["rejoins"] = node.detector().counters().rejoins;
    doc["detector"] = std::move(det);
  }
  doc["counters"] = std::move(counters);
  obs::Json wire = obs::Json::object();
  wire["frames_sent"] = socket.stats().frames_sent;
  wire["frames_received"] = socket.stats().frames_received;
  wire["bytes_sent"] = socket.stats().bytes_sent;
  wire["bytes_received"] = socket.stats().bytes_received;
  wire["decode_rejects"] = socket.stats().decode_rejects;
  wire["dropped_overflow"] = socket.stats().dropped_overflow;
  wire["connects"] = socket.stats().connects;
  wire["reconnect_attempts"] = socket.stats().reconnect_attempts;
  doc["transport"] = std::move(wire);
  if (faulty) {
    const net::FaultyTransportStats& f = faulty->stats();
    obs::Json fj = obs::Json::object();
    fj["offered"] = f.offered;
    fj["forwarded"] = f.forwarded;
    fj["dropped_uniform"] = f.dropped_uniform;
    fj["dropped_burst"] = f.dropped_burst;
    fj["dropped_partition"] = f.dropped_partition;
    fj["corrupted"] = f.corrupted;
    fj["delayed"] = f.delayed;
    fj["reordered"] = f.reordered;
    fj["forward_failures"] = f.forward_failures;
    fj["pending_delayed"] =
        static_cast<std::uint64_t>(faulty->pending_delayed());
    doc["faults"] = std::move(fj);
  }
  // Every transport-level loss at this endpoint, keyed by the canonical
  // DropCause slugs (docs/OBSERVABILITY.md): injected causes from the fault
  // layer, endpoint causes from the socket.
  {
    auto drops = socket.drops_by_cause();
    if (faulty) {
      const auto injected = faulty->stats().drops_by_cause();
      for (std::size_t i = 0; i < drops.size(); ++i) {
        drops[i] += injected[i];
      }
    }
    obs::Json dj = obs::Json::object();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(fault::DropCause::kCount); ++i) {
      dj[fault::drop_cause_slug(static_cast<fault::DropCause>(i))] = drops[i];
    }
    doc["drops"] = std::move(dj);
  }
  write_file_atomic(fs::path(opts.dir) /
                        ("out." + std::to_string(opts.index) + ".json"),
                    doc.dump(2) + "\n");

  barrier(pump, opts, "done");
  return 0;
}
