// net_equiv: the socket leg of the sim-vs-socket equivalence gate, plus the
// net-chaos drill driver.
//
// Fault-free mode (default): launches N sdsi_node processes (real TCP over
// 127.0.0.1, wire protocol v1), waits for the ring to run the deterministic
// net workload to completion, merges the per-process out.<i>.json results,
// and compares the merged per-query matched stream sets and inner-product
// answers against the canonical simulated middleware run in-process
// (net::run_sim_reference). Exits 0 iff the digests are identical and
// non-vacuous.
//
// Chaos mode (--chaos, or any --fault-* / --kill-index flag): the ring runs
// with seeded transport fault injection and the NetNode reliability stack
// on, optionally SIGKILLing one member mid-run and restarting it on the
// same port with a bumped epoch. The gate then relaxes from exact equality
// to a recall floor (matched pairs recovered vs the fault-free sim digest,
// excluding queries posed by the killed member — the RecallOracle policy;
// inner-product answers are not compared, as no host refreshes their
// subscriptions),
// and additionally enforces the zero-unaccounted-drops identity per
// endpoint:
//   faults.offered == transport.frames_sent + drops.outbox_overflow
//                     + drops.uniform_loss + drops.burst_loss
//                     + drops.partition
// (no frame may vanish without a DropCause). --bench-json writes the drill
// outcome as socket-chaos rows in the BENCH_robustness.json row schema.
//
// Usage: net_equiv --nodes N (1-64) --dir SCRATCH [--seed S] [--samples K]
//                  [--node-bin PATH] [--timeout SECONDS]
//                  [--chaos] [--fault-uniform P] [--fault-burst RATE]
//                  [--fault-jitter-ms MS] [--fault-reorder P]
//                  [--fault-corrupt P] [--converge-ms MS]
//                  [--kill-index K] [--kill-after-ms T]
//                  [--restart-after-ms R] [--recall-floor F]
//                  [--bench-json PATH]
// The node binary defaults to "sdsi_node" next to this executable.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "net/equivalence.hpp"
#include "net/workload.hpp"
#include "obs/json.hpp"
#include "tools/flags.hpp"

namespace fs = std::filesystem;
using namespace sdsi;

namespace {

/// The largest ring net_equiv forks: one process per node, so a mistyped
/// --nodes must not start hundreds.
constexpr long kMaxNodes = 64;

struct Options {
  std::uint32_t nodes = 8;
  std::string dir;
  std::uint64_t seed = 42;
  std::uint32_t samples = 400;
  core::StrategyKind strategy = core::StrategyKind::kDft;
  std::string node_bin;
  int timeout_s = 120;
  // Chaos drill:
  bool chaos = false;
  double fault_uniform = 0.0;
  double fault_burst = 0.0;
  int fault_jitter_ms = 0;
  double fault_reorder = 0.0;
  double fault_corrupt = 0.0;
  int converge_ms = 4000;
  int kill_index = -1;
  int kill_after_ms = 1500;
  int restart_after_ms = 500;
  double recall_floor = 0.95;
  std::string bench_json;
};

[[noreturn]] void usage_and_exit(const char* argv0, std::FILE* out = stderr,
                                 int code = 2) {
  std::fprintf(out,
               "usage: %s --nodes N (1-64) --dir SCRATCH [--seed S] "
               "[--samples K] [--strategy dft|ecm|lsh] "
               "[--node-bin PATH] [--timeout SECONDS] [--chaos] "
               "[--fault-uniform P] [--fault-burst RATE] "
               "[--fault-jitter-ms MS] [--fault-reorder P] "
               "[--fault-corrupt P] [--converge-ms MS] [--kill-index K] "
               "[--kill-after-ms T] [--restart-after-ms R] "
               "[--recall-floor F] [--bench-json PATH]\n",
               argv0);
  std::exit(code);
}

}  // namespace

void sdsi::tools::usage_error(const char* argv0) { usage_and_exit(argv0); }

namespace {

Options parse_args(int argc, char** argv) {
  Options opts;
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
    } else if (arg == "--nodes") {
      const long nodes = whole();
      if (nodes > kMaxNodes) usage_and_exit(argv[0]);
      opts.nodes = static_cast<std::uint32_t>(nodes);
    } else if (arg == "--dir") {
      opts.dir = next();
    } else if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(whole());
    } else if (arg == "--samples") {
      opts.samples = static_cast<std::uint32_t>(whole());
    } else if (arg == "--strategy") {
      const auto kind = core::parse_strategy(next());
      if (!kind.has_value()) usage_and_exit(argv[0]);
      opts.strategy = *kind;
    } else if (arg == "--node-bin") {
      opts.node_bin = next();
    } else if (arg == "--timeout") {
      opts.timeout_s = static_cast<int>(whole());
    } else if (arg == "--chaos") {
      opts.chaos = true;
    } else if (arg == "--fault-uniform") {
      opts.fault_uniform = probability();
      opts.chaos = true;
    } else if (arg == "--fault-burst") {
      opts.fault_burst = tools::parse_burst_loss(next(), argv[0]);
      opts.chaos = true;
    } else if (arg == "--fault-jitter-ms") {
      opts.fault_jitter_ms = static_cast<int>(whole());
      opts.chaos = true;
    } else if (arg == "--fault-reorder") {
      opts.fault_reorder = probability();
      opts.chaos = true;
    } else if (arg == "--fault-corrupt") {
      opts.fault_corrupt = probability();
      opts.chaos = true;
    } else if (arg == "--converge-ms") {
      opts.converge_ms = static_cast<int>(whole());
    } else if (arg == "--kill-index") {
      opts.kill_index = static_cast<int>(whole());
      opts.chaos = true;
    } else if (arg == "--kill-after-ms") {
      opts.kill_after_ms = static_cast<int>(whole());
    } else if (arg == "--restart-after-ms") {
      opts.restart_after_ms = static_cast<int>(whole());
    } else if (arg == "--recall-floor") {
      opts.recall_floor = probability();
    } else if (arg == "--bench-json") {
      opts.bench_json = next();
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opts.nodes == 0 || opts.dir.empty()) usage_and_exit(argv[0]);
  if (opts.chaos && opts.fault_uniform == 0.0 && opts.fault_burst == 0.0 &&
      opts.fault_jitter_ms == 0 && opts.fault_reorder == 0.0 &&
      opts.fault_corrupt == 0.0 && opts.kill_index < 0) {
    // Bare --chaos: the acceptance-gate preset (~10% bursty loss, light
    // jitter/reorder/corruption, one mid-run crash of node 1).
    opts.fault_burst = 0.10;
    opts.fault_jitter_ms = 5;
    opts.fault_reorder = 0.02;
    opts.fault_corrupt = 0.005;
    opts.kill_index = 1;
  }
  if (opts.kill_index >= 0 &&
      static_cast<std::uint32_t>(opts.kill_index) >= opts.nodes) {
    std::fprintf(stderr, "net_equiv: --kill-index out of range\n");
    std::exit(2);
  }
  return opts;
}

/// Directory of this executable, so sdsi_node is found in the same build
/// tree without relying on cwd or PATH.
fs::path self_directory() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return fs::path(".");
  buf[n] = '\0';
  return fs::path(buf).parent_path();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every query whose answer differs between the two digests: matched
/// stream sets, then inner-product answers.
void print_digest_diff(const net::RunDigest& sim_digest,
                       const net::RunDigest& net_digest) {
  for (const auto& [query, streams] : sim_digest.matches) {
    const auto it = net_digest.matches.find(query);
    if (it != net_digest.matches.end() && it->second == streams) continue;
    std::fprintf(stderr, "  query %llu: sim={",
                 static_cast<unsigned long long>(query));
    for (const StreamId s : streams) {
      std::fprintf(stderr, " %llu", static_cast<unsigned long long>(s));
    }
    std::fprintf(stderr, " } net={");
    if (it != net_digest.matches.end()) {
      for (const StreamId s : it->second) {
        std::fprintf(stderr, " %llu", static_cast<unsigned long long>(s));
      }
    } else {
      std::fprintf(stderr, " <missing>");
    }
    std::fprintf(stderr, " }\n");
  }
  for (const auto& [query, streams] : net_digest.matches) {
    if (sim_digest.matches.find(query) == sim_digest.matches.end()) {
      std::fprintf(stderr, "  query %llu: only in net digest\n",
                   static_cast<unsigned long long>(query));
    }
  }
  for (const auto& [query, value] : sim_digest.inner) {
    const auto it = net_digest.inner.find(query);
    if (it == net_digest.inner.end()) {
      std::fprintf(stderr, "  inner query %llu: sim=%.17g net=<missing>\n",
                   static_cast<unsigned long long>(query), value);
    } else if (it->second != value) {
      std::fprintf(stderr, "  inner query %llu: sim=%.17g net=%.17g\n",
                   static_cast<unsigned long long>(query), value, it->second);
    }
  }
  for (const auto& [query, value] : net_digest.inner) {
    if (sim_digest.inner.find(query) == sim_digest.inner.end()) {
      std::fprintf(stderr, "  inner query %llu: only in net digest\n",
                   static_cast<unsigned long long>(query));
    }
  }
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Forks one sdsi_node. `epoch` > 0 marks a restart (fixed `port`).
pid_t launch_node(const Options& opts, const fs::path& node_bin,
                  std::uint32_t index, std::uint32_t port,
                  std::uint64_t epoch) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  std::vector<std::string> args;
  args.push_back(node_bin.string());
  args.push_back("--index");
  args.push_back(std::to_string(index));
  args.push_back("--nodes");
  args.push_back(std::to_string(opts.nodes));
  args.push_back("--dir");
  args.push_back(opts.dir);
  args.push_back("--seed");
  args.push_back(std::to_string(opts.seed));
  args.push_back("--samples");
  args.push_back(std::to_string(opts.samples));
  args.push_back("--strategy");
  args.push_back(core::strategy_name(opts.strategy));
  if (opts.chaos) {
    args.push_back("--reliable");
    args.push_back("--converge-ms");
    args.push_back(std::to_string(opts.converge_ms));
    if (opts.fault_uniform > 0.0) {
      args.push_back("--fault-uniform");
      args.push_back(format_double(opts.fault_uniform));
    }
    if (opts.fault_burst > 0.0) {
      args.push_back("--fault-burst");
      args.push_back(format_double(opts.fault_burst));
    }
    if (opts.fault_jitter_ms > 0) {
      args.push_back("--fault-jitter-ms");
      args.push_back(std::to_string(opts.fault_jitter_ms));
    }
    if (opts.fault_reorder > 0.0) {
      args.push_back("--fault-reorder");
      args.push_back(format_double(opts.fault_reorder));
    }
    if (opts.fault_corrupt > 0.0) {
      args.push_back("--fault-corrupt");
      args.push_back(format_double(opts.fault_corrupt));
    }
  }
  if (port != 0) {
    args.push_back("--port");
    args.push_back(std::to_string(port));
  }
  if (epoch != 0) {
    args.push_back("--epoch");
    args.push_back(std::to_string(epoch));
  }
  std::vector<char*> argv_raw;
  argv_raw.reserve(args.size() + 1);
  for (std::string& a : args) {
    argv_raw.push_back(a.data());
  }
  argv_raw.push_back(nullptr);
  ::execv(node_bin.c_str(), argv_raw.data());
  std::perror("net_equiv: execv");
  ::_exit(127);
}

std::uint64_t json_u64(const obs::Json* obj, const char* key) {
  if (obj == nullptr) return 0;
  const obs::Json* field = obj->find(key);
  return field == nullptr
             ? 0
             : static_cast<std::uint64_t>(field->as_int());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);

  fs::create_directories(opts.dir);
  // Stale rendezvous files from a previous run would wreck the barriers.
  for (const auto& entry : fs::directory_iterator(opts.dir)) {
    fs::remove_all(entry.path());
  }

  const fs::path node_bin = opts.node_bin.empty()
                                ? self_directory() / "sdsi_node"
                                : fs::path(opts.node_bin);
  if (!fs::exists(node_bin)) {
    std::fprintf(stderr, "net_equiv: node binary not found: %s\n",
                 node_bin.c_str());
    return 2;
  }

  // --- Launch the ring ----------------------------------------------------
  using Clock = std::chrono::steady_clock;
  const auto launch_time = Clock::now();
  std::vector<pid_t> children;
  children.reserve(opts.nodes);
  for (std::uint32_t i = 0; i < opts.nodes; ++i) {
    const pid_t pid = launch_node(opts, node_bin, i, /*port=*/0, /*epoch=*/0);
    if (pid < 0) {
      std::perror("net_equiv: fork");
      for (const pid_t child : children) ::kill(child, SIGKILL);
      return 2;
    }
    children.push_back(pid);
  }

  // --- Wait for every process, running the crash drill --------------------
  const auto deadline = Clock::now() + std::chrono::seconds(opts.timeout_s);
  enum class Drill { kIdle, kKilled, kRestarted, kOff };
  Drill drill =
      opts.chaos && opts.kill_index >= 0 ? Drill::kIdle : Drill::kOff;
  auto killed_at = Clock::now();
  std::uint32_t victim_port = 0;
  std::uint32_t exited_ok = 0;
  bool failed = false;
  std::vector<pid_t> pending = children;
  while (!pending.empty() && !failed) {
    if (Clock::now() > deadline) {
      std::fprintf(stderr, "net_equiv: timeout after %d s (%zu still up)\n",
                   opts.timeout_s, pending.size());
      failed = true;
      break;
    }
    if (drill == Drill::kIdle &&
        Clock::now() - launch_time >
            std::chrono::milliseconds(opts.kill_after_ms)) {
      const pid_t victim = children[static_cast<std::size_t>(opts.kill_index)];
      const fs::path port_path =
          fs::path(opts.dir) / ("port." + std::to_string(opts.kill_index));
      std::ifstream in(port_path);
      in >> victim_port;
      if (victim_port == 0) {
        // The ring is still rendezvousing; try again next iteration.
      } else {
        std::fprintf(stderr, "net_equiv: SIGKILL node %d (pid %d)\n",
                     opts.kill_index, static_cast<int>(victim));
        ::kill(victim, SIGKILL);
        ::waitpid(victim, nullptr, 0);
        pending.erase(std::remove(pending.begin(), pending.end(), victim),
                      pending.end());
        killed_at = Clock::now();
        drill = Drill::kKilled;
      }
    }
    if (drill == Drill::kKilled &&
        Clock::now() - killed_at >
            std::chrono::milliseconds(opts.restart_after_ms)) {
      std::fprintf(stderr, "net_equiv: restarting node %d on port %u\n",
                   opts.kill_index, victim_port);
      const pid_t replacement =
          launch_node(opts, node_bin,
                      static_cast<std::uint32_t>(opts.kill_index),
                      victim_port, /*epoch=*/1);
      if (replacement < 0) {
        std::perror("net_equiv: fork (restart)");
        failed = true;
        break;
      }
      children[static_cast<std::size_t>(opts.kill_index)] = replacement;
      pending.push_back(replacement);
      drill = Drill::kRestarted;
    }
    for (auto it = pending.begin(); it != pending.end();) {
      int status = 0;
      const pid_t done = ::waitpid(*it, &status, WNOHANG);
      if (done == 0) {
        ++it;
        continue;
      }
      if (done < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "net_equiv: node pid %d failed (status %d)\n",
                     static_cast<int>(*it), status);
        failed = true;
      } else {
        ++exited_ok;
      }
      it = pending.erase(it);
    }
    ::usleep(20'000);
  }
  if (drill == Drill::kIdle || drill == Drill::kKilled) {
    std::fprintf(stderr,
                 "net_equiv: drill never completed (ring finished first); "
                 "rerun with a smaller --kill-after-ms\n");
    failed = true;
  }
  if (failed) {
    for (const pid_t child : pending) ::kill(child, SIGKILL);
    for (const pid_t child : pending) ::waitpid(child, nullptr, 0);
    return 1;
  }
  std::fprintf(stderr, "net_equiv: %u/%u node processes exited cleanly\n",
               exited_ok, opts.nodes);

  // --- Merge the per-process digests --------------------------------------
  net::RunDigest net_digest;
  std::uint64_t total_frames = 0;
  std::uint64_t total_reconnects = 0;
  std::uint64_t total_detours = 0;
  std::uint64_t total_rejoins = 0;
  std::uint64_t total_retransmits = 0;
  std::uint64_t drops_total = 0;
  std::uint64_t drops_unaccounted = 0;
  for (std::uint32_t i = 0; i < opts.nodes; ++i) {
    const fs::path out_path =
        fs::path(opts.dir) / ("out." + std::to_string(i) + ".json");
    std::string error;
    const auto doc = obs::Json::parse(slurp(out_path), &error);
    if (!doc || !doc->is_object()) {
      std::fprintf(stderr, "net_equiv: bad %s: %s\n", out_path.c_str(),
                   error.c_str());
      return 1;
    }
    const obs::Json* results = doc->find("results");
    if (results == nullptr || !results->is_object()) {
      std::fprintf(stderr, "net_equiv: %s missing results\n",
                   out_path.c_str());
      return 1;
    }
    for (const auto& [key, streams] : results->members()) {
      auto& bucket = net_digest.matches[std::stoull(key)];
      for (std::size_t k = 0; k < streams.size(); ++k) {
        bucket.insert(static_cast<StreamId>(streams[k].as_int()));
      }
    }
    if (const obs::Json* inner = doc->find("inner"); inner != nullptr) {
      for (const auto& [key, value] : inner->members()) {
        net_digest.inner[std::stoull(key)] = value.as_number();
      }
    }
    const obs::Json* transport = doc->find("transport");
    total_frames += json_u64(transport, "frames_received");
    total_reconnects += json_u64(transport, "reconnect_attempts");
    const obs::Json* counters = doc->find("counters");
    total_detours += json_u64(counters, "detours");
    total_retransmits += json_u64(counters, "mbr_retransmits") +
                         json_u64(counters, "response_retransmits");
    total_rejoins += json_u64(doc->find("detector"), "rejoins");

    // Zero-unaccounted-drops: every frame this endpoint offered must be
    // either handed to the kernel or attributed to a DropCause.
    const obs::Json* faults = doc->find("faults");
    const obs::Json* drops = doc->find("drops");
    for (const char* slug :
         {"uniform_loss", "burst_loss", "partition", "outbox_overflow",
          "malformed_frame"}) {
      drops_total += json_u64(drops, slug);
    }
    if (faults != nullptr) {
      const std::uint64_t offered = json_u64(faults, "offered");
      const std::uint64_t accounted =
          json_u64(transport, "frames_sent") +
          json_u64(drops, "outbox_overflow") +
          json_u64(drops, "uniform_loss") + json_u64(drops, "burst_loss") +
          json_u64(drops, "partition");
      const std::uint64_t leaks = json_u64(faults, "forward_failures") +
                                  json_u64(faults, "pending_delayed");
      if (offered != accounted || leaks != 0) {
        std::fprintf(stderr,
                     "net_equiv: node %u UNACCOUNTED DROPS: offered=%llu "
                     "accounted=%llu leaks=%llu\n",
                     i, static_cast<unsigned long long>(offered),
                     static_cast<unsigned long long>(accounted),
                     static_cast<unsigned long long>(leaks));
        drops_unaccounted +=
            (offered > accounted ? offered - accounted : accounted - offered) +
            leaks;
      }
    }
  }

  // --- Compare against the canonical (fault-free) sim ---------------------
  net::WorkloadConfig config;
  config.nodes = opts.nodes;
  config.seed = opts.seed;
  config.samples_per_stream = opts.samples;
  config.strategy = opts.strategy;
  const net::RunDigest sim_digest = net::run_sim_reference(config);

  std::size_t nonempty = 0;
  for (const auto& [query, streams] : sim_digest.matches) {
    if (!streams.empty()) ++nonempty;
  }
  if (sim_digest.matches.size() != opts.nodes || nonempty == 0 ||
      sim_digest.inner.size() != opts.nodes) {
    std::fprintf(stderr,
                 "net_equiv: vacuous reference (queries=%zu, nonempty=%zu, "
                 "inner answers=%zu)\n",
                 sim_digest.matches.size(), nonempty, sim_digest.inner.size());
    return 1;
  }

  if (!opts.chaos) {
    if (net_digest != sim_digest) {
      std::fprintf(stderr, "net_equiv: DIGEST MISMATCH (sim vs socket):\n");
      print_digest_diff(sim_digest, net_digest);
      return 1;
    }
    std::printf(
        "net_equiv: OK — %u processes, %zu queries (%zu with matches), "
        "%zu inner-product answers, %llu TCP frames, socket digest == sim "
        "digest\n",
        opts.nodes, sim_digest.matches.size(), nonempty,
        sim_digest.inner.size(), static_cast<unsigned long long>(total_frames));
    return 0;
  }

  // --- Chaos verdict: recall floor + full drop accounting -----------------
  // Queries posed by the killed member are excluded (its client-side result
  // set died with the first process; the RecallOracle applies the same
  // policy to crashed sim clients).
  std::map<std::uint64_t, NodeIndex> client_of;
  for (const net::WorkloadQuery& query : net::workload_queries(config)) {
    client_of[query.id] = query.client;
  }
  std::uint64_t expected_pairs = 0;
  std::uint64_t recovered_pairs = 0;
  std::uint64_t excluded_queries = 0;
  for (const auto& [query, streams] : sim_digest.matches) {
    const auto client_it = client_of.find(query);
    if (opts.kill_index >= 0 && client_it != client_of.end() &&
        client_it->second == static_cast<NodeIndex>(opts.kill_index)) {
      ++excluded_queries;
      continue;
    }
    expected_pairs += streams.size();
    const auto it = net_digest.matches.find(query);
    if (it == net_digest.matches.end()) continue;
    for (const StreamId s : streams) {
      if (it->second.count(s) != 0) ++recovered_pairs;
    }
  }
  const double recall =
      expected_pairs == 0
          ? 1.0
          : static_cast<double>(recovered_pairs) /
                static_cast<double>(expected_pairs);

  std::printf(
      "net_equiv: chaos — recall %.4f (%llu/%llu pairs, %llu queries "
      "excluded), drops=%llu (unaccounted %llu), detours=%llu, "
      "retransmits=%llu, rejoins=%llu, reconnects=%llu, frames=%llu\n",
      recall, static_cast<unsigned long long>(recovered_pairs),
      static_cast<unsigned long long>(expected_pairs),
      static_cast<unsigned long long>(excluded_queries),
      static_cast<unsigned long long>(drops_total),
      static_cast<unsigned long long>(drops_unaccounted),
      static_cast<unsigned long long>(total_detours),
      static_cast<unsigned long long>(total_retransmits),
      static_cast<unsigned long long>(total_rejoins),
      static_cast<unsigned long long>(total_reconnects),
      static_cast<unsigned long long>(total_frames));

  if (!opts.bench_json.empty()) {
    const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             Clock::now() - launch_time)
                             .count();
    std::ostringstream cfg;
    cfg << "socket N=" << opts.nodes << " seed=" << opts.seed
        << " burst~" << static_cast<int>(opts.fault_burst * 100) << "%"
        << " corrupt=" << format_double(opts.fault_corrupt)
        << " jitter=" << opts.fault_jitter_ms << "ms";
    if (opts.kill_index >= 0) {
      cfg << " kill=" << opts.kill_index << "@" << opts.kill_after_ms
          << "ms restart+" << opts.restart_after_ms << "ms";
    }
    const auto row = [&](const char* name, double value) {
      obs::Json r = obs::Json::object();
      r["name"] = std::string(name);
      r["config"] = cfg.str();
      r["threads"] = static_cast<std::uint64_t>(1);
      r["ops_per_sec"] = value;
      r["wall_ms"] = static_cast<std::uint64_t>(wall_ms);
      return r;
    };
    obs::Json rows = obs::Json::array();
    rows.push_back(row("recall/socket-chaos", recall));
    rows.push_back(row("drops_total/socket-chaos",
                       static_cast<double>(drops_total)));
    rows.push_back(row("drops_unaccounted/socket-chaos",
                       static_cast<double>(drops_unaccounted)));
    rows.push_back(row("detours/socket-chaos",
                       static_cast<double>(total_detours)));
    rows.push_back(row("retransmits/socket-chaos",
                       static_cast<double>(total_retransmits)));
    rows.push_back(row("rejoins/socket-chaos",
                       static_cast<double>(total_rejoins)));
    rows.push_back(row("frames/socket-chaos",
                       static_cast<double>(total_frames)));
    obs::Json doc = obs::Json::object();
    doc["schema_version"] = static_cast<std::uint64_t>(1);
    doc["suite"] = std::string("robustness");
    doc["benchmarks"] = std::move(rows);
    std::ofstream out(opts.bench_json, std::ios::trunc);
    out << doc.dump(2) << "\n";
  }

  if (drops_unaccounted != 0) {
    std::fprintf(stderr, "net_equiv: FAIL — unaccounted drops\n");
    return 1;
  }
  if (recall < opts.recall_floor) {
    std::fprintf(stderr, "net_equiv: FAIL — recall %.4f < floor %.4f\n",
                 recall, opts.recall_floor);
    print_digest_diff(sim_digest, net_digest);
    return 1;
  }
  return 0;
}
