// Figure 6(a): average per-node message load per second, broken into the
// paper's seven components, as a function of the number of nodes. The table
// has one column per LoadComponent, then the total; the control and
// replication components this system adds stay zero in these fault-free
// runs.
//
// Paper shapes to reproduce: the MBR-source component is ~constant in N,
// and so is the report-digest one ("Responses internal") up to a slow
// growth; transit components grow ~log N; total load stays bounded. The
// paper's per-node response load falls ~1/N because each aggregator pushes
// every live query once per NPER (the query rate is global). Here a push
// carries only new matches and leaves when they arrive, so that component
// stays ~constant (EXPERIMENTS.md, known deviation 5).
//
// Two shape checks are enforced, and the bench exits 1 when either fails:
//  - the MBR-source column varies by at most 5 % across N;
//  - "MBRs internal" stays below "MBRs in transit" at every N. The paper
//    calls range copies negligible; with stub placement (EXPERIMENTS.md,
//    known deviation 6) a batch is copied only over the slack's share of
//    its range, so they are.
#include <algorithm>

#include "bench/bench_common.hpp"

int main() {
  using namespace sdsi;
  std::printf("=== Figure 6(a): average load of messages on a node (per second) ===\n");

  std::vector<core::ExperimentConfig> configs;
  for (const std::size_t n : bench::paper_node_counts()) {
    configs.push_back(bench::paper_experiment(n));
  }
  bench::print_workload_banner(configs.front().workload);
  const auto experiments = bench::run_sweep(configs);

  std::vector<std::string> header{"Nodes"};
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(core::LoadComponent::kCount); ++c) {
    header.emplace_back(
        core::load_component_name(static_cast<core::LoadComponent>(c)));
  }
  header.emplace_back("Total");
  common::TextTable table(std::move(header));
  std::vector<double> source;
  std::vector<std::size_t> copies_not_negligible;
  for (const auto& experiment : experiments) {
    const core::LoadReport load = experiment->load_report();
    const std::size_t nodes = experiment->config().num_nodes;
    table.begin_row().add_int(static_cast<long long>(nodes));
    for (const double component : load.per_component) {
      table.add_num(component, 3);
    }
    table.add_num(load.total, 3);
    const auto component = [&](core::LoadComponent c) {
      return load.per_component[static_cast<std::size_t>(c)];
    };
    source.push_back(component(core::LoadComponent::kMbrSource));
    if (component(core::LoadComponent::kMbrInternal) >=
        component(core::LoadComponent::kMbrTransit)) {
      copies_not_negligible.push_back(nodes);
    }
  }
  std::printf("%s", table.render().c_str());

  std::printf(
      "\nShape checks (paper claims): MBR-source ~constant, transit\n"
      "components grow slowly (~log N), total bounded. Responses per node\n"
      "stay ~constant instead of falling ~1/N: a push carries only new\n"
      "matches.\n");
  const auto [low, high] = std::minmax_element(source.begin(), source.end());
  const double spread = (*high - *low) / *low;
  bool ok = true;
  if (spread > 0.05) {
    std::printf("FAIL: MBR-source varies by %.1f %% across N (bound 5 %%)\n",
                100.0 * spread);
    ok = false;
  }
  for (const std::size_t nodes : copies_not_negligible) {
    std::printf("FAIL: MBRs internal >= MBRs in transit at N = %zu\n", nodes);
    ok = false;
  }
  if (ok) {
    std::printf(
        "Enforced: MBR-source spread %.1f %% <= 5 %%; MBRs internal below\n"
        "MBRs in transit at every N.\n",
        100.0 * spread);
  }
  return ok ? 0 : 1;
}
