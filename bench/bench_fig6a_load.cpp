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
  for (const auto& experiment : experiments) {
    const core::LoadReport load = experiment->load_report();
    table.begin_row().add_int(
        static_cast<long long>(experiment->config().num_nodes));
    for (const double component : load.per_component) {
      table.add_num(component, 3);
    }
    table.add_num(load.total, 3);
  }
  std::printf("%s", table.render().c_str());

  std::printf(
      "\nShape checks (paper claims): MBR-source ~constant, transit\n"
      "components grow slowly (~log N), total bounded. Responses per node\n"
      "stay ~constant instead of falling ~1/N: a push carries only new\n"
      "matches.\n");
  return 0;
}
