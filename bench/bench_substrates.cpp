// Portability ablation (Sec II-B / VII): the identical middleware and
// Table I workload over three routing substrates — Chord (the paper's
// testbed), Pastry-style prefix routing, and an idealized one-hop DHT.
//
// "The proposed middleware relies on the standard distributed hashing table
// interface ... it can be used on top of any existing content-based routing
// implementation." Functional results (matches found) must agree; what
// changes is the transit cost and hop structure of the overlay.
#include "bench/bench_common.hpp"

int main() {
  using namespace sdsi;
  std::printf("=== Substrate portability: Chord vs prefix routing vs ideal DHT ===\n");

  common::TextTable table({"Nodes", "Substrate", "MBR hops", "Resp hops",
                           "MBR transit/MBR", "Total load/node/s",
                           "Matches", "Responses"});
  for (const std::size_t n : {std::size_t{100}, std::size_t{300}}) {
    std::vector<core::ExperimentConfig> configs;
    for (const auto substrate :
         {core::SubstrateKind::kChord, core::SubstrateKind::kPrefixRing,
          core::SubstrateKind::kStaticRing}) {
      configs.push_back(bench::paper_experiment(n));
      configs.back().substrate = substrate;
    }
    const auto experiments = bench::run_sweep(configs);
    const char* names[] = {"Chord (recursive)", "prefix (Pastry-like)",
                           "ideal one-hop"};
    for (std::size_t i = 0; i < experiments.size(); ++i) {
      const auto& experiment = experiments[i];
      const core::HopsReport hops = experiment->hops_report();
      const core::OverheadReport overhead = experiment->overhead_report();
      const core::QualityReport quality = experiment->quality_report();
      table.begin_row()
          .add_int(static_cast<long long>(n))
          .add_cell(names[i])
          .add_num(hops.mbr, 2)
          .add_num(hops.response, 2)
          .add_num(overhead.mbr_transit, 2)
          .add_num(experiment->load_report().total, 2)
          .add_int(static_cast<long long>(quality.matches_reported))
          .add_int(static_cast<long long>(quality.responses_received));
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nShape check: matches/responses are substrate-independent (the\n"
      "middleware is unchanged); hop counts drop from Chord's ~0.5*log2(N)\n"
      "to ~log16(N) for prefix routing to 1 for the ideal DHT, and transit\n"
      "load shrinks with them.\n");
  return 0;
}
