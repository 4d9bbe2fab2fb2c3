#include "fault/model.hpp"

#include <utility>

#include "common/check.hpp"

namespace sdsi::fault {

LinkFaultModel::LinkFaultModel(FaultPlan plan, common::IdSpace space,
                               common::Pcg32 rng, common::Pcg32 loss_rng)
    : plan_(std::move(plan)), space_(space), rng_(rng), loss_rng_(loss_rng) {
  SDSI_CHECK(plan_.uniform_loss >= 0.0 && plan_.uniform_loss <= 1.0);
  if (plan_.burst_loss.has_value()) {
    const GilbertElliottParams& ge = *plan_.burst_loss;
    SDSI_CHECK(ge.p_good_to_bad >= 0.0 && ge.p_good_to_bad <= 1.0);
    SDSI_CHECK(ge.p_bad_to_good > 0.0 && ge.p_bad_to_good <= 1.0);
    SDSI_CHECK(ge.loss_good >= 0.0 && ge.loss_good <= 1.0);
    SDSI_CHECK(ge.loss_bad >= 0.0 && ge.loss_bad <= 1.0);
  }
  for (const KeyRangePartition& partition : plan_.partitions) {
    SDSI_CHECK(partition.from <= partition.until);
  }
}

std::optional<DropCause> LinkFaultModel::sample_drop(Key target_key,
                                                     sim::SimTime now) {
  // uniform_loss == 1.0 is a total blackout: uniform01() < 1.0 always holds.
  if (plan_.uniform_loss > 0.0 && loss_rng_.uniform01() < plan_.uniform_loss) {
    return DropCause::kUniformLoss;
  }
  for (const KeyRangePartition& partition : plan_.partitions) {
    if (now >= partition.from && now < partition.until &&
        space_.in_closed(target_key, partition.lo, partition.hi)) {
      return DropCause::kPartition;
    }
  }
  if (plan_.burst_loss.has_value()) {
    const GilbertElliottParams& ge = *plan_.burst_loss;
    // Advance the chain, then sample the current state's loss probability.
    if (in_bad_state_) {
      if (rng_.uniform01() < ge.p_bad_to_good) {
        in_bad_state_ = false;
      }
    } else {
      if (rng_.uniform01() < ge.p_good_to_bad) {
        in_bad_state_ = true;
      }
    }
    const double loss = in_bad_state_ ? ge.loss_bad : ge.loss_good;
    if (loss > 0.0 && rng_.uniform01() < loss) {
      return DropCause::kBurstLoss;
    }
  }
  return std::nullopt;
}

sim::Duration LinkFaultModel::sample_jitter() {
  if (!plan_.jitter.has_value() ||
      plan_.jitter->max <= sim::Duration()) {
    return sim::Duration();
  }
  return sim::Duration::micros(
      rng_.uniform_int(0, plan_.jitter->max.count_micros()));
}

}  // namespace sdsi::fault
