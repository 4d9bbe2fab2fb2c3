#include "net/faulty_transport.hpp"

#include <chrono>
#include <utility>

#include "net/wire.hpp"

namespace sdsi::net {

FaultyTransport::FaultyTransport(Transport& inner, fault::FaultPlan plan,
                                 common::IdSpace space, std::uint64_t seed)
    : inner_(inner),
      model_(std::move(plan), space, common::Pcg32(seed, /*stream=*/0x11),
             common::Pcg32(seed, /*stream=*/0x33)),
      aux_(seed, /*stream=*/0x22) {
  clock_ms_ = [start = std::chrono::steady_clock::now()] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
}

bool FaultyTransport::send(NodeIndex peer, const routing::Message& msg) {
  ++stats_.offered;
  const std::int64_t now_ms = clock_ms_();
  if (const std::optional<fault::DropCause> cause = model_.sample_drop(
          msg.target_key, sim::SimTime::from_micros(now_ms * 1000))) {
    switch (*cause) {
      case fault::DropCause::kUniformLoss:
        ++stats_.dropped_uniform;
        break;
      case fault::DropCause::kBurstLoss:
        ++stats_.dropped_burst;
        break;
      default:
        ++stats_.dropped_partition;
        break;
    }
    return true;  // the sender's frame left; the wire ate it (accounted)
  }

  const fault::FaultPlan& plan = model_.plan();
  std::int64_t delay_ms = model_.sample_jitter().count_micros() / 1000;
  if (plan.reorder > 0.0 && aux_.uniform01() < plan.reorder) {
    ++stats_.reordered;
    delay_ms += plan.reorder_extra.count_micros() / 1000;
  }
  const bool corrupt = plan.corrupt > 0.0 && aux_.uniform01() < plan.corrupt;

  if (!corrupt && delay_ms <= 0) {
    // Clean immediate frame: hand over the in-memory form so a fault-free
    // plan stays byte-for-byte the bare transport's behavior.
    ++stats_.forwarded;
    if (inner_.send(peer, msg)) {
      return true;
    }
    ++stats_.forward_failures;
    return false;
  }

  std::vector<std::uint8_t> frame = encode_frame(msg);
  if (corrupt && frame.size() > kWireHeaderSize) {
    ++stats_.corrupted;
    const std::size_t index =
        kWireHeaderSize +
        aux_.bounded(static_cast<std::uint32_t>(frame.size() -
                                                kWireHeaderSize));
    frame[index] ^= static_cast<std::uint8_t>(1 + aux_.bounded(255));
  }
  if (delay_ms <= 0) {
    ++stats_.forwarded;
    if (inner_.send_raw(peer, frame)) {
      return true;
    }
    ++stats_.forward_failures;
    return false;
  }
  ++stats_.delayed;
  delayed_.push(
      DelayedFrame{now_ms + delay_ms, next_seq_++, peer, std::move(frame)});
  return true;
}

bool FaultyTransport::send_raw(NodeIndex peer,
                               std::span<const std::uint8_t> frame) {
  ++stats_.offered;
  ++stats_.forwarded;
  if (inner_.send_raw(peer, frame)) {
    return true;
  }
  ++stats_.forward_failures;
  return false;
}

void FaultyTransport::release_due(std::int64_t now_ms) {
  while (!delayed_.empty() && delayed_.top().due_ms <= now_ms) {
    // priority_queue::top is const; the element is discarded right after,
    // so moving its buffer out is safe.
    DelayedFrame frame = std::move(const_cast<DelayedFrame&>(delayed_.top()));
    delayed_.pop();
    ++stats_.forwarded;
    if (!inner_.send_raw(frame.peer, frame.bytes)) {
      ++stats_.forward_failures;
    }
  }
}

void FaultyTransport::poll(int budget_ms) {
  release_due(clock_ms_());
  inner_.poll(budget_ms);
}

}  // namespace sdsi::net
