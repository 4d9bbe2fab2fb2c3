#include "net/sim_transport.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "net/wire.hpp"

namespace sdsi::net {

SimTransport::SimTransport(SimFabric& fabric, NodeIndex self)
    : fabric_(fabric), self_(self) {
  fabric.attach(self, this);
}

bool SimTransport::send(NodeIndex peer, const routing::Message& msg) {
  // Model the wire faithfully: the peer receives the decoded form of the
  // encoded bytes, never the in-memory original (shared_ptr payloads are
  // deep-copied by the codec exactly as a socket hop would).
  return carry(peer, encode_frame(msg), /*own_frame=*/true);
}

bool SimTransport::send_raw(NodeIndex peer,
                            std::span<const std::uint8_t> frame) {
  return carry(peer, frame, /*own_frame=*/false);
}

bool SimTransport::carry(NodeIndex peer, std::span<const std::uint8_t> frame,
                         bool own_frame) {
  if (peer >= fabric_.endpoints_.size() ||
      fabric_.endpoints_[peer] == nullptr) {
    return false;
  }
  ++fabric_.frames_;
  fabric_.bytes_ += frame.size();
  // The receiving side of the hop runs the codec, exactly as a socket
  // endpoint would on arrival.
  auto decoded = std::make_shared<routing::Message>();
  const bool ok = decode_frame(frame, decoded.get()) == DecodeResult::kOk;
  if (own_frame) {
    // A frame this codec encoded must decode, and re-encoding the decoded
    // copy must give the same bytes, or the codec lost information on
    // live traffic.
    SDSI_CHECK(ok);
    SDSI_CHECK(std::ranges::equal(encode_frame(*decoded), frame));
  } else if (!ok) {
    // Damaged raw bytes (fault-injected corruption) are a counted drop.
    ++fabric_.decode_rejects_;
    if (fabric_.drop_hook_) {
      fabric_.drop_hook_(fault::DropCause::kMalformedFrame);
    }
    return true;  // accepted by the medium; lost at the receiver, accounted
  }
  SimTransport* endpoint = fabric_.endpoints_[peer];
  fabric_.sim_.schedule_after(fabric_.hop_latency_, [endpoint, decoded] {
    if (endpoint->deliver_) {
      endpoint->deliver_(std::move(*decoded));
    }
  });
  return true;
}

}  // namespace sdsi::net
