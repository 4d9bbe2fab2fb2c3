#include "net/wire.hpp"

#include <bit>
#include <concepts>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "core/query.hpp"
#include "dsp/features.hpp"
#include "dsp/mbr.hpp"

namespace sdsi::net {

namespace {

using core::AggregatorReplicaPayload;
using core::AntiEntropyDigestPayload;
using core::AntiEntropyRequestPayload;
using core::HandoffRequestPayload;
using core::HeartbeatPayload;
using core::InnerProductQuery;
using core::InnerProductQueryPayload;
using core::LocationGetPayload;
using core::LocationPutPayload;
using core::LocationReplyPayload;
using core::MatchReport;
using core::MbrAckPayload;
using core::MbrBatchId;
using core::MbrPayload;
using core::NeighborDigestPayload;
using core::ReplicaMbrEntry;
using core::ReplicaPutPayload;
using core::ReplicaSubscriptionEntry;
using core::ResponseAckPayload;
using core::ResponsePayload;
using core::SimilarityMatch;
using core::SimilarityQuery;
using core::SimilarityQueryPayload;
using routing::Message;
using routing::MsgKind;
using routing::RangeDir;
using routing::payload_of;

// --- Field lists --------------------------------------------------------------
//
// One list per wire type, in v1 order (docs/WIRE_FORMAT.md § 2–4). The Writer
// walks a list to encode and the Reader walks the same list to decode, so a
// field cannot be added, reordered or resized in one direction only. A
// field's wire width follows from its C++ type (see Writer).

/// `P` is `T`, read-only (the Writer's view) or writable (the Reader's).
template <typename P, typename T>
concept Is = std::same_as<std::remove_const_t<P>, T>;

template <typename IO, Is<FrameHeader> P>
void fields(IO& io, P& h) {
  io(h.version, h.kind, h.flags, h.range_dir, h.reserved, h.origin,
     h.target_key, h.range_lo, h.range_hi, h.hops, h.payload_len,
     h.sent_at_us, h.trace_id);
}

// Nested types.
template <typename IO, Is<SimilarityQuery> P>
void fields(IO& io, P& q) {
  io(q.id, q.client, q.features, q.radius, q.lifespan, q.issued_at);
}
template <typename IO, Is<InnerProductQuery> P>
void fields(IO& io, P& q) {
  io(q.id, q.client, q.stream, q.index, q.weights, q.lifespan, q.issued_at);
}
template <typename IO, Is<SimilarityMatch> P>
void fields(IO& io, P& m) {
  io(m.query, m.stream, m.bound_distance, m.detected_at);
}
template <typename IO, Is<MatchReport> P>
void fields(IO& io, P& r) {
  io(r.match, r.client, r.middle_key, r.query_expires);
}
template <typename IO, Is<MbrBatchId> P>
void fields(IO& io, P& id) {
  io(id.stream, id.batch_seq);
}
template <typename IO, Is<ReplicaMbrEntry> P>
void fields(IO& io, P& e) {
  io(e.stream, e.source, e.mbr, e.batch_seq, e.expires);
}
template <typename IO, Is<ReplicaSubscriptionEntry> P>
void fields(IO& io, P& e) {
  io(e.query, e.middle_key, e.expires);
}

// Payloads, in kind order.
template <typename IO, Is<MbrPayload> P>
void fields(IO& io, P& p) {
  io(p.stream, p.source, p.mbr, p.batch_seq, p.expires);
}
template <typename IO, Is<SimilarityQueryPayload> P>
void fields(IO& io, P& p) {
  io(p.query, p.middle_key);
}
template <typename IO, Is<InnerProductQueryPayload> P>
void fields(IO& io, P& p) {
  io(p.query);
}
template <typename IO, Is<ResponsePayload> P>
void fields(IO& io, P& p) {
  io(p.query, p.client, p.inner_product, p.matches, p.inner_product_value,
     p.aggregator, p.push_seq);
}
template <typename IO, Is<NeighborDigestPayload> P>
void fields(IO& io, P& p) {
  io(p.reports);
}
template <typename IO, Is<LocationPutPayload> P>
void fields(IO& io, P& p) {
  io(p.stream, p.source);
}
template <typename IO, Is<LocationGetPayload> P>
void fields(IO& io, P& p) {
  io(p.stream, p.requester);
}
template <typename IO, Is<LocationReplyPayload> P>
void fields(IO& io, P& p) {
  io(p.stream, p.source);
}
template <typename IO, Is<MbrAckPayload> P>
void fields(IO& io, P& p) {
  io(p.stream, p.batch_seq);
}
template <typename IO, Is<ResponseAckPayload> P>
void fields(IO& io, P& p) {
  io(p.query, p.push_seq);
}
template <typename IO, Is<ReplicaPutPayload> P>
void fields(IO& io, P& p) {
  io(p.from, p.mbrs, p.subscriptions, p.handoff, p.repair);
}
template <typename IO, Is<HandoffRequestPayload> P>
void fields(IO& io, P& p) {
  io(p.requester, p.lo, p.hi);
}
template <typename IO, Is<AntiEntropyDigestPayload> P>
void fields(IO& io, P& p) {
  io(p.from, p.lo, p.hi, p.mbr_keys, p.query_ids);
}
template <typename IO, Is<AntiEntropyRequestPayload> P>
void fields(IO& io, P& p) {
  io(p.requester, p.mbr_keys, p.query_ids);
}
template <typename IO, Is<AggregatorReplicaPayload> P>
void fields(IO& io, P& p) {
  io(p.query, p.client, p.middle_key, p.expires, p.owner, p.matches);
}
template <typename IO, Is<HeartbeatPayload> P>
void fields(IO& io, P& p) {
  io(p.from, p.epoch, p.seq);
}

template <typename T>
constexpr std::type_identity<T> as{};

/// The kind → payload-type table, shared by both directions: calls `visit`
/// with `as<P>` for the kind's payload struct P.
template <typename Visit>
void with_payload_type(MsgKind kind, Visit&& visit) {
  switch (kind) {
    case MsgKind::kInvalid: break;
    case MsgKind::kMbrUpdate: return visit(as<MbrPayload>);
    case MsgKind::kSimilarityQuery: return visit(as<SimilarityQueryPayload>);
    case MsgKind::kInnerProductQuery:
      return visit(as<InnerProductQueryPayload>);
    case MsgKind::kResponse: return visit(as<ResponsePayload>);
    case MsgKind::kNeighborExchange: return visit(as<NeighborDigestPayload>);
    case MsgKind::kLocationPut: return visit(as<LocationPutPayload>);
    case MsgKind::kLocationGet: return visit(as<LocationGetPayload>);
    case MsgKind::kLocationReply: return visit(as<LocationReplyPayload>);
    case MsgKind::kMbrAck: return visit(as<MbrAckPayload>);
    case MsgKind::kResponseAck: return visit(as<ResponseAckPayload>);
    case MsgKind::kReplicaPut: return visit(as<ReplicaPutPayload>);
    case MsgKind::kHandoffRequest: return visit(as<HandoffRequestPayload>);
    case MsgKind::kAntiEntropyDigest:
      return visit(as<AntiEntropyDigestPayload>);
    case MsgKind::kAntiEntropyRequest:
      return visit(as<AntiEntropyRequestPayload>);
    case MsgKind::kAggregatorReplica:
      return visit(as<AggregatorReplicaPayload>);
    case MsgKind::kHeartbeat: return visit(as<HeartbeatPayload>);
  }
  // decode_header admits only assigned kinds, so only an encode gets here.
  SDSI_CHECK(false && "message kind carries no codec");
}

// --- Walkers ------------------------------------------------------------------

/// A fixed-width integer field (bool is a field type of its own).
template <typename T>
concept WireInt = std::integral<T> && !std::same_as<T, bool>;

/// Encodes by storing each field little-endian, unaligned: an integer at
/// its own width (NodeIndex u32; ids, keys and sequence numbers u64), bool
/// as u8, double as its f64 bit pattern, time and duration as i64 µs.
/// Vectors, features and MBRs lead with a u32 element count. A Writer
/// without a buffer only counts bytes: that pass sizes the frame, so it is
/// allocated once and the writing pass needs no bounds checks.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::uint8_t* out) : out_(out) {}

  std::size_t size() const noexcept { return size_; }

  template <typename... Fields>
  void operator()(const Fields&... values) {
    (put(values), ...);
  }

 private:
  template <WireInt T>
  void put(const T& v) {
    if (out_ != nullptr) {
      const auto bits = static_cast<std::make_unsigned_t<T>>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out_[size_ + i] = static_cast<std::uint8_t>(bits >> (8 * i));
      }
    }
    size_ += sizeof(T);
  }
  void put(bool v) { put(static_cast<std::uint8_t>(v)); }
  /// Bit-exact: NaN payloads and signed zero round-trip unchanged.
  void put(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void put(sim::SimTime t) { put(t.count_micros()); }
  void put(sim::Duration d) { put(d.count_micros()); }
  void put_count(std::size_t n) { put(static_cast<std::uint32_t>(n)); }
  void put(const dsp::FeatureVector& features) {
    put_count(features.size());
    for (const dsp::Complex& c : features.coefficients()) {
      put(c.real());
      put(c.imag());
    }
  }
  void put(const dsp::Mbr& mbr) {
    put_count(mbr.dimensions());
    for (const double v : mbr.low()) put(v);
    for (const double v : mbr.high()) put(v);
  }
  template <typename T>
  void put(const std::vector<T>& values) {
    put_count(values.size());
    for (const T& v : values) put(v);
  }
  template <typename T>
  void put(const std::shared_ptr<const T>& ptr) {
    SDSI_CHECK(ptr != nullptr);
    put(*ptr);
  }
  template <typename T>
  void put(const T& record) {
    fields(*this, record);
  }

  std::uint8_t* out_ = nullptr;
  std::size_t size_ = 0;
};

/// Decodes untrusted bytes by walking the same lists. A short read, a bool
/// byte other than 00/01, a count above the bytes left (checked before any
/// allocation), or an MBR that is empty or has low[i] > high[i] poisons the
/// reader; every later read is then a no-op and decode_frame rejects.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  template <typename... Fields>
  void operator()(Fields&... values) {
    (get(values), ...);
  }

 private:
  template <WireInt T>
  void get(T& v) {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return;
    }
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bits |= std::uint64_t{bytes_[pos_ + i]} << (8 * i);
    }
    pos_ += sizeof(T);
    v = static_cast<T>(bits);
  }
  void get(bool& v) {
    std::uint8_t byte = 0;
    get(byte);
    ok_ = ok_ && byte <= 1;
    v = byte == 1;
  }
  void get(double& v) {
    std::uint64_t bits = 0;
    get(bits);
    v = std::bit_cast<double>(bits);
  }
  void get(sim::SimTime& t) {
    std::int64_t us = 0;
    get(us);
    t = sim::SimTime::from_micros(us);
  }
  void get(sim::Duration& d) {
    std::int64_t us = 0;
    get(us);
    d = sim::Duration::micros(us);
  }
  /// Every element takes at least one byte, so a larger count is corrupt and
  /// cannot drive a multi-gigabyte allocation.
  std::size_t get_count() {
    std::uint32_t n = 0;
    get(n);
    ok_ = ok_ && n <= remaining();
    return ok_ ? n : 0;
  }
  void get(dsp::FeatureVector& features) {
    const std::size_t n = get_count();
    std::vector<dsp::Complex> coeffs;
    coeffs.reserve(n);
    for (std::size_t i = 0; i < n && ok_; ++i) {
      double re = 0.0;
      double im = 0.0;
      (*this)(re, im);
      coeffs.emplace_back(re, im);
    }
    features = dsp::FeatureVector(std::move(coeffs));
  }
  void get(dsp::Mbr& mbr) {
    const std::size_t dims = get_count();
    std::vector<double> low(dims);
    std::vector<double> high(dims);
    for (double& v : low) get(v);
    for (double& v : high) get(v);
    // Mbr's constructor aborts on low[i] > high[i], and the store and the
    // matcher assume a non-empty box: hostile bytes must reach neither.
    ok_ = ok_ && dims > 0;
    for (std::size_t i = 0; i < dims; ++i) ok_ = ok_ && low[i] <= high[i];
    if (ok_) mbr = dsp::Mbr(std::move(low), std::move(high));
  }
  /// Elements are built only as far as the bytes go: a count is bounded by
  /// the bytes left, not by what its elements would take to decode.
  template <typename T>
  void get(std::vector<T>& values) {
    const std::size_t n = get_count();
    values.reserve(n);
    for (std::size_t i = 0; i < n && ok_; ++i) get(values.emplace_back());
  }
  template <typename T>
  void get(std::shared_ptr<const T>& ptr) {
    auto value = std::make_shared<T>();
    get(*value);
    ptr = std::move(value);
  }
  template <typename T>
  void get(T& record) {
    fields(*this, record);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

const char* decode_result_name(DecodeResult result) noexcept {
  switch (result) {
    case DecodeResult::kOk: return "ok";
    case DecodeResult::kTruncated: return "truncated";
    case DecodeResult::kBadMagic: return "bad_magic";
    case DecodeResult::kBadVersion: return "bad_version";
    case DecodeResult::kUnknownKind: return "unknown_kind";
    case DecodeResult::kBadHeader: return "bad_header";
    case DecodeResult::kBadPayload: return "bad_payload";
    case DecodeResult::kTrailingBytes: return "trailing_bytes";
  }
  return "unknown";
}

DecodeResult decode_header(std::span<const std::uint8_t> bytes,
                           FrameHeader* out) {
  if (bytes.size() < kWireHeaderSize) {
    return DecodeResult::kTruncated;
  }
  if (std::memcmp(bytes.data(), kWireMagic, sizeof(kWireMagic)) != 0) {
    return DecodeResult::kBadMagic;
  }
  Reader r(bytes.subspan(sizeof(kWireMagic),
                         kWireHeaderSize - sizeof(kWireMagic)));
  FrameHeader h;
  r(h);
  SDSI_CHECK(r.ok() && r.remaining() == 0);  // fixed-size read cannot fail
  if (h.version != kWireVersion) {
    return DecodeResult::kBadVersion;
  }
  if (!routing::msg_kind_known(h.kind)) {
    return DecodeResult::kUnknownKind;
  }
  if (h.reserved != 0 ||
      (h.flags & ~(kFlagRangeInternal | kFlagHasRange | kFlagRerouteOnDead)) !=
          0 ||
      h.range_dir > static_cast<std::uint8_t>(RangeDir::kBoth) ||
      // hops lives in a signed int in Message; a value that cannot round-trip
      // (> 2^31 - 1) is garbage, not a plausible overlay hop count.
      h.hops > 0x7FFFFFFFu) {
    return DecodeResult::kBadHeader;
  }
  if (out != nullptr) {
    *out = h;
  }
  return DecodeResult::kOk;
}

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  SDSI_CHECK(msg.hops >= 0);
  FrameHeader h;
  h.version = kWireVersion;
  h.kind = static_cast<std::uint16_t>(msg.kind);
  h.flags = static_cast<std::uint8_t>(
      (msg.range_internal ? kFlagRangeInternal : 0) |
      (msg.has_range ? kFlagHasRange : 0) |
      (msg.reroute_on_dead ? kFlagRerouteOnDead : 0));
  h.range_dir = static_cast<std::uint8_t>(msg.range_dir);
  h.origin = msg.origin;
  h.target_key = msg.target_key;
  h.range_lo = msg.range_lo;
  h.range_hi = msg.range_hi;
  h.hops = static_cast<std::uint32_t>(msg.hops);
  h.sent_at_us = msg.sent_at.count_micros();
  h.trace_id = msg.trace_id;

  std::vector<std::uint8_t> out;
  with_payload_type(msg.kind, [&]<typename P>(std::type_identity<P>) {
    const P& payload = *payload_of<P>(msg);
    Writer sizer;
    sizer(payload);
    SDSI_CHECK(sizer.size() <= UINT32_MAX);
    h.payload_len = static_cast<std::uint32_t>(sizer.size());
    out.resize(kWireHeaderSize + h.payload_len);
    std::memcpy(out.data(), kWireMagic, sizeof(kWireMagic));
    Writer w(out.data() + sizeof(kWireMagic));
    w(h, payload);
    SDSI_CHECK(sizeof(kWireMagic) + w.size() == out.size());
  });
  return out;
}

DecodeResult decode_frame(std::span<const std::uint8_t> bytes, Message* out) {
  FrameHeader h;
  const DecodeResult header_result = decode_header(bytes, &h);
  if (header_result != DecodeResult::kOk) {
    return header_result;
  }
  const std::size_t frame_len = kWireHeaderSize + h.payload_len;
  if (bytes.size() < frame_len) {
    return DecodeResult::kTruncated;
  }
  if (bytes.size() > frame_len) {
    return DecodeResult::kTrailingBytes;
  }

  Message msg;
  msg.target_key = h.target_key;
  msg.origin = h.origin;
  msg.kind = static_cast<MsgKind>(h.kind);
  msg.range_internal = (h.flags & kFlagRangeInternal) != 0;
  msg.has_range = (h.flags & kFlagHasRange) != 0;
  msg.reroute_on_dead = (h.flags & kFlagRerouteOnDead) != 0;
  msg.range_dir = static_cast<RangeDir>(h.range_dir);
  msg.range_lo = h.range_lo;
  msg.range_hi = h.range_hi;
  msg.hops = static_cast<int>(h.hops);
  msg.sent_at = sim::SimTime::from_micros(h.sent_at_us);
  msg.trace_id = h.trace_id;

  Reader r(bytes.subspan(kWireHeaderSize, h.payload_len));
  with_payload_type(msg.kind, [&]<typename P>(std::type_identity<P>) {
    auto payload = std::make_shared<P>();
    r(*payload);
    msg.payload = std::shared_ptr<const P>(std::move(payload));
  });
  if (!r.ok() || r.remaining() != 0) {
    return DecodeResult::kBadPayload;
  }
  *out = std::move(msg);
  return DecodeResult::kOk;
}

}  // namespace sdsi::net
