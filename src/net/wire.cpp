#include "net/wire.hpp"

#include <bit>
#include <cstring>
#include <memory>
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

// --- Little-endian primitives -----------------------------------------------

class Writer {
 public:
  std::vector<std::uint8_t>& buf() noexcept { return buf_; }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }
  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern, little-endian — exact round-trip for every
  /// double including NaN payloads and signed zero.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return bytes_[pos_ - 1];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>(
        bytes_[pos_ - 2] | (static_cast<std::uint16_t>(bytes_[pos_ - 1]) << 8));
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ - 8 + i]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Canonical bool: exactly 0 or 1; anything else poisons the reader.
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;
    return v == 1;
  }

  /// Element count of a length-prefixed vector. Rejects counts that cannot
  /// possibly fit in the remaining bytes (every element is >= 1 byte), so a
  /// corrupt length cannot drive a multi-gigabyte allocation.
  std::size_t count() {
    const std::uint32_t n = u32();
    if (n > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  void fail() noexcept { ok_ = false; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- Shared composite codecs ------------------------------------------------

void put_time(Writer& w, sim::SimTime t) { w.i64(t.count_micros()); }
sim::SimTime get_time(Reader& r) { return sim::SimTime::from_micros(r.i64()); }

void put_duration(Writer& w, sim::Duration d) { w.i64(d.count_micros()); }
sim::Duration get_duration(Reader& r) {
  return sim::Duration::micros(r.i64());
}

void put_features(Writer& w, const dsp::FeatureVector& features) {
  w.u32(static_cast<std::uint32_t>(features.size()));
  for (const dsp::Complex& c : features.coefficients()) {
    w.f64(c.real());
    w.f64(c.imag());
  }
}
dsp::FeatureVector get_features(Reader& r) {
  const std::size_t n = r.count();
  std::vector<dsp::Complex> coeffs;
  coeffs.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    const double re = r.f64();
    const double im = r.f64();
    coeffs.emplace_back(re, im);
  }
  return dsp::FeatureVector(std::move(coeffs));
}

void put_mbr(Writer& w, const dsp::Mbr& mbr) {
  w.u32(static_cast<std::uint32_t>(mbr.dimensions()));
  for (const double v : mbr.low()) w.f64(v);
  for (const double v : mbr.high()) w.f64(v);
}
dsp::Mbr get_mbr(Reader& r) {
  const std::size_t dims = r.count();
  std::vector<double> low(dims), high(dims);
  for (std::size_t i = 0; i < dims && r.ok(); ++i) low[i] = r.f64();
  for (std::size_t i = 0; i < dims && r.ok(); ++i) high[i] = r.f64();
  if (!r.ok() || dims == 0) {
    return dsp::Mbr();
  }
  // Mbr's invariant (low_i <= high_i) is enforced by its constructor with an
  // abort; a hostile frame must not reach it.
  for (std::size_t i = 0; i < dims; ++i) {
    if (!(low[i] <= high[i])) {
      r.fail();
      return dsp::Mbr();
    }
  }
  return dsp::Mbr(std::move(low), std::move(high));
}

void put_doubles(Writer& w, const std::vector<double>& values) {
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (const double v : values) w.f64(v);
}
std::vector<double> get_doubles(Reader& r) {
  const std::size_t n = r.count();
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) values.push_back(r.f64());
  return values;
}

void put_query(Writer& w, const SimilarityQuery& q) {
  w.u64(q.id);
  w.u32(q.client);
  put_features(w, q.features);
  w.f64(q.radius);
  put_duration(w, q.lifespan);
  put_time(w, q.issued_at);
}
SimilarityQuery get_query(Reader& r) {
  SimilarityQuery q;
  q.id = r.u64();
  q.client = r.u32();
  q.features = get_features(r);
  q.radius = r.f64();
  q.lifespan = get_duration(r);
  q.issued_at = get_time(r);
  return q;
}

void put_match(Writer& w, const SimilarityMatch& m) {
  w.u64(m.query);
  w.u64(m.stream);
  w.f64(m.bound_distance);
  put_time(w, m.detected_at);
}
SimilarityMatch get_match(Reader& r) {
  SimilarityMatch m;
  m.query = r.u64();
  m.stream = r.u64();
  m.bound_distance = r.f64();
  m.detected_at = get_time(r);
  return m;
}

void put_matches(Writer& w, const std::vector<SimilarityMatch>& matches) {
  w.u32(static_cast<std::uint32_t>(matches.size()));
  for (const SimilarityMatch& m : matches) put_match(w, m);
}
std::vector<SimilarityMatch> get_matches(Reader& r) {
  const std::size_t n = r.count();
  std::vector<SimilarityMatch> matches;
  matches.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    matches.push_back(get_match(r));
  }
  return matches;
}

void put_batch_ids(Writer& w, const std::vector<MbrBatchId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const MbrBatchId& id : ids) {
    w.u64(id.stream);
    w.u64(id.batch_seq);
  }
}
std::vector<MbrBatchId> get_batch_ids(Reader& r) {
  const std::size_t n = r.count();
  std::vector<MbrBatchId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    MbrBatchId id;
    id.stream = r.u64();
    id.batch_seq = r.u64();
    ids.push_back(id);
  }
  return ids;
}

void put_query_ids(Writer& w, const std::vector<core::QueryId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const core::QueryId id : ids) w.u64(id);
}
std::vector<core::QueryId> get_query_ids(Reader& r) {
  const std::size_t n = r.count();
  std::vector<core::QueryId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) ids.push_back(r.u64());
  return ids;
}

// --- Per-kind payload codecs ------------------------------------------------

void encode_payload(Writer& w, const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kInvalid:
      break;  // encode of an invalid kind is a bug; abort below
    case MsgKind::kMbrUpdate: {
      const auto& p = *payload_of<MbrPayload>(msg);
      w.u64(p.stream);
      w.u32(p.source);
      put_mbr(w, p.mbr);
      w.u64(p.batch_seq);
      put_time(w, p.expires);
      return;
    }
    case MsgKind::kSimilarityQuery: {
      const auto& p = *payload_of<SimilarityQueryPayload>(msg);
      SDSI_CHECK(p.query != nullptr);
      put_query(w, *p.query);
      w.u64(p.middle_key);
      return;
    }
    case MsgKind::kInnerProductQuery: {
      const auto& p = *payload_of<InnerProductQueryPayload>(msg);
      SDSI_CHECK(p.query != nullptr);
      const InnerProductQuery& q = *p.query;
      w.u64(q.id);
      w.u32(q.client);
      w.u64(q.stream);
      put_doubles(w, q.index);
      put_doubles(w, q.weights);
      put_duration(w, q.lifespan);
      put_time(w, q.issued_at);
      return;
    }
    case MsgKind::kResponse: {
      const auto& p = *payload_of<ResponsePayload>(msg);
      w.u64(p.query);
      w.u32(p.client);
      w.u8(p.inner_product ? 1 : 0);
      put_matches(w, p.matches);
      w.f64(p.inner_product_value);
      w.u32(p.aggregator);
      w.u64(p.push_seq);
      return;
    }
    case MsgKind::kNeighborExchange: {
      const auto& p = *payload_of<NeighborDigestPayload>(msg);
      w.u32(static_cast<std::uint32_t>(p.reports.size()));
      for (const MatchReport& report : p.reports) {
        put_match(w, report.match);
        w.u32(report.client);
        w.u64(report.middle_key);
        put_time(w, report.query_expires);
      }
      return;
    }
    case MsgKind::kLocationPut: {
      const auto& p = *payload_of<LocationPutPayload>(msg);
      w.u64(p.stream);
      w.u32(p.source);
      return;
    }
    case MsgKind::kLocationGet: {
      const auto& p = *payload_of<LocationGetPayload>(msg);
      w.u64(p.stream);
      w.u32(p.requester);
      return;
    }
    case MsgKind::kLocationReply: {
      const auto& p = *payload_of<LocationReplyPayload>(msg);
      w.u64(p.stream);
      w.u32(p.source);
      return;
    }
    case MsgKind::kMbrAck: {
      const auto& p = *payload_of<MbrAckPayload>(msg);
      w.u64(p.stream);
      w.u64(p.batch_seq);
      return;
    }
    case MsgKind::kResponseAck: {
      const auto& p = *payload_of<ResponseAckPayload>(msg);
      w.u64(p.query);
      w.u64(p.push_seq);
      return;
    }
    case MsgKind::kReplicaPut: {
      const auto& p = *payload_of<ReplicaPutPayload>(msg);
      w.u32(p.from);
      w.u32(static_cast<std::uint32_t>(p.mbrs.size()));
      for (const ReplicaMbrEntry& entry : p.mbrs) {
        w.u64(entry.stream);
        w.u32(entry.source);
        put_mbr(w, entry.mbr);
        w.u64(entry.batch_seq);
        put_time(w, entry.expires);
      }
      w.u32(static_cast<std::uint32_t>(p.subscriptions.size()));
      for (const ReplicaSubscriptionEntry& entry : p.subscriptions) {
        SDSI_CHECK(entry.query != nullptr);
        put_query(w, *entry.query);
        w.u64(entry.middle_key);
        put_time(w, entry.expires);
      }
      w.u8(p.handoff ? 1 : 0);
      w.u8(p.repair ? 1 : 0);
      return;
    }
    case MsgKind::kHandoffRequest: {
      const auto& p = *payload_of<HandoffRequestPayload>(msg);
      w.u32(p.requester);
      w.u64(p.lo);
      w.u64(p.hi);
      return;
    }
    case MsgKind::kAntiEntropyDigest: {
      const auto& p = *payload_of<AntiEntropyDigestPayload>(msg);
      w.u32(p.from);
      w.u64(p.lo);
      w.u64(p.hi);
      put_batch_ids(w, p.mbr_keys);
      put_query_ids(w, p.query_ids);
      return;
    }
    case MsgKind::kAntiEntropyRequest: {
      const auto& p = *payload_of<AntiEntropyRequestPayload>(msg);
      w.u32(p.requester);
      put_batch_ids(w, p.mbr_keys);
      put_query_ids(w, p.query_ids);
      return;
    }
    case MsgKind::kAggregatorReplica: {
      const auto& p = *payload_of<AggregatorReplicaPayload>(msg);
      w.u64(p.query);
      w.u32(p.client);
      w.u64(p.middle_key);
      put_time(w, p.expires);
      w.u32(p.owner);
      put_matches(w, p.matches);
      return;
    }
    case MsgKind::kHeartbeat: {
      const auto& p = *payload_of<HeartbeatPayload>(msg);
      w.u32(p.from);
      w.u64(p.epoch);
      w.u64(p.seq);
      return;
    }
  }
  SDSI_CHECK(false && "encode_frame: message kind carries no codec");
}

template <typename T>
void emplace_payload(Message* out, T value) {
  out->payload = std::shared_ptr<const T>(std::make_shared<T>(std::move(value)));
}

/// Payload parser; returns false when the bytes violate the kind's schema.
bool decode_payload(Reader& r, MsgKind kind, Message* out) {
  switch (kind) {
    case MsgKind::kInvalid:
      return false;  // unreachable: decode_header rejects unknown kinds
    case MsgKind::kMbrUpdate: {
      MbrPayload p;
      p.stream = r.u64();
      p.source = r.u32();
      p.mbr = get_mbr(r);
      p.batch_seq = r.u64();
      p.expires = get_time(r);
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kSimilarityQuery: {
      SimilarityQueryPayload p;
      p.query = std::make_shared<const SimilarityQuery>(get_query(r));
      p.middle_key = r.u64();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kInnerProductQuery: {
      InnerProductQuery q;
      q.id = r.u64();
      q.client = r.u32();
      q.stream = r.u64();
      q.index = get_doubles(r);
      q.weights = get_doubles(r);
      q.lifespan = get_duration(r);
      q.issued_at = get_time(r);
      if (!r.ok()) return false;
      InnerProductQueryPayload p;
      p.query = std::make_shared<const InnerProductQuery>(std::move(q));
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kResponse: {
      ResponsePayload p;
      p.query = r.u64();
      p.client = r.u32();
      p.inner_product = r.boolean();
      p.matches = get_matches(r);
      p.inner_product_value = r.f64();
      p.aggregator = r.u32();
      p.push_seq = r.u64();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kNeighborExchange: {
      NeighborDigestPayload p;
      const std::size_t n = r.count();
      p.reports.reserve(n);
      for (std::size_t i = 0; i < n && r.ok(); ++i) {
        MatchReport report;
        report.match = get_match(r);
        report.client = r.u32();
        report.middle_key = r.u64();
        report.query_expires = get_time(r);
        p.reports.push_back(std::move(report));
      }
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kLocationPut: {
      LocationPutPayload p;
      p.stream = r.u64();
      p.source = r.u32();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kLocationGet: {
      LocationGetPayload p;
      p.stream = r.u64();
      p.requester = r.u32();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kLocationReply: {
      LocationReplyPayload p;
      p.stream = r.u64();
      p.source = r.u32();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kMbrAck: {
      MbrAckPayload p;
      p.stream = r.u64();
      p.batch_seq = r.u64();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kResponseAck: {
      ResponseAckPayload p;
      p.query = r.u64();
      p.push_seq = r.u64();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kReplicaPut: {
      ReplicaPutPayload p;
      p.from = r.u32();
      const std::size_t nmbrs = r.count();
      p.mbrs.reserve(nmbrs);
      for (std::size_t i = 0; i < nmbrs && r.ok(); ++i) {
        ReplicaMbrEntry entry;
        entry.stream = r.u64();
        entry.source = r.u32();
        entry.mbr = get_mbr(r);
        entry.batch_seq = r.u64();
        entry.expires = get_time(r);
        p.mbrs.push_back(std::move(entry));
      }
      const std::size_t nsubs = r.count();
      p.subscriptions.reserve(nsubs);
      for (std::size_t i = 0; i < nsubs && r.ok(); ++i) {
        ReplicaSubscriptionEntry entry;
        entry.query = std::make_shared<const SimilarityQuery>(get_query(r));
        entry.middle_key = r.u64();
        entry.expires = get_time(r);
        p.subscriptions.push_back(std::move(entry));
      }
      p.handoff = r.boolean();
      p.repair = r.boolean();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kHandoffRequest: {
      HandoffRequestPayload p;
      p.requester = r.u32();
      p.lo = r.u64();
      p.hi = r.u64();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kAntiEntropyDigest: {
      AntiEntropyDigestPayload p;
      p.from = r.u32();
      p.lo = r.u64();
      p.hi = r.u64();
      p.mbr_keys = get_batch_ids(r);
      p.query_ids = get_query_ids(r);
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kAntiEntropyRequest: {
      AntiEntropyRequestPayload p;
      p.requester = r.u32();
      p.mbr_keys = get_batch_ids(r);
      p.query_ids = get_query_ids(r);
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kAggregatorReplica: {
      AggregatorReplicaPayload p;
      p.query = r.u64();
      p.client = r.u32();
      p.middle_key = r.u64();
      p.expires = get_time(r);
      p.owner = r.u32();
      p.matches = get_matches(r);
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
    case MsgKind::kHeartbeat: {
      HeartbeatPayload p;
      p.from = r.u32();
      p.epoch = r.u64();
      p.seq = r.u64();
      if (!r.ok()) return false;
      emplace_payload(out, std::move(p));
      return true;
    }
  }
  return false;
}

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
  Reader r(bytes.subspan(4, kWireHeaderSize - 4));
  FrameHeader h;
  h.version = r.u16();
  h.kind = r.u16();
  h.flags = r.u8();
  h.range_dir = r.u8();
  const std::uint16_t reserved = r.u16();
  h.origin = r.u32();
  h.target_key = r.u64();
  h.range_lo = r.u64();
  h.range_hi = r.u64();
  h.hops = r.u32();
  h.payload_len = r.u32();
  h.sent_at_us = r.i64();
  h.trace_id = r.u64();
  SDSI_CHECK(r.ok() && r.remaining() == 0);  // fixed-size read cannot fail
  if (h.version != kWireVersion) {
    return DecodeResult::kBadVersion;
  }
  if (!routing::msg_kind_known(h.kind)) {
    return DecodeResult::kUnknownKind;
  }
  if (reserved != 0 ||
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
  Writer w;
  w.buf().reserve(kWireHeaderSize + 64);
  for (const std::uint8_t b : kWireMagic) w.u8(b);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(msg.kind));
  std::uint8_t flags = 0;
  if (msg.range_internal) flags |= kFlagRangeInternal;
  if (msg.has_range) flags |= kFlagHasRange;
  if (msg.reroute_on_dead) flags |= kFlagRerouteOnDead;
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(msg.range_dir));
  w.u16(0);  // reserved
  w.u32(msg.origin);
  w.u64(msg.target_key);
  w.u64(msg.range_lo);
  w.u64(msg.range_hi);
  SDSI_CHECK(msg.hops >= 0);
  w.u32(static_cast<std::uint32_t>(msg.hops));
  w.u32(0);  // payload_len backpatched below
  w.i64(msg.sent_at.count_micros());
  w.u64(msg.trace_id);
  SDSI_CHECK(w.buf().size() == kWireHeaderSize);

  encode_payload(w, msg);
  const std::size_t payload_len = w.buf().size() - kWireHeaderSize;
  SDSI_CHECK(payload_len <= UINT32_MAX);
  const auto len32 = static_cast<std::uint32_t>(payload_len);
  for (std::size_t i = 0; i < 4; ++i) {
    w.buf()[44 + i] = static_cast<std::uint8_t>(len32 >> (8 * i));
  }
  return std::move(w.buf());
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
  if (!decode_payload(r, msg.kind, &msg) || !r.ok() || r.remaining() != 0) {
    return DecodeResult::kBadPayload;
  }
  *out = std::move(msg);
  return DecodeResult::kOk;
}

}  // namespace sdsi::net
