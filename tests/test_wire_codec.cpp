// Wire protocol v1 codec tests: canonical round-trips for every message
// kind, plus the rejection paths — a decoder fed hostile bytes must REJECT
// (typed DecodeResult), never abort, because a remote peer's bytes are not
// trusted program state.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/wire.hpp"
#include "wire_samples.hpp"

namespace sdsi::net {
namespace {

using routing::MsgKind;
using testing::sample_message;

std::vector<MsgKind> all_kinds() {
  std::vector<MsgKind> kinds;
  for (std::uint16_t raw = 1; raw <= routing::kNumMsgKinds; ++raw) {
    kinds.push_back(static_cast<MsgKind>(raw));
  }
  return kinds;
}

TEST(WireCodec, RoundTripsEveryKindCanonically) {
  for (const MsgKind kind : all_kinds()) {
    const routing::Message original = sample_message(kind);
    const std::vector<std::uint8_t> wire = encode_frame(original);
    ASSERT_GE(wire.size(), kWireHeaderSize) << msg_kind_name(kind);

    routing::Message decoded;
    ASSERT_EQ(decode_frame(wire, &decoded), DecodeResult::kOk)
        << msg_kind_name(kind);

    EXPECT_EQ(decoded.kind, original.kind);
    EXPECT_EQ(decoded.target_key, original.target_key);
    EXPECT_EQ(decoded.origin, original.origin);
    EXPECT_EQ(decoded.range_internal, original.range_internal);
    EXPECT_EQ(decoded.range_dir, original.range_dir);
    EXPECT_EQ(decoded.has_range, original.has_range);
    EXPECT_EQ(decoded.range_lo, original.range_lo);
    EXPECT_EQ(decoded.range_hi, original.range_hi);
    EXPECT_EQ(decoded.reroute_on_dead, original.reroute_on_dead);
    EXPECT_EQ(decoded.hops, original.hops);
    EXPECT_EQ(decoded.sent_at, original.sent_at);
    EXPECT_EQ(decoded.trace_id, original.trace_id);

    // Canonical encoding: re-encoding the decoded message reproduces the
    // identical bytes, which is also the payload-equality check (the typed
    // payloads have no operator==).
    EXPECT_EQ(encode_frame(decoded), wire) << msg_kind_name(kind);
  }
}

TEST(WireCodec, HeaderFieldOffsetsMatchTheSpec) {
  const routing::Message msg = sample_message(MsgKind::kMbrUpdate);
  const std::vector<std::uint8_t> wire = encode_frame(msg);
  // docs/WIRE_FORMAT.md header layout, little-endian.
  EXPECT_EQ(wire[0], 'S');
  EXPECT_EQ(wire[1], 'D');
  EXPECT_EQ(wire[2], 'S');
  EXPECT_EQ(wire[3], 'I');
  EXPECT_EQ(wire[4], kWireVersion);  // version lo byte
  EXPECT_EQ(wire[5], 0);
  EXPECT_EQ(wire[6], 1);  // kind = kMbrUpdate
  EXPECT_EQ(wire[7], 0);
  EXPECT_EQ(wire[8], kFlagRangeInternal | kFlagHasRange | kFlagRerouteOnDead);
  EXPECT_EQ(wire[9], static_cast<std::uint8_t>(routing::RangeDir::kUp));
  EXPECT_EQ(wire[10], 0);  // reserved
  EXPECT_EQ(wire[11], 0);  // reserved
  EXPECT_EQ(wire[12], 2);  // origin
  EXPECT_EQ(wire[16], 0xEF);  // target_key lo byte of 0xBEEF
  EXPECT_EQ(wire[17], 0xBE);
  EXPECT_EQ(wire[40], 3);  // hops
}

TEST(WireCodec, TruncationAtEveryPrefixRejects) {
  for (const MsgKind kind : all_kinds()) {
    const std::vector<std::uint8_t> wire = encode_frame(sample_message(kind));
    for (std::size_t len = 0; len < wire.size(); ++len) {
      routing::Message out;
      const auto result =
          decode_frame(std::span(wire.data(), len), &out);
      EXPECT_EQ(result, DecodeResult::kTruncated)
          << msg_kind_name(kind) << " prefix " << len;
    }
  }
}

TEST(WireCodec, TrailingBytesReject) {
  std::vector<std::uint8_t> wire =
      encode_frame(sample_message(MsgKind::kResponse));
  wire.push_back(0x00);
  routing::Message out;
  EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kTrailingBytes);
}

TEST(WireCodec, BadMagicRejects) {
  std::vector<std::uint8_t> wire =
      encode_frame(sample_message(MsgKind::kMbrAck));
  wire[0] = 'X';
  routing::Message out;
  EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kBadMagic);
}

TEST(WireCodec, BadVersionRejects) {
  std::vector<std::uint8_t> wire =
      encode_frame(sample_message(MsgKind::kMbrAck));
  wire[4] = 2;
  routing::Message out;
  EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kBadVersion);
}

TEST(WireCodec, UnknownKindRejectsNotAborts) {
  for (const std::uint16_t raw :
       {std::uint16_t{0}, std::uint16_t{routing::kNumMsgKinds + 1},
        std::uint16_t{0xFFFF}}) {
    std::vector<std::uint8_t> wire =
        encode_frame(sample_message(MsgKind::kMbrAck));
    wire[6] = static_cast<std::uint8_t>(raw & 0xFF);
    wire[7] = static_cast<std::uint8_t>(raw >> 8);
    routing::Message out;
    EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kUnknownKind) << raw;
  }
}

TEST(WireCodec, ReservedBitsAndBytesReject) {
  {
    std::vector<std::uint8_t> wire =
        encode_frame(sample_message(MsgKind::kMbrAck));
    wire[8] |= 0x08;  // reserved flag bit
    routing::Message out;
    EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kBadHeader);
  }
  {
    std::vector<std::uint8_t> wire =
        encode_frame(sample_message(MsgKind::kMbrAck));
    wire[9] = 4;  // range_dir out of range
    routing::Message out;
    EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kBadHeader);
  }
  {
    std::vector<std::uint8_t> wire =
        encode_frame(sample_message(MsgKind::kMbrAck));
    wire[10] = 1;  // reserved u16
    routing::Message out;
    EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kBadHeader);
  }
}

TEST(WireCodec, CorruptPayloadRejects) {
  // Truncate the payload but fix up payload_len so the frame parses as
  // exactly that many bytes: the kind's schema must then fail cleanly.
  std::vector<std::uint8_t> wire =
      encode_frame(sample_message(MsgKind::kMbrUpdate));
  const std::uint32_t new_len =
      static_cast<std::uint32_t>(wire.size() - kWireHeaderSize - 5);
  wire.resize(kWireHeaderSize + new_len);
  for (std::size_t i = 0; i < 4; ++i) {
    wire[44 + i] = static_cast<std::uint8_t>(new_len >> (8 * i));
  }
  routing::Message out;
  EXPECT_EQ(decode_frame(wire, &out), DecodeResult::kBadPayload);
}

TEST(WireCodec, NonCanonicalBoolRejects) {
  // ResponsePayload's inner_product bool sits first in its payload.
  std::vector<std::uint8_t> wire =
      encode_frame(sample_message(MsgKind::kResponse));
  bool found = false;
  for (std::size_t i = kWireHeaderSize; i < wire.size(); ++i) {
    routing::Message probe;
    std::vector<std::uint8_t> mutated = wire;
    mutated[i] = 0x02;  // neither 0 nor 1
    if (decode_frame(mutated, &probe) == DecodeResult::kBadPayload) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no byte position rejected a non-canonical bool";
}

TEST(WireCodec, ZeroDimensionMbrRejects) {
  // An empty box must not decode: IndexStore::add_mbr aborts on one.
  routing::Message update = sample_message(MsgKind::kMbrUpdate);
  core::MbrPayload mbr = *routing::payload_of<core::MbrPayload>(update);
  mbr.mbr = dsp::Mbr();
  testing::set_payload(update, std::move(mbr));

  routing::Message put = sample_message(MsgKind::kReplicaPut);
  core::ReplicaPutPayload entries =
      *routing::payload_of<core::ReplicaPutPayload>(put);
  entries.mbrs.front().mbr = dsp::Mbr();
  testing::set_payload(put, std::move(entries));

  for (const routing::Message& msg : {update, put}) {
    routing::Message out;
    EXPECT_EQ(decode_frame(encode_frame(msg), &out), DecodeResult::kBadPayload)
        << msg_kind_name(msg.kind);
  }
}

TEST(WireCodec, SingleByteFlipsNeverCrash) {
  // Exhaustive single-byte corruption over every kind's sample frame: any
  // outcome is acceptable except a crash/abort; kOk frames must re-encode.
  for (const MsgKind kind : all_kinds()) {
    const std::vector<std::uint8_t> wire = encode_frame(sample_message(kind));
    for (std::size_t i = 0; i < wire.size(); ++i) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[i] ^= 0xA5;
      routing::Message out;
      const DecodeResult result = decode_frame(mutated, &out);
      if (result == DecodeResult::kOk) {
        (void)encode_frame(out);
      }
    }
  }
}

TEST(WireCodec, SpecialDoublesRoundTripExactly) {
  routing::Message msg = sample_message(MsgKind::kResponse);
  core::ResponsePayload payload;
  payload.query = 1;
  payload.client = 0;
  core::SimilarityMatch match;
  match.query = 1;
  match.stream = 2;
  match.bound_distance = std::numeric_limits<double>::quiet_NaN();
  payload.matches = {match};
  payload.inner_product_value = -0.0;
  testing::set_payload(msg, std::move(payload));

  const std::vector<std::uint8_t> wire = encode_frame(msg);
  routing::Message decoded;
  ASSERT_EQ(decode_frame(wire, &decoded), DecodeResult::kOk);
  EXPECT_EQ(encode_frame(decoded), wire);  // bit-exact, NaN included
}

TEST(WireCodec, DecodeResultNamesAreStable) {
  EXPECT_STREQ(decode_result_name(DecodeResult::kOk), "ok");
  EXPECT_STREQ(decode_result_name(DecodeResult::kTruncated), "truncated");
  EXPECT_STREQ(decode_result_name(DecodeResult::kBadPayload), "bad_payload");
}

}  // namespace
}  // namespace sdsi::net
