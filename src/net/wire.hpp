// Wire protocol v1: the versioned binary serialization of routing::Message.
//
// docs/WIRE_FORMAT.md is the normative spec; this header is its
// implementation. Every frame is a fixed 64-byte little-endian header
// followed by `payload_len` bytes of kind-specific payload (the typed
// structs of core/query.hpp, replacing the in-memory std::any). The v1
// layout is pinned by golden-bytes fixtures (tests/golden/wire_v1/) and
// must never change; protocol evolution bumps the version field.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/message.hpp"

namespace sdsi::net {

/// Frame magic: the ASCII bytes 'S' 'D' 'S' 'I' at offset 0.
inline constexpr std::uint8_t kWireMagic[4] = {0x53, 0x44, 0x53, 0x49};

/// Protocol version this build speaks. Decoders reject every other value
/// (kBadVersion) — v1 makes no compatibility promise beyond itself.
inline constexpr std::uint16_t kWireVersion = 1;

/// Fixed header length in bytes; payload bytes follow immediately.
inline constexpr std::size_t kWireHeaderSize = 64;

/// Envelope flag bits (header offset 8). Bits 3..7 are reserved and must be
/// zero in v1; a set reserved bit rejects the frame.
inline constexpr std::uint8_t kFlagRangeInternal = 0x01;
inline constexpr std::uint8_t kFlagHasRange = 0x02;
inline constexpr std::uint8_t kFlagRerouteOnDead = 0x04;

/// Why a frame was rejected. Decoders must REJECT malformed input — never
/// abort: a remote peer's bytes are not trusted program state.
enum class DecodeResult {
  kOk = 0,
  kTruncated,      // fewer bytes than the header + payload_len promise
  kBadMagic,       // offset 0 is not "SDSI"
  kBadVersion,     // version field != kWireVersion
  kUnknownKind,    // kind field is 0 or past the last assigned kind
  kBadHeader,      // reserved bits/bytes nonzero, or range_dir out of range
  kBadPayload,     // payload bytes do not parse as the kind's schema
  kTrailingBytes,  // input continues past the end of the declared payload
};

/// Stable identifier for logs and test assertions.
const char* decode_result_name(DecodeResult result) noexcept;

/// The decoded fixed header, exposed separately so stream transports can
/// read 64 bytes, learn payload_len, then read the rest of the frame.
struct FrameHeader {
  std::uint16_t version = 0;
  std::uint16_t kind = 0;  // raw: may be unknown to this build
  std::uint8_t flags = 0;
  std::uint8_t range_dir = 0;
  std::uint16_t reserved = 0;  // must be zero in v1
  std::uint32_t origin = 0;
  std::uint64_t target_key = 0;
  std::uint64_t range_lo = 0;
  std::uint64_t range_hi = 0;
  std::uint32_t hops = 0;
  std::uint32_t payload_len = 0;
  std::int64_t sent_at_us = 0;
  std::uint64_t trace_id = 0;
};

/// Parses and validates the fixed header (needs >= kWireHeaderSize bytes).
/// kOk means the header is well-formed and its kind is assigned; the caller
/// still owes `payload_len` payload bytes to decode_frame().
DecodeResult decode_header(std::span<const std::uint8_t> bytes,
                           FrameHeader* out);

/// Serializes one message (header + payload) into a fresh buffer. The
/// message must carry a valid kind and the matching
/// std::shared_ptr<const PayloadT> in `payload` — encoding our own state is
/// infallible, so schema violations here abort (SDSI_CHECK).
std::vector<std::uint8_t> encode_frame(const routing::Message& msg);

/// Parses exactly one frame. On kOk, *out carries the envelope fields and a
/// freshly allocated shared_ptr<const PayloadT> payload; on any error *out
/// is untouched. The input must be exactly header + payload (a longer span
/// is kTrailingBytes — stream transports slice frames before calling).
DecodeResult decode_frame(std::span<const std::uint8_t> bytes,
                          routing::Message* out);

}  // namespace sdsi::net
