// In-memory span recorder for the traced benchmark passes.
//
// A span is one timed call into a layer: its name, start, end, the span that
// was open when it began (its parent) and a request id (the frame's
// Message::trace_id where there is one). Totals per name are kept for every
// span; the spans themselves are kept up to a cap and written as JSONL at the
// end of the run. A span's self time is its duration minus the durations of
// its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sdsi::bench {

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  explicit SpanRecorder(std::size_t keep_limit) : keep_limit_(keep_limit) {}

  /// Interns a span name; the id indexes totals().
  std::uint32_t name_id(const std::string& name);

  void begin(std::uint32_t name, std::uint64_t request = 0);
  /// Closes the innermost open span and returns its self time.
  std::int64_t end();

  /// Records an already-measured span under the innermost open span (or at
  /// top level) and returns its kept index, or kNoSpan when the cap is hit.
  std::uint32_t add(std::uint32_t name, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t self_ns,
                    std::uint32_t parent, std::uint64_t request);

  const Totals& totals(std::uint32_t name) const { return totals_[name]; }
  /// Totals of a name, zero when it never occurred.
  Totals totals(const std::string& name) const;

  /// Whether new spans are kept for the JSONL export (totals always count).
  void set_keeping(bool keeping) noexcept { keeping_ = keeping; }

  /// Writes one JSON object per kept span; returns false on I/O failure.
  bool write_jsonl(const std::string& path, const std::string& run) const;

 private:
  struct Open {
    std::uint32_t name = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint32_t kept = kNoSpan;
  };
  struct Kept {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoSpan;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request = 0;
  };

  std::uint32_t reserve_kept(std::uint32_t name, std::uint64_t request);

  std::size_t keep_limit_;
  bool keeping_ = false;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::uint64_t not_kept_ = 0;
};

/// Opens a span for the lifetime of the scope; a null recorder records
/// nothing and reads no clock, which is how the untraced passes run.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, std::uint32_t name,
            std::uint64_t request = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      recorder_->begin(name, request);
    }
  }
  ~SpanScope() {
    if (recorder_ != nullptr) {
      recorder_->end();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace sdsi::bench
