#include "spans.hpp"

#include <fstream>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace sdsi::bench {

std::uint32_t SpanRecorder::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanRecorder::Totals SpanRecorder::totals(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return totals_[i];
    }
  }
  return Totals{};
}

std::uint32_t SpanRecorder::reserve_kept(std::uint32_t name,
                                         std::uint64_t request) {
  if (!keeping_) {
    return kNoSpan;
  }
  if (kept_.size() >= keep_limit_) {
    ++not_kept_;
    return kNoSpan;
  }
  Kept span;
  span.name = name;
  span.request = request;
  span.parent = stack_.empty() ? kNoSpan : stack_.back().kept;
  kept_.push_back(span);
  return static_cast<std::uint32_t>(kept_.size() - 1);
}

void SpanRecorder::begin(std::uint32_t name, std::uint64_t request) {
  Open open;
  open.name = name;
  open.request = request;
  open.kept = reserve_kept(name, request);
  open.start_ns = mono_ns();
  stack_.push_back(open);
}

std::int64_t SpanRecorder::end() {
  const std::int64_t now = mono_ns();
  SDSI_CHECK(!stack_.empty());
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now - open.start_ns;
  const std::int64_t self = duration - open.child_ns;
  Totals& totals = totals_[open.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += self;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.kept != kNoSpan) {
    kept_[open.kept].start_ns = open.start_ns;
    kept_[open.kept].end_ns = now;
  }
  return self;
}

std::uint32_t SpanRecorder::add(std::uint32_t name, std::int64_t start_ns,
                                std::int64_t end_ns, std::int64_t self_ns,
                                std::uint32_t parent, std::uint64_t request) {
  Totals& totals = totals_[name];
  ++totals.count;
  totals.total_ns += end_ns - start_ns;
  totals.self_ns += self_ns;
  if (!keeping_) {
    return kNoSpan;
  }
  if (kept_.size() >= keep_limit_) {
    ++not_kept_;
    return kNoSpan;
  }
  kept_.push_back(Kept{name, parent, start_ns, end_ns, request});
  return static_cast<std::uint32_t>(kept_.size() - 1);
}

bool SpanRecorder::write_jsonl(const std::string& path,
                               const std::string& run) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  obs::Json header = obs::Json::object();
  header["schema"] = "sdsi.bench.spans";
  header["version"] = 1;
  header["run"] = run;
  header["kept"] = static_cast<std::uint64_t>(kept_.size());
  header["not_kept"] = not_kept_;
  out << header.dump() << '\n';
  const std::int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& span = kept_[i];
    obs::Json line = obs::Json::object();
    line["id"] = static_cast<std::uint64_t>(i);
    line["name"] = names_[span.name];
    line["start_ns"] = span.start_ns - origin;
    line["end_ns"] = span.end_ns - origin;
    if (span.parent != kNoSpan) {
      line["parent"] = static_cast<std::uint64_t>(span.parent);
    }
    if (span.request != 0) {
      line["request"] = span.request;
    }
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace sdsi::bench
