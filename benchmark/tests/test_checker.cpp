// The correctness gate must catch a delivered pair the inputs never allowed
// and a required pair that never arrived, and must accept pairs whose batch
// and query barely overlapped either way.
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "reference.hpp"

namespace {

using namespace sdsi;
using namespace sdsi::bench;

int failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

dsp::FeatureVector point(double re0, double re1) {
  return dsp::FeatureVector({dsp::Complex(re0, 0.0), dsp::Complex(re1, 0.0)});
}

}  // namespace

int main() {
  const dsp::FeatureVector near = point(0.5, 0.2);
  const dsp::FeatureVector far = point(-0.9, 0.3);
  const std::vector<RefQuery> queries = {
      RefQuery{1, 1.0, 11.0, near, 0.1},
  };
  std::map<StreamId, std::vector<RefBatch>> batches;
  // Stream 10 overlaps the query for seconds: required.
  batches[10] = {RefBatch{10, 0.5, 5.5, dsp::Mbr(near)}};
  // Stream 20 never comes near the ball: forbidden.
  batches[20] = {RefBatch{20, 0.5, 5.5, dsp::Mbr(far)}};
  // Stream 30 is born after the query expired: forbidden.
  batches[30] = {RefBatch{30, 20.0, 25.0, dsp::Mbr(near)}};
  // Stream 40 expires 50 ms after the query is posed: neither.
  batches[40] = {RefBatch{40, -3.95, 1.05, dsp::Mbr(near)}};

  ReferenceOptions options;
  options.margin_s = 0.1;
  options.nper_s = 0.1;
  options.horizon_s = 30.0;
  options.max_batch_life_s = 5.0;
  const ReferenceSet reference = reference_pairs(queries, batches, options);

  expect(reference.contains({1, 10}) && reference.at({1, 10}).required,
         "overlapping intersecting batch makes the pair required");
  expect(reference.at({1, 10}).start_s == 1.0,
         "detection starts when the query is posed");
  expect(!reference.contains({1, 20}), "a distant stream is not allowed");
  expect(!reference.contains({1, 30}), "a later stream is not allowed");
  expect(reference.contains({1, 40}) && !reference.at({1, 40}).required,
         "a barely overlapping pair is allowed but not required");

  const CheckResult exact = check_pairs(reference, {{1, 10}});
  expect(exact.ok() && exact.recall() == 1.0, "the exact set passes");
  const CheckResult with_optional = check_pairs(reference, {{1, 10}, {1, 40}});
  expect(with_optional.ok(), "an optional pair may be delivered");

  // One extra pair and one missing pair, both caught.
  const CheckResult wrong = check_pairs(reference, {{1, 20}});
  expect(wrong.extra.size() == 1 && wrong.extra.front() == PairKey{1, 20},
         "the extra pair is caught");
  expect(wrong.missing.size() == 1 && wrong.missing.front() == PairKey{1, 10},
         "the missing pair is caught");
  expect(!wrong.ok() && wrong.recall() == 0.0, "the wrong set fails");

  if (failures == 0) {
    std::puts("checker: all cases passed");
  }
  return failures == 0 ? 0 : 1;
}
