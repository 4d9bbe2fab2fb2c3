// Sender-side soft state (core/resend) of the middleware node both hosts
// run: the acked-publication ledger (first ack, retry budget, lapse,
// refresh, timer cancels) and the ledger of match pushes awaiting their
// client's ack.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/resend.hpp"
#include "sim/simulator.hpp"

namespace sdsi::core {
namespace {

sim::SimTime at_ms(std::int64_t ms) {
  return sim::SimTime::zero() + sim::Duration::millis(ms);
}

std::shared_ptr<const MbrPayload> batch(StreamId stream, std::uint64_t seq,
                                        std::int64_t expires_ms = 10'000) {
  MbrPayload payload;
  payload.stream = stream;
  payload.batch_seq = seq;
  payload.expires = at_ms(expires_ms);
  return std::make_shared<const MbrPayload>(std::move(payload));
}

RetryPolicy budget(int max_attempts) {
  RetryPolicy policy;
  policy.timeout = sim::Duration::millis(100);
  policy.max_attempts = max_attempts;
  return policy;
}

TEST(PublicationLedger, OnlyTheFirstAckReports) {
  PublicationLedger ledger;
  ledger.track(batch(4, 1), 10, 20, at_ms(0));
  const PublicationLedger::Publication* first = ledger.ack(4, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->acked);
  EXPECT_EQ(first->lo, 10u);
  EXPECT_EQ(first->hi, 20u);
  EXPECT_EQ(ledger.ack(4, 1), nullptr);
  EXPECT_EQ(ledger.ack(4, 2), nullptr) << "untracked";
  EXPECT_EQ(ledger.size(), 1u) << "an ack keeps the record for refresh";
  EXPECT_EQ(ledger.retry(4, 1, at_ms(500), budget(3)).first,
            PublicationLedger::Retry::kNone);
}

TEST(PublicationLedger, LapsedRecordsAreDropped) {
  PublicationLedger ledger;
  ledger.track(batch(1, 0, 1000), 0, 0, at_ms(0));
  ledger.track(batch(1, 1, 2000), 0, 0, at_ms(0));
  ledger.track(batch(2, 0, 3000), 0, 0, at_ms(0));
  ledger.track(batch(2, 1, 4000), 0, 0, at_ms(0));

  EXPECT_EQ(ledger.retry(1, 0, at_ms(1000), budget(3)).first,
            PublicationLedger::Retry::kNone);
  EXPECT_EQ(ledger.size(), 3u);

  ledger.drop_lapsed(at_ms(2000));
  EXPECT_EQ(ledger.size(), 2u);

  std::vector<std::pair<StreamId, std::uint64_t>> refreshed;
  ledger.refresh(at_ms(3000), [&](const PublicationLedger::Publication& pub) {
    refreshed.emplace_back(pub.payload->stream, pub.payload->batch_seq);
  });
  EXPECT_EQ(refreshed, (std::vector<std::pair<StreamId, std::uint64_t>>{
                           {2, 1}}));
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(PublicationLedger, RefreshWalksLiveRecordsInKeyOrderAckedOrNot) {
  PublicationLedger ledger;
  ledger.track(batch(9, 0), 0, 0, at_ms(0));
  ledger.track(batch(3, 5), 0, 0, at_ms(0));
  ledger.track(batch(3, 2), 0, 0, at_ms(0));
  ledger.ack(3, 5);
  std::vector<std::pair<StreamId, std::uint64_t>> refreshed;
  ledger.refresh(at_ms(1), [&](const PublicationLedger::Publication& pub) {
    refreshed.emplace_back(pub.payload->stream, pub.payload->batch_seq);
  });
  EXPECT_EQ(refreshed, (std::vector<std::pair<StreamId, std::uint64_t>>{
                           {3, 2}, {3, 5}, {9, 0}}));
}

TEST(PublicationLedger, SpentBudgetStopsRetriesButKeepsTheRecordForRefresh) {
  PublicationLedger ledger;
  ledger.track(batch(1, 0), 0, 0, at_ms(0));
  const RetryPolicy policy = budget(2);
  for (int attempt = 1; attempt <= 2; ++attempt) {
    const auto [step, pub] = ledger.retry(1, 0, at_ms(100 * attempt), policy);
    ASSERT_EQ(step, PublicationLedger::Retry::kResend);
    EXPECT_EQ(pub->attempts, attempt);
    EXPECT_EQ(pub->first_sent, at_ms(0));
  }
  EXPECT_EQ(ledger.retry(1, 0, at_ms(300), policy).first,
            PublicationLedger::Retry::kSpent);
  EXPECT_EQ(ledger.retry(1, 0, at_ms(400), policy).first,
            PublicationLedger::Retry::kSpent);
  EXPECT_EQ(ledger.size(), 1u);

  int refreshed = 0;
  ledger.refresh(at_ms(500),
                 [&](const PublicationLedger::Publication&) { ++refreshed; });
  EXPECT_EQ(refreshed, 1);
}

TEST(PublicationLedger, AckDropAndClearCancelTheRetryTimer) {
  sim::Simulator simulator;
  PublicationLedger ledger;
  int fired = 0;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    ledger.track(batch(1, seq, seq == 1 ? 50 : 10'000), 0, 0, at_ms(0))
        .retry_timer = simulator.schedule_after(sim::Duration::millis(100),
                                                [&fired] { ++fired; });
  }
  ledger.ack(1, 0);
  ledger.drop_lapsed(at_ms(50));  // seq 1
  EXPECT_EQ(ledger.retry(1, 3, at_ms(60), budget(1)).first,
            PublicationLedger::Retry::kResend)
      << "a decision alone leaves the timer to its host";
  simulator.run_until(at_ms(200));
  EXPECT_EQ(fired, 2);

  ledger.track(batch(2, 0), 0, 0, at_ms(200)).retry_timer =
      simulator.schedule_after(sim::Duration::millis(100),
                               [&fired] { ++fired; });
  ledger.clear();
  simulator.run_until(at_ms(400));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ledger.size(), 0u);
}

ResponsePayload push(QueryId query) {
  ResponsePayload payload;
  payload.query = query;
  payload.matches.push_back(SimilarityMatch{query, 77, 0.5, at_ms(0)});
  return payload;
}

TEST(PushLedger, TrackNumbersPushesFromOne) {
  PushLedger ledger;
  EXPECT_EQ(ledger.track(push(5))->push_seq, 1u);
  EXPECT_EQ(ledger.track(push(6))->push_seq, 2u);
  EXPECT_EQ(ledger.track(push(5))->push_seq, 3u);
  EXPECT_EQ(ledger.size(), 3u);
}

TEST(PushLedger, AckRetiresOnlyThatPush) {
  PushLedger ledger;
  ledger.track(push(5));  // push_seq 1
  ledger.track(push(5));  // 2
  ledger.track(push(6));  // 3
  ledger.ack(5, 2);
  ledger.ack(6, 1);  // unknown: ignored
  std::vector<std::pair<QueryId, std::uint64_t>> resent;
  const auto retry = [&](QueryId query, std::uint64_t push_seq) {
    return ledger.resend_one(
        query, push_seq, budget(3),
        [&](const std::shared_ptr<const ResponsePayload>& payload) {
          resent.emplace_back(payload->query, payload->push_seq);
        });
  };
  EXPECT_TRUE(retry(5, 1));
  EXPECT_FALSE(retry(5, 2)) << "the acked push is gone";
  EXPECT_TRUE(retry(6, 3));
  EXPECT_EQ(resent, (std::vector<std::pair<QueryId, std::uint64_t>>{
                        {5, 1}, {6, 3}}));
  EXPECT_EQ(ledger.size(), 2u);
}

TEST(PushLedger, TimedRetryResendsVerbatimUntilTheBudgetIsSpent) {
  PushLedger ledger;
  const auto original = ledger.track(push(5));  // push_seq 1
  ledger.track(push(5));                        // 2
  ledger.ack(5, 2);
  const RetryPolicy policy = budget(2);
  std::vector<std::shared_ptr<const ResponsePayload>> resent;
  const auto retry = [&](std::uint64_t push_seq) {
    return ledger.resend_one(
        5, push_seq, policy,
        [&](const std::shared_ptr<const ResponsePayload>& payload) {
          resent.push_back(payload);
        });
  };
  EXPECT_FALSE(retry(2)) << "an acked push is not resent";
  EXPECT_TRUE(resent.empty());
  EXPECT_TRUE(retry(1));
  EXPECT_TRUE(retry(1));
  ASSERT_EQ(resent.size(), 2u);
  EXPECT_EQ(resent[0], original);
  EXPECT_EQ(resent[1]->push_seq, 1u);
  EXPECT_FALSE(retry(1)) << "budget of two resends spent";
  EXPECT_EQ(resent.size(), 2u);
  EXPECT_EQ(ledger.size(), 0u) << "a spent push is forgotten";
}

}  // namespace
}  // namespace sdsi::core
