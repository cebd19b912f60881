#include "core/dispatch.hpp"

#include <gtest/gtest.h>

#include "core/orphanage.hpp"
#include "sim/scheduler.hpp"

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

struct DispatchFixture : ::testing::Test {
  static net::MessageBus::Config quiet_config() {
    net::MessageBus::Config config;
    config.max_jitter = Duration{};  // keep same-tick deliveries in post order
    return config;
  }

  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, quiet_config()};
  AuthService auth{{}};
  StreamCatalog catalog;
  DispatchingService dispatch{bus, auth, catalog};

  struct FakeConsumer {
    net::Address address;
    std::vector<DeliveryView> deliveries;

    FakeConsumer(net::MessageBus& bus, const std::string& name) {
      address = bus.add_endpoint(name, [this](net::Envelope e) {
        if (e.type != kDataDelivery) return;
        const auto decoded = decode_delivery_view(e.payload, ChecksumPolicy::kVerify);
        ASSERT_TRUE(decoded.ok());
        deliveries.push_back(decoded.value());
      });
    }
  };

  DataMessage make_message(StreamId id, SequenceNo seq = 0) {
    DataMessage msg;
    msg.stream_id = id;
    msg.sequence = seq;
    msg.payload = util::to_bytes("data");
    return msg;
  }
};

TEST_F(DispatchFixture, DeliversToExactSubscriber) {
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  dispatch.on_filtered(make_message({1, 0}), scheduler.now());
  scheduler.run();

  ASSERT_EQ(consumer.deliveries.size(), 1u);
  EXPECT_EQ(consumer.deliveries[0].message.stream_id, (StreamId{1, 0}));
}

TEST_F(DispatchFixture, FansOutToAllSubscribers) {
  FakeConsumer c1(bus, "c1");
  FakeConsumer c2(bus, "c2");
  FakeConsumer c3(bus, "c3");
  dispatch.subscribe(c1.address, StreamPattern::exact({1, 0}));
  dispatch.subscribe(c2.address, StreamPattern::all_of(1));
  dispatch.subscribe(c3.address, StreamPattern::everything());

  dispatch.on_filtered(make_message({1, 0}), scheduler.now());
  scheduler.run();

  EXPECT_EQ(c1.deliveries.size(), 1u);
  EXPECT_EQ(c2.deliveries.size(), 1u);
  EXPECT_EQ(c3.deliveries.size(), 1u);
  EXPECT_EQ(dispatch.stats().copies_delivered, 3u);
}

TEST_F(DispatchFixture, NonMatchingSubscriberNotDelivered) {
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({2, 0}));
  dispatch.on_filtered(make_message({1, 0}), scheduler.now());
  scheduler.run();
  EXPECT_TRUE(consumer.deliveries.empty());
}

TEST_F(DispatchFixture, UnclaimedGoesToOrphanSink) {
  FakeConsumer orphanage(bus, "orphanage");
  dispatch.set_orphan_sink(orphanage.address);

  dispatch.on_filtered(make_message({5, 5}), scheduler.now());
  scheduler.run();

  EXPECT_EQ(orphanage.deliveries.size(), 1u);
  EXPECT_EQ(dispatch.stats().orphaned, 1u);
}

TEST_F(DispatchFixture, ClaimedDataSkipsOrphanage) {
  FakeConsumer orphanage(bus, "orphanage");
  FakeConsumer consumer(bus, "c1");
  dispatch.set_orphan_sink(orphanage.address);
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  dispatch.on_filtered(make_message({1, 0}), scheduler.now());
  scheduler.run();

  EXPECT_TRUE(orphanage.deliveries.empty());
  EXPECT_EQ(consumer.deliveries.size(), 1u);
}

TEST_F(DispatchFixture, UnsubscribeStopsDelivery) {
  FakeConsumer consumer(bus, "c1");
  const SubscriptionId id = dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  dispatch.on_filtered(make_message({1, 0}, 0), scheduler.now());
  scheduler.run();
  EXPECT_TRUE(dispatch.unsubscribe(id));
  dispatch.on_filtered(make_message({1, 0}, 1), scheduler.now());
  scheduler.run();
  EXPECT_EQ(consumer.deliveries.size(), 1u);
}

TEST_F(DispatchFixture, DropConsumerRemovesAllSubscriptions) {
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  dispatch.subscribe(consumer.address, StreamPattern::all_of(2));
  EXPECT_EQ(dispatch.drop_consumer(consumer.address), 2u);
  dispatch.on_filtered(make_message({1, 0}), scheduler.now());
  scheduler.run();
  EXPECT_TRUE(consumer.deliveries.empty());
}

TEST_F(DispatchFixture, CatalogNotesEveryMessage) {
  dispatch.on_filtered(make_message({1, 0}), scheduler.now());
  dispatch.on_filtered(make_message({1, 0}, 1), scheduler.now());
  EXPECT_NE(catalog.find({1, 0}), nullptr);
  EXPECT_EQ(catalog.find({1, 0})->messages, 2u);
}

TEST_F(DispatchFixture, AckObserverFires) {
  std::vector<std::uint32_t> acks;
  dispatch.set_ack_observer([&](std::uint32_t request_id, SensorId sensor, SimTime) {
    acks.push_back(request_id);
    EXPECT_EQ(sensor, 1u);
  });
  DataMessage msg = make_message({1, 0});
  msg.header.set(HeaderFlag::kAckPresent);
  msg.ack_request_id = 321;
  dispatch.on_filtered(msg, scheduler.now());
  EXPECT_EQ(acks, (std::vector<std::uint32_t>{321}));
  EXPECT_EQ(dispatch.stats().acks_observed, 1u);
}

TEST_F(DispatchFixture, FirstHeardTimePropagated) {
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  const SimTime heard = SimTime{} + Duration::millis(123);
  dispatch.on_filtered(make_message({1, 0}), heard);
  scheduler.run();
  ASSERT_EQ(consumer.deliveries.size(), 1u);
  EXPECT_EQ(consumer.deliveries[0].first_heard, heard);
}

TEST_F(DispatchFixture, SubscribeViaRpc) {
  FakeConsumer consumer(bus, "c1");
  const auto identity = auth.register_consumer("c1", consumer.address);
  ASSERT_TRUE(identity.ok());

  net::RpcNode caller(bus, "caller");
  bool subscribed = false;
  util::ByteWriter w(16);
  w.u64(identity.value().token);
  w.u64(StreamPattern::exact({1, 0}).packed());
  caller.call(dispatch.address(), DispatchingService::kSubscribe, std::move(w).take(),
              net::CallOptions{}, [&](net::RpcResult result) {
                ASSERT_TRUE(result.ok());
                subscribed = true;
              });
  scheduler.run();
  ASSERT_TRUE(subscribed);

  dispatch.on_filtered(make_message({1, 0}), scheduler.now());
  scheduler.run();
  EXPECT_EQ(consumer.deliveries.size(), 1u);
}

TEST_F(DispatchFixture, SubscribeWithBadTokenRejected) {
  net::RpcNode caller(bus, "caller");
  std::optional<net::RpcError> error;
  util::ByteWriter w(16);
  w.u64(0xBADBAD);
  w.u64(StreamPattern::everything().packed());
  caller.call(dispatch.address(), DispatchingService::kSubscribe, std::move(w).take(),
              net::CallOptions{}, [&](net::RpcResult result) {
                ASSERT_FALSE(result.ok());
                error = result.error();
              });
  scheduler.run();
  EXPECT_EQ(error, net::RpcError::kRemoteFailure);
}

TEST_F(DispatchFixture, DerivedPublishDeliveredToSubscribers) {
  FakeConsumer consumer(bus, "c1");
  const StreamId derived = catalog.allocate_derived();
  dispatch.subscribe(consumer.address, StreamPattern::exact(derived));

  DataMessage msg = make_message(derived);
  msg.header.set(HeaderFlag::kDerived);
  bus.post(consumer.address, dispatch.address(), kDerivedPublish, encode(msg));
  scheduler.run();

  EXPECT_EQ(consumer.deliveries.size(), 1u);
  EXPECT_EQ(dispatch.stats().derived_in, 1u);
}

TEST_F(DispatchFixture, DerivedPublishWithoutFlagRejected) {
  const StreamId derived = catalog.allocate_derived();
  const DataMessage msg = make_message(derived);  // kDerived flag missing
  bus.post(net::Address{99}, dispatch.address(), kDerivedPublish, encode(msg));
  scheduler.run();
  EXPECT_EQ(dispatch.stats().derived_in, 0u);
  EXPECT_EQ(dispatch.stats().rejected_publishes, 1u);
}

TEST_F(DispatchFixture, MalformedDerivedPublishRejected) {
  bus.post(net::Address{99}, dispatch.address(), kDerivedPublish, util::to_bytes("junk"));
  scheduler.run();
  EXPECT_EQ(dispatch.stats().rejected_publishes, 1u);
}


// --- credit-based flow control --------------------------------------------

/// Flow-control harness: a real Orphanage serves as the quarantine stash
/// so resume rounds exercise the genuine kFetchBacklog wire path.
struct FlowFixture : DispatchFixture {
  // Deep enough to hold a multi-batch backlog on one stream.
  Orphanage orphanage{bus, {.retention_per_stream = 128}};

  void enable_flow(std::uint32_t window, std::uint32_t resume_threshold = 0) {
    dispatch.set_orphan_sink(orphanage.address());
    FlowControlConfig flow;
    flow.credit_window = window;
    flow.resume_threshold = resume_threshold;
    dispatch.set_flow_control(flow);
  }

  /// A consumer replenishment ack, as core::Consumer::send_credit sends.
  void send_credits(net::Address consumer, std::uint32_t count) {
    util::ByteWriter w(4);
    w.u32(count);
    bus.post(consumer, dispatch.address(), kDeliveryCredit, util::take_shared(std::move(w)));
    scheduler.run();
  }

  std::vector<SequenceNo> sequences(const FakeConsumer& consumer) const {
    std::vector<SequenceNo> seqs;
    for (const auto& d : consumer.deliveries) seqs.push_back(d.message.sequence);
    return seqs;
  }
};

TEST_F(FlowFixture, ExhaustedWindowQuarantinesAndShedsToStash) {
  enable_flow(/*window=*/2);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();

  // Two copies spent the window; the remaining three were quarantined
  // into the stash, not posted.
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1}));
  EXPECT_TRUE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 0u);
  EXPECT_EQ(dispatch.stats().quarantines, 1u);
  EXPECT_EQ(dispatch.stats().credits_exhausted, 1u);
  EXPECT_EQ(dispatch.stats().quarantine_sheds, 3u);
  EXPECT_EQ(orphanage.total_received(), 3u);
}

TEST_F(FlowFixture, SlowConsumerDoesNotStallTheFastOne) {
  enable_flow(/*window=*/2);
  FakeConsumer slow(bus, "slow");
  FakeConsumer fast(bus, "fast");
  dispatch.subscribe(slow.address, StreamPattern::exact({1, 0}));
  dispatch.subscribe(fast.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 6; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
    scheduler.run();
    // Only the fast consumer acks each delivery.
    if (!fast.deliveries.empty()) send_credits(fast.address, 1);
  }

  EXPECT_EQ(fast.deliveries.size(), 6u);  // never throttled
  EXPECT_EQ(slow.deliveries.size(), 2u);  // window spent, then quarantined
  EXPECT_TRUE(dispatch.quarantined(slow.address));
  EXPECT_FALSE(dispatch.quarantined(fast.address));
}

TEST_F(FlowFixture, CreditsResumeWithDuplicateFreeRedelivery) {
  enable_flow(/*window=*/3, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));

  // The consumer catches up and acks everything it processed; the
  // dispatcher replays the stashed tail — each stashed copy exactly once.
  send_credits(consumer.address, 3);

  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 2, 3, 4}));
  EXPECT_EQ(dispatch.stats().resumes, 1u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 2u);
  EXPECT_EQ(dispatch.stats().resume_discarded, 0u);
}

TEST_F(FlowFixture, ResumeWaitsForTheThreshold) {
  enable_flow(/*window=*/4, /*resume_threshold=*/3);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 6; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));

  send_credits(consumer.address, 2);  // below threshold: still quarantined
  EXPECT_TRUE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resumes, 0u);

  send_credits(consumer.address, 1);  // threshold reached: replay runs
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 2, 3, 4, 5}));
}

TEST_F(FlowFixture, DropConsumerDuringResumeReturnsFramesToStash) {
  // The race from the issue: a resume round is in flight when
  // drop_consumer retires the flow. The already-fetched frames must not
  // be delivered to the gone consumer *or* lost — they go back to the
  // stash, where the next claimant can find them.
  enable_flow(/*window=*/2, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));
  const std::uint64_t stashed = orphanage.total_received();
  ASSERT_EQ(stashed, 3u);

  // Replenish (starts the async kFetchBacklog round) and drop the
  // consumer while the fetch is still on the wire: step the clock only
  // until the resume round has *started*, well before its round-trip
  // completes, then retire the flow.
  util::ByteWriter w(4);
  w.u32(2);
  bus.post(consumer.address, dispatch.address(), kDeliveryCredit, util::take_shared(std::move(w)));
  for (int i = 0; i < 100 && dispatch.stats().resumes == 0; ++i) {
    scheduler.run_until(scheduler.now() + Duration::micros(20));
  }
  ASSERT_EQ(dispatch.stats().resumes, 1u);
  dispatch.drop_consumer(consumer.address);
  scheduler.run();

  // Nothing beyond the pre-quarantine deliveries reached the consumer...
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1}));
  // ...and every fetched frame was re-admitted to the orphanage.
  EXPECT_EQ(dispatch.stats().resume_returned + dispatch.stats().resume_discarded +
                dispatch.stats().resume_redelivered,
            stashed);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 0u);
  EXPECT_EQ(orphanage.total_received(), stashed + dispatch.stats().resume_returned);
  // The flow state is gone: a fresh subscription starts a fresh window.
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 2u);
}

TEST_F(FlowFixture, ReexhaustionDuringResumeRestashesTheRemainder) {
  // The consumer comes back with fewer credits than the backlog is deep:
  // the replay delivers what the window allows and re-stashes the rest,
  // re-entering quarantine without losing anything.
  enable_flow(/*window=*/2, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 8; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 6u);

  send_credits(consumer.address, 2);  // backlog is 6 deep; only 2 credits

  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 2, 3}));
  EXPECT_TRUE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resume_redelivered, 2u);
  EXPECT_GE(dispatch.stats().resume_returned, 1u);

  // Window-sized replenishments finish the job — still no duplicates.
  for (int round = 0; round < 4 && dispatch.quarantined(consumer.address); ++round) {
    send_credits(consumer.address, 2);
  }
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
}

TEST_F(FlowFixture, ResumeFetchesABacklogDeeperThanTwoBatches) {
  // 80 shed frames on one stream take three kFetchBacklog rounds
  // (32 + 32 + 16): a full batch fetches again, the short one ends the
  // stream. Every shed frame comes back exactly once, in order.
  enable_flow(/*window=*/100, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 180; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 80u);

  send_credits(consumer.address, 100);

  std::vector<SequenceNo> expected;
  for (SequenceNo seq = 0; seq < 180; ++seq) expected.push_back(seq);
  EXPECT_EQ(sequences(consumer), expected);
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 20u);
  EXPECT_EQ(dispatch.stats().resumes, 1u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 80u);
  EXPECT_EQ(dispatch.stats().resume_discarded, 0u);
  EXPECT_EQ(dispatch.stats().resume_returned, 0u);
  EXPECT_TRUE(orphanage.claim({1, 0}).empty());
}

TEST_F(FlowFixture, AcksBetweenBacklogBatchesDeliverEverySequenceOnce) {
  // 72 shed frames on one stream, a window (8) smaller than a fetch
  // batch (32), and a consumer that acks each delivery as it lands, as
  // core::Consumer does: acks reach dispatch between fetches while
  // frames go back to the stash. Every sequence still arrives once.
  enable_flow(/*window=*/8);
  std::vector<SequenceNo> seen;
  net::Address acker;
  acker = bus.add_endpoint("acker", [&](net::Envelope e) {
    if (e.type != kDataDelivery) return;
    const auto decoded = decode_delivery_view(e.payload);
    ASSERT_TRUE(decoded.ok());
    seen.push_back(decoded.value().message.sequence);
    util::ByteWriter w(4);
    w.u32(1);
    bus.post(acker, dispatch.address(), kDeliveryCredit, util::take_shared(std::move(w)));
  });
  dispatch.subscribe(acker, StreamPattern::exact({1, 0}));

  constexpr SequenceNo kTotal = 80;
  for (SequenceNo seq = 0; seq < kTotal; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 72u);
  scheduler.run();

  std::sort(seen.begin(), seen.end());
  std::vector<SequenceNo> expected;
  for (SequenceNo seq = 0; seq < kTotal; ++seq) expected.push_back(seq);
  EXPECT_EQ(seen, expected);
  EXPECT_FALSE(dispatch.quarantined(acker));
  EXPECT_GT(dispatch.stats().resume_returned, 0u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 72u);
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
}

TEST_F(FlowFixture, CopiesShedDuringARoundAreRedeliveredWhenItFetchesThem) {
  // Copies shed after a round began are owed by the flow, not by the
  // round's plan. When the round's second batch drains them from the
  // stash, they are redelivered then, not discarded.
  enable_flow(/*window=*/100, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 140; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 40u);

  // The ack lands after 200us and the first fetch drains 32 frames at
  // 400us; five copies shed at 300us reach the stash behind the other
  // eight and come back in the second batch.
  util::ByteWriter w(4);
  w.u32(100);
  bus.post(consumer.address, dispatch.address(), kDeliveryCredit, util::take_shared(std::move(w)));
  scheduler.schedule_after(Duration::micros(300), [&] {
    for (SequenceNo seq = 140; seq < 145; ++seq) {
      dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
    }
  });
  scheduler.run();

  std::vector<SequenceNo> seen = sequences(consumer);
  std::sort(seen.begin(), seen.end());
  std::vector<SequenceNo> expected;
  for (SequenceNo seq = 0; seq < 145; ++seq) expected.push_back(seq);
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(dispatch.stats().quarantine_sheds, 45u);
  EXPECT_EQ(dispatch.stats().resumes, 1u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 45u);
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
}

TEST_F(FlowFixture, ReexhaustedRoundWaitsForTheNextAck) {
  // A consumer that never acks: the first resume round spends its
  // window on a 40-frame backlog, returns the rest of the batch to the
  // stash and stops; it does not keep refetching the returned frames.
  enable_flow(/*window=*/4, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 44; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 40u);

  send_credits(consumer.address, 4);
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resumes, 1u);
  EXPECT_EQ(dispatch.stats().resume_returned, 28u);

  for (int round = 0; round < 20 && dispatch.quarantined(consumer.address); ++round) {
    send_credits(consumer.address, 4);
  }
  std::vector<SequenceNo> seen = sequences(consumer);
  std::sort(seen.begin(), seen.end());
  std::vector<SequenceNo> expected;
  for (SequenceNo seq = 0; seq < 44; ++seq) expected.push_back(seq);
  EXPECT_EQ(seen, expected);
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
}

TEST_F(FlowFixture, ShedsEvictedFromTheStashAreCountedMissing) {
  // The stash keeps 128 frames per stream; 150 shed frames overflow it.
  // The resume redelivers the 128 it still holds and counts the 22
  // evicted copies it owed as missing.
  enable_flow(/*window=*/150, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 300; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 150u);

  send_credits(consumer.address, 150);
  EXPECT_EQ(consumer.deliveries.size(), 278u);
  EXPECT_EQ(sequences(consumer).back(), 299u);
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resume_redelivered, 128u);
  EXPECT_EQ(dispatch.stats().resume_missing, 22u);
}

TEST_F(FlowFixture, FailedBacklogFetchSkipsTheStreamAndFinishes) {
  // With the stash unreachable, kFetchBacklog fails after its retries.
  // The quarantine resume skips the stream and finishes instead of
  // stalling, and counts the shed copies it abandons.
  enable_flow(/*window=*/2, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));
  bus.set_endpoint_down(Orphanage::kEndpointName, true);

  // Resume: the fetch fails, the stream is skipped, the flow is released
  // with what was shed lost — and the loss is on the ledger.
  send_credits(consumer.address, 2);
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1}));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 2u);
  EXPECT_EQ(dispatch.stats().resumes, 1u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 0u);
  EXPECT_EQ(dispatch.stats().resume_discarded, 0u);
  EXPECT_EQ(dispatch.stats().resume_returned, 0u);
  EXPECT_EQ(dispatch.stats().resume_unreachable, 3u);
  EXPECT_EQ(orphanage.total_received(), 3u);
}

TEST_F(FlowFixture, RestoredQuarantinedFlowResumesWhenKicked) {
  // A restored flow comes back quarantined with a full window, and no
  // credit ack will arrive to wake it: resume_quarantined() (the restart
  // hook) must start its backlog resume.
  enable_flow(/*window=*/4, /*resume_threshold=*/1);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 6; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));
  const util::Bytes state = dispatch.capture_state();
  dispatch.reset_state();
  ASSERT_TRUE(dispatch.restore_state(state).ok());
  ASSERT_TRUE(dispatch.quarantined(consumer.address));

  dispatch.resume_quarantined();
  scheduler.run();
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resumes, 1u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 2u);
  EXPECT_EQ(dispatch.credits(consumer.address), 2u);
}

TEST_F(FlowFixture, SubscribeReplyCarriesTheCreditWindow) {
  enable_flow(/*window=*/7);
  net::RpcNode caller(bus, "caller");
  const auto identity = auth.register_consumer("caller", caller.address()).value();

  util::ByteWriter w(24);
  w.u64(identity.token);
  w.u64(StreamPattern::everything().packed());
  w.u32(0);
  w.u32(0);
  std::optional<std::uint32_t> window;
  caller.call(dispatch.address(), DispatchingService::kSubscribe, std::move(w).take(), {},
              [&](net::RpcResult result) {
                ASSERT_TRUE(result.ok());
                util::ByteReader r(result.value());
                [[maybe_unused]] const auto subscription_id = r.u64();
                window = r.u32();
              });
  scheduler.run();
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(*window, 7u);
}

}  // namespace
}  // namespace garnet::core
