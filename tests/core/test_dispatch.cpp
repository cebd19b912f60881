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

/// Flow-control harness. A real Orphanage is the orphan sink, so tests
/// can show that quarantine sheds never reach it.
struct FlowFixture : DispatchFixture {
  Orphanage orphanage{bus, {}};

  void enable_flow(std::uint32_t window) {
    dispatch.set_orphan_sink(orphanage.address());
    FlowControlConfig flow;
    flow.credit_window = window;
    dispatch.set_flow_control(flow);
  }

  /// A consumer replenishment ack, as core::Consumer::send_credit sends.
  void send_credits(net::Address consumer, std::uint32_t count) {
    util::ByteWriter w(4);
    w.u32(count);
    bus.post(consumer, dispatch.address(), kDeliveryCredit, util::take_shared(std::move(w)));
    scheduler.run();
  }

  /// Acks `count` credits until the consumer leaves quarantine, at most
  /// `rounds` times.
  void ack_until_released(net::Address consumer, std::uint32_t count, int rounds) {
    for (int round = 0; round < rounds && dispatch.quarantined(consumer); ++round) {
      send_credits(consumer, count);
    }
  }

  std::vector<SequenceNo> sequences(const FakeConsumer& consumer) const {
    std::vector<SequenceNo> seqs;
    for (const auto& d : consumer.deliveries) seqs.push_back(d.message.sequence);
    return seqs;
  }
};

/// Sequences [first, last).
std::vector<SequenceNo> seq_range(SequenceNo first, SequenceNo last) {
  std::vector<SequenceNo> seqs;
  for (SequenceNo seq = first; seq < last; ++seq) seqs.push_back(seq);
  return seqs;
}

TEST_F(FlowFixture, ExhaustedWindowQuarantinesAndShedsToStash) {
  enable_flow(/*window=*/2);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();

  // Two copies spent the window; the remaining three were shed into the
  // consumer's own backlog, not posted and not sent to the Orphanage.
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1}));
  EXPECT_TRUE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 0u);
  EXPECT_EQ(dispatch.stats().quarantines, 1u);
  EXPECT_EQ(dispatch.stats().credits_exhausted, 1u);
  EXPECT_EQ(dispatch.stats().quarantine_sheds, 3u);
  EXPECT_EQ(orphanage.total_received(), 0u);
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
  enable_flow(/*window=*/3);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));

  // The consumer catches up and acks everything it processed; the
  // dispatcher redelivers the shed tail — each shed copy exactly once.
  send_credits(consumer.address, 3);

  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 2, 3, 4}));
  EXPECT_EQ(dispatch.stats().resume_redelivered, 2u);
  EXPECT_EQ(dispatch.stats().resume_discarded, 0u);
}

TEST_F(FlowFixture, EveryQuarantinedConsumerGetsItsOwnShedCopies) {
  // Two consumers quarantined on the same stream: each is owed its own
  // copy of every message shed while it was quarantined, and each gets
  // every sequence back exactly once, whichever resumes first.
  enable_flow(/*window=*/2);
  FakeConsumer a(bus, "a");
  FakeConsumer b(bus, "b");
  dispatch.subscribe(a.address, StreamPattern::exact({1, 0}));
  dispatch.subscribe(b.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(a.address));
  ASSERT_TRUE(dispatch.quarantined(b.address));

  for (int round = 0;
       round < 4 && (dispatch.quarantined(a.address) || dispatch.quarantined(b.address));
       ++round) {
    send_credits(a.address, 2);
    send_credits(b.address, 2);
  }
  const std::vector<SequenceNo> all{0, 1, 2, 3, 4};
  EXPECT_EQ(sequences(a), all);
  EXPECT_EQ(sequences(b), all);
  EXPECT_FALSE(dispatch.quarantined(a.address));
  EXPECT_FALSE(dispatch.quarantined(b.address));
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
}

TEST_F(FlowFixture, DropQuarantinedConsumerFreesItsBacklog) {
  // The backlog goes with the flow: an ack from the departed consumer's
  // address finds no flow, nothing shed for it is delivered, and a fresh
  // subscription starts with a fresh window and an empty backlog.
  enable_flow(/*window=*/2);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 3u);

  dispatch.drop_consumer(consumer.address);
  send_credits(consumer.address, 2);
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1}));
  EXPECT_EQ(dispatch.stats().credit_acks, 0u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 0u);
  EXPECT_EQ(dispatch.stats().resume_discarded, 0u);
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 2u);

  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  dispatch.on_filtered(make_message({1, 0}, 5), scheduler.now());
  scheduler.run();
  EXPECT_EQ(sequences(consumer), (std::vector<SequenceNo>{0, 1, 5}));
  EXPECT_EQ(dispatch.credits(consumer.address), 1u);
  EXPECT_EQ(orphanage.total_received(), 0u);
}

TEST_F(FlowFixture, ReexhaustionDuringResumeRestashesTheRemainder) {
  // The consumer comes back with fewer credits than the backlog is deep:
  // the drain delivers what the window allows and keeps the rest queued,
  // still quarantined, without losing anything.
  enable_flow(/*window=*/2);
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
  EXPECT_EQ(dispatch.credits(consumer.address), 0u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 2u);

  // Window-sized replenishments finish the job — still no duplicates.
  ack_until_released(consumer.address, 2, 4);
  EXPECT_EQ(sequences(consumer), seq_range(0, 8));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
}

TEST_F(FlowFixture, ResumeFetchesABacklogDeeperThanTwoBatches) {
  // An 80-frame backlog drains on one ack's credits, in shed order, and
  // the Orphanage holds none of it.
  enable_flow(/*window=*/100);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));

  for (SequenceNo seq = 0; seq < 180; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 80u);

  send_credits(consumer.address, 100);

  EXPECT_EQ(sequences(consumer), seq_range(0, 180));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 20u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 80u);
  EXPECT_EQ(dispatch.stats().resume_discarded, 0u);
  EXPECT_TRUE(orphanage.claim({1, 0}).empty());
}

TEST_F(FlowFixture, AcksBetweenBacklogBatchesDeliverEverySequenceOnce) {
  // 72 shed frames on one stream, a window of 8, and a consumer that
  // acks each delivery as it lands, as core::Consumer does: each ack
  // drains one backlog frame, so every sequence arrives once, in order.
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

  EXPECT_EQ(seen, seq_range(0, kTotal));
  EXPECT_FALSE(dispatch.quarantined(acker));
  EXPECT_EQ(dispatch.stats().resume_redelivered, 72u);
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
}

TEST_F(FlowFixture, CopiesShedDuringARoundAreRedeliveredWhenItFetchesThem) {
  // Copies shed while a backlog is part-drained queue behind it: the
  // next ack redelivers the old remainder first, then them.
  enable_flow(/*window=*/100);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 140; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 40u);

  send_credits(consumer.address, 10);  // drains 100..109; 30 still queued
  ASSERT_TRUE(dispatch.quarantined(consumer.address));
  for (SequenceNo seq = 140; seq < 145; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  send_credits(consumer.address, 100);

  EXPECT_EQ(sequences(consumer), seq_range(0, 145));
  EXPECT_EQ(dispatch.stats().quarantine_sheds, 45u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 45u);
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
}

TEST_F(FlowFixture, ReexhaustedRoundWaitsForTheNextAck) {
  // A consumer that never acks: the first ack's drain spends the window
  // on a 40-frame backlog and stops; the rest waits for later acks.
  enable_flow(/*window=*/4);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 44; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_EQ(dispatch.stats().quarantine_sheds, 40u);

  send_credits(consumer.address, 4);
  EXPECT_EQ(sequences(consumer), seq_range(0, 8));
  EXPECT_TRUE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 0u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 4u);

  ack_until_released(consumer.address, 4, 20);
  EXPECT_EQ(sequences(consumer), seq_range(0, 44));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
}

TEST_F(FlowFixture, ShedsPastTheBacklogBoundAreCountedMissing) {
  // 22 sheds more than the backlog holds: the 22 oldest are evicted and
  // counted missing, and the newest kBacklogFrames arrive in order.
  constexpr std::uint32_t kWindow = 8;
  constexpr auto kBound = static_cast<SequenceNo>(DispatchingService::kBacklogFrames);
  constexpr SequenceNo kTotal = kWindow + kBound + 22;
  enable_flow(kWindow);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < kTotal; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_EQ(dispatch.stats().quarantine_sheds, kBound + 22u);
  EXPECT_EQ(dispatch.stats().resume_missing, 22u);

  ack_until_released(consumer.address, kWindow, kBound / kWindow + 2);
  std::vector<SequenceNo> expected = seq_range(0, kWindow);
  const std::vector<SequenceNo> newest = seq_range(kWindow + 22, kTotal);
  expected.insert(expected.end(), newest.begin(), newest.end());
  EXPECT_EQ(sequences(consumer), expected);
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resume_redelivered, kBound);
  EXPECT_EQ(dispatch.stats().resume_missing, 22u);
}

TEST_F(FlowFixture, UnreachableOrphanageDoesNotAffectResume) {
  // Quarantine sheds stay in dispatch, so an Orphanage that is down
  // costs the quarantined consumer nothing.
  enable_flow(/*window=*/2);
  bus.set_endpoint_down(Orphanage::kEndpointName, true);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  ASSERT_TRUE(dispatch.quarantined(consumer.address));

  ack_until_released(consumer.address, 2, 4);
  EXPECT_EQ(sequences(consumer), seq_range(0, 5));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.credits(consumer.address), 1u);
  EXPECT_EQ(dispatch.stats().resume_redelivered, 3u);
  EXPECT_EQ(dispatch.stats().resume_discarded, 0u);
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
}

TEST_F(FlowFixture, RestoredQuarantinedFlowResumesWhenKicked) {
  // A flow outlives the crash, quarantined with its backlog, and no
  // credit ack will arrive to wake it: resume_quarantined() (the
  // restart hook) must re-prime the window and drain the backlog.
  enable_flow(/*window=*/4);
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
  EXPECT_EQ(dispatch.stats().resume_redelivered, 2u);
  EXPECT_EQ(dispatch.credits(consumer.address), 2u);
}

TEST_F(FlowFixture, CrashDuringQuarantineDeliversEverySequenceOnce) {
  // A checkpoint is taken while 2..4 wait in the backlog; an ack then
  // drains 2 and 3, and 5..7 are shed. A crash and restore must neither
  // resend the drained frames nor lose the later sheds.
  enable_flow(/*window=*/2);
  FakeConsumer consumer(bus, "c1");
  dispatch.subscribe(consumer.address, StreamPattern::exact({1, 0}));
  for (SequenceNo seq = 0; seq < 5; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();
  const util::Bytes checkpoint = dispatch.capture_state();
  send_credits(consumer.address, 2);
  for (SequenceNo seq = 5; seq < 8; ++seq) {
    dispatch.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();

  dispatch.reset_state();
  ASSERT_TRUE(dispatch.restore_state(checkpoint).ok());
  dispatch.resume_quarantined();
  scheduler.run();
  ack_until_released(consumer.address, 2, 6);

  EXPECT_EQ(sequences(consumer), seq_range(0, 8));
  EXPECT_FALSE(dispatch.quarantined(consumer.address));
  EXPECT_EQ(dispatch.stats().resume_missing, 0u);
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
