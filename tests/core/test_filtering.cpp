// Filtering Service: duplicate elimination and stream reconstruction
// (paper §4.2), including 16-bit sequence wraparound and the reorder
// buffer ablation (A2).
#include "core/filtering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>

#include "util/rng.hpp"

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

wireless::ReceptionReport make_report(StreamId id, SequenceNo seq,
                                      wireless::ReceiverId receiver = 1,
                                      std::string_view payload = "x") {
  DataMessage msg;
  msg.stream_id = id;
  msg.sequence = seq;
  msg.payload = util::to_bytes(payload);
  return wireless::ReceptionReport{receiver, -40.0, SimTime::zero(), encode(msg)};
}

struct FilteringFixture : ::testing::Test {
  sim::Scheduler scheduler;

  struct Harness {
    FilteringService service;
    std::vector<DataMessage> out;
    std::vector<ReceptionEvent> receptions;

    Harness(sim::Scheduler& sched, FilteringService::Config config) : service(sched, config) {
      service.set_message_sink([this](const DataMessage& m, SimTime) { out.push_back(m); });
      service.set_reception_sink([this](const ReceptionEvent& e) { receptions.push_back(e); });
    }
  };
};

TEST_F(FilteringFixture, ForwardsUniqueMessages) {
  Harness h(scheduler, {});
  for (SequenceNo seq = 0; seq < 5; ++seq) h.service.ingest(make_report({1, 0}, seq));
  ASSERT_EQ(h.out.size(), 5u);
  for (SequenceNo seq = 0; seq < 5; ++seq) EXPECT_EQ(h.out[seq].sequence, seq);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 0u);
}

TEST_F(FilteringFixture, DropsDuplicateCopies) {
  Harness h(scheduler, {});
  // Three receivers heard the same transmission.
  h.service.ingest(make_report({1, 0}, 10, 1));
  h.service.ingest(make_report({1, 0}, 10, 2));
  h.service.ingest(make_report({1, 0}, 10, 3));
  EXPECT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 2u);
}

TEST_F(FilteringFixture, ReceptionEventsIncludeDuplicates) {
  // The dedup discards copies, but every copy is location evidence.
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 10, 1));
  h.service.ingest(make_report({1, 0}, 10, 2));
  ASSERT_EQ(h.receptions.size(), 2u);
  EXPECT_EQ(h.receptions[0].receiver, 1u);
  EXPECT_EQ(h.receptions[1].receiver, 2u);
  EXPECT_EQ(h.receptions[0].sensor, 1u);
}

TEST_F(FilteringFixture, MalformedFramesCounted) {
  Harness h(scheduler, {});
  wireless::ReceptionReport bad{1, -40.0, SimTime::zero(), util::to_bytes("garbage!")};
  h.service.ingest(bad);
  EXPECT_EQ(h.out.size(), 0u);
  EXPECT_EQ(h.service.stats().malformed, 1u);
  EXPECT_TRUE(h.receptions.empty());  // no metadata from unverifiable frames
}

TEST_F(FilteringFixture, StreamsAreIndependent) {
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 5));
  h.service.ingest(make_report({1, 1}, 5));  // same sensor, different stream
  h.service.ingest(make_report({2, 0}, 5));  // different sensor
  EXPECT_EQ(h.out.size(), 3u);
  EXPECT_EQ(h.service.stats().streams_seen, 3u);
}

TEST_F(FilteringFixture, OutOfOrderWithinWindowAccepted) {
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 10));
  h.service.ingest(make_report({1, 0}, 8));  // late but new
  EXPECT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 0u);
}

TEST_F(FilteringFixture, LateDuplicateStillDropped) {
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 8));
  h.service.ingest(make_report({1, 0}, 10));
  h.service.ingest(make_report({1, 0}, 8));  // duplicate of the first
  EXPECT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 1u);
}

TEST_F(FilteringFixture, SequenceWraparound) {
  Harness h(scheduler, {});
  for (const SequenceNo seq : {SequenceNo{65534}, SequenceNo{65535}, SequenceNo{0},
                               SequenceNo{1}}) {
    h.service.ingest(make_report({1, 0}, seq));
  }
  EXPECT_EQ(h.out.size(), 4u);
  // Duplicate from before the wrap is still recognised.
  h.service.ingest(make_report({1, 0}, 65535));
  EXPECT_EQ(h.out.size(), 4u);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 1u);
}

TEST_F(FilteringFixture, StaleBeyondWindowDropped) {
  FilteringService::Config config;
  config.dedup_window = 16;
  Harness h(scheduler, config);
  h.service.ingest(make_report({1, 0}, 1000));
  h.service.ingest(make_report({1, 0}, 900));  // 100 behind, window is 16
  EXPECT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.service.stats().stale_dropped, 1u);
}

TEST_F(FilteringFixture, SeenSetPrunedAsWindowAdvances) {
  FilteringService::Config config;
  config.dedup_window = 8;
  Harness h(scheduler, config);
  for (SequenceNo seq = 0; seq < 100; ++seq) h.service.ingest(make_report({1, 0}, seq));
  EXPECT_EQ(h.out.size(), 100u);
  // A duplicate inside the window is caught; far outside is stale.
  h.service.ingest(make_report({1, 0}, 97));
  EXPECT_EQ(h.service.stats().duplicates_dropped, 1u);
  h.service.ingest(make_report({1, 0}, 5));
  EXPECT_EQ(h.service.stats().stale_dropped, 1u);
}

TEST_F(FilteringFixture, ReorderBufferReleasesInSequence) {
  FilteringService::Config config;
  config.reorder_depth = 8;
  config.reorder_timeout = Duration::millis(50);
  Harness h(scheduler, config);
  h.service.ingest(make_report({1, 0}, 0));
  h.service.ingest(make_report({1, 0}, 2));  // held: gap at 1
  h.service.ingest(make_report({1, 0}, 3));  // held
  EXPECT_EQ(h.out.size(), 1u);
  h.service.ingest(make_report({1, 0}, 1));  // fills the gap
  ASSERT_EQ(h.out.size(), 4u);
  for (SequenceNo seq = 0; seq < 4; ++seq) EXPECT_EQ(h.out[seq].sequence, seq);
}

TEST_F(FilteringFixture, ReorderGapTimeoutSkipsMissing) {
  FilteringService::Config config;
  config.reorder_depth = 8;
  config.reorder_timeout = Duration::millis(20);
  Harness h(scheduler, config);
  h.service.ingest(make_report({1, 0}, 0));
  h.service.ingest(make_report({1, 0}, 2));  // 1 never arrives
  EXPECT_EQ(h.out.size(), 1u);
  scheduler.run_for(Duration::millis(25));
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.out[1].sequence, 2u);
}

TEST_F(FilteringFixture, ReorderOverflowForcesRelease) {
  FilteringService::Config config;
  config.reorder_depth = 4;
  config.reorder_timeout = Duration::seconds(100);  // never fires here
  Harness h(scheduler, config);
  h.service.ingest(make_report({1, 0}, 0));
  // Sequence 1 missing; pile up 2..6 to exceed depth 4.
  for (const SequenceNo seq : {SequenceNo{2}, SequenceNo{3}, SequenceNo{4}, SequenceNo{5},
                               SequenceNo{6}}) {
    h.service.ingest(make_report({1, 0}, seq));
  }
  // Overflow skipped the gap and released everything held.
  ASSERT_EQ(h.out.size(), 6u);
  EXPECT_EQ(h.out[1].sequence, 2u);
  EXPECT_EQ(h.out.back().sequence, 6u);
}

TEST_F(FilteringFixture, LateMessageAfterGapSkipDropsAsStaleNotCrash) {
  FilteringService::Config config;
  config.reorder_depth = 4;
  config.reorder_timeout = Duration::millis(10);
  Harness h(scheduler, config);
  h.service.ingest(make_report({1, 0}, 0));
  h.service.ingest(make_report({1, 0}, 2));
  scheduler.run_for(Duration::millis(15));  // gap skipped, 2 released
  EXPECT_EQ(h.out.size(), 2u);
  h.service.ingest(make_report({1, 0}, 1));  // finally arrives
  // Accepted as a late new message (still within the dedup window); it
  // sits behind the advanced release point until the gap timer frees it.
  scheduler.run_for(Duration::millis(15));
  EXPECT_EQ(h.out.size(), 3u);
}

TEST_F(FilteringFixture, ResetForgetsStreams) {
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 10));
  h.service.reset();
  h.service.ingest(make_report({1, 0}, 10));  // same seq, fresh state
  EXPECT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 0u);
}

TEST_F(FilteringFixture, PayloadSurvivesFiltering) {
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 0, 1, "precious data"));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(util::to_string(h.out[0].payload), "precious data");
}

TEST_F(FilteringFixture, StreamReportCountsAcceptedAndLost) {
  Harness h(scheduler, {});
  // Sequences 0,1,2 then 5,6: two frames (3 and 4) vanished on the air.
  for (const SequenceNo seq : {SequenceNo{0}, SequenceNo{1}, SequenceNo{2}, SequenceNo{5},
                               SequenceNo{6}}) {
    h.service.ingest(make_report({1, 0}, seq));
  }
  const auto reports = h.service.stream_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].accepted, 5u);
  EXPECT_EQ(reports[0].estimated_lost, 2u);
  EXPECT_EQ(reports[0].newest, 6u);
}

TEST_F(FilteringFixture, StreamReportLateFillReducesLoss) {
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 0));
  h.service.ingest(make_report({1, 0}, 2));
  EXPECT_EQ(h.service.stream_reports()[0].estimated_lost, 1u);
  h.service.ingest(make_report({1, 0}, 1));  // the "lost" frame limps in
  EXPECT_EQ(h.service.stream_reports()[0].estimated_lost, 0u);
}

TEST_F(FilteringFixture, StreamReportAcrossWraparound) {
  Harness h(scheduler, {});
  for (const SequenceNo seq : {SequenceNo{65534}, SequenceNo{65535}, SequenceNo{0},
                               SequenceNo{1}}) {
    h.service.ingest(make_report({1, 0}, seq));
  }
  const auto reports = h.service.stream_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].accepted, 4u);
  EXPECT_EQ(reports[0].estimated_lost, 0u);  // wrap is not loss
}

TEST_F(FilteringFixture, StreamReportPerStream) {
  Harness h(scheduler, {});
  h.service.ingest(make_report({1, 0}, 0));
  h.service.ingest(make_report({2, 0}, 10));
  h.service.ingest(make_report({2, 0}, 12));
  const auto reports = h.service.stream_reports();
  EXPECT_EQ(reports.size(), 2u);
  for (const auto& report : reports) {
    if (report.id == (StreamId{2, 0})) {
      EXPECT_EQ(report.estimated_lost, 1u);
    }
    if (report.id == (StreamId{1, 0})) {
      EXPECT_EQ(report.estimated_lost, 0u);
    }
  }
}

// Property: whatever mix of duplication and bounded reordering the radio
// produces, each unique message is forwarded exactly once.
class FilteringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilteringProperty, ExactlyOnceUnderDuplicationAndReordering) {
  sim::Scheduler scheduler;
  FilteringService service(scheduler, {});
  std::size_t delivered = 0;
  std::set<SequenceNo> seen;
  service.set_message_sink([&](const DataMessage& m, SimTime) {
    ++delivered;
    EXPECT_TRUE(seen.insert(m.sequence).second) << "duplicate leaked: " << m.sequence;
  });

  util::Rng rng(GetParam());
  constexpr int kMessages = 400;

  // Build a randomly duplicated, locally shuffled arrival schedule.
  std::vector<std::pair<SequenceNo, wireless::ReceiverId>> arrivals;
  for (int seq = 0; seq < kMessages; ++seq) {
    const auto copies = 1 + rng.below(3);
    for (std::uint64_t c = 0; c < copies; ++c) {
      arrivals.emplace_back(static_cast<SequenceNo>(seq),
                            static_cast<wireless::ReceiverId>(c + 1));
    }
  }
  // Local shuffle: swap each element with one up to 8 positions away,
  // modelling radio jitter without violating the dedup window.
  for (std::size_t i = 0; i + 1 < arrivals.size(); ++i) {
    const std::size_t j = i + rng.below(std::min<std::uint64_t>(8, arrivals.size() - i));
    std::swap(arrivals[i], arrivals[j]);
  }

  for (const auto& [seq, receiver] : arrivals) {
    service.ingest(make_report({9, 3}, seq, receiver));
  }
  EXPECT_EQ(delivered, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(service.stats().duplicates_dropped, arrivals.size() - kMessages);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilteringProperty, ::testing::Values(3u, 7u, 31u, 127u, 8191u));

// Reference seen-set: the per-stream dedup rules written out over a
// std::set of raw sequences, pruned on every advance. The service's
// bitmap window must agree with it copy for copy, counter for counter
// and byte for byte in capture_state().
struct ReferenceStream {
  bool started = false;
  SequenceNo newest = 0;
  SequenceNo next_release = 0;
  std::uint64_t accepted = 0;
  std::uint64_t total_advance = 0;
  std::set<SequenceNo> seen;
};

struct ReferenceFilter {
  enum class Verdict { kForward, kDuplicate, kStale };

  explicit ReferenceFilter(std::uint16_t w, bool note_seen_rules = false)
      : window(w), replay(note_seen_rules) {}

  std::uint16_t window;
  bool replay;  ///< note_seen() rules for the release cursor.
  std::map<std::uint32_t, ReferenceStream> streams;

  Verdict offer(StreamId id, SequenceNo seq) {
    ReferenceStream& s = streams[id.packed()];
    if (!s.started) {
      s.started = true;
      s.newest = seq;
      s.next_release = replay ? static_cast<SequenceNo>(seq + 1) : seq;
      s.seen = {seq};
      s.accepted = 1;
      return Verdict::kForward;
    }
    if (s.seen.contains(seq)) return Verdict::kDuplicate;
    const auto ahead = static_cast<std::uint16_t>(seq - s.newest);
    const auto behind = static_cast<std::uint16_t>(s.newest - seq);
    if (ahead != 0 && ahead < 0x8000) {
      s.total_advance += ahead;
      s.newest = seq;
      if (replay) s.next_release = static_cast<SequenceNo>(seq + 1);
      std::erase_if(s.seen, [&](SequenceNo old) {
        return static_cast<std::uint16_t>(s.newest - old) > window;
      });
    } else if (behind > window) {
      return Verdict::kStale;
    }
    s.seen.insert(seq);
    ++s.accepted;
    return Verdict::kForward;
  }

  [[nodiscard]] util::Bytes encode() const {
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(streams.size()));
    for (const auto& [packed, s] : streams) {
      w.u32(packed);
      w.u8(s.started ? 1 : 0);
      w.u16(s.newest);
      w.u16(s.next_release);
      w.u64(s.accepted);
      w.u64(s.total_advance);
      w.u16(static_cast<std::uint16_t>(s.seen.size()));
      for (const SequenceNo seq : s.seen) w.u16(seq);
    }
    return std::move(w).take();
  }

  [[nodiscard]] std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, SequenceNo>>
  reports() const {
    std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, SequenceNo>> out;
    for (const auto& [packed, s] : streams) {
      out.emplace_back(packed, s.accepted, s.total_advance + 1 - s.accepted, s.newest);
    }
    return out;
  }
};

std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, SequenceNo>> sorted_reports(
    const FilteringService& service) {
  std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, SequenceNo>> out;
  for (const auto& r : service.stream_reports()) {
    out.emplace_back(r.id.packed(), r.accepted, r.estimated_lost, r.newest);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One seeded copy stream: in-order traffic, repeated copies, late and
/// stale copies, jumps past the window and arbitrary sequences, over
/// three streams that start just short of the 65535 -> 0 wrap.
std::vector<std::pair<StreamId, SequenceNo>> random_copies(util::Rng& rng, std::uint16_t window,
                                                           std::size_t count) {
  const std::array<StreamId, 3> ids{StreamId{5, 0}, StreamId{5, 1}, StreamId{900, 0}};
  std::array<SequenceNo, 3> head{65500, 65530, 100};
  std::vector<std::pair<StreamId, SequenceNo>> copies;
  const std::uint32_t span = std::uint32_t{window} + 1;
  while (copies.size() < count) {
    const std::size_t i = rng.below(ids.size());
    SequenceNo& h = head[i];
    const std::uint64_t roll = rng.below(100);
    SequenceNo seq;
    if (roll < 45) {
      seq = ++h;  // in order
    } else if (roll < 65) {
      seq = static_cast<SequenceNo>(h - rng.below(4));  // repeated copy of a recent one
    } else if (roll < 80) {
      seq = static_cast<SequenceNo>(h - rng.below(span + span / 2 + 2));  // late, maybe stale
    } else if (roll < 88) {
      h = static_cast<SequenceNo>(h + 2 + rng.below(std::min<std::uint32_t>(span, 300)));
      seq = h;  // gap inside the window
    } else if (roll < 94) {
      h = static_cast<SequenceNo>(h + std::min<std::uint32_t>(span + rng.below(span), 0x7FFF));
      seq = h;  // jump past the window
    } else {
      seq = static_cast<SequenceNo>(rng.below(0x10000));  // anywhere at all
    }
    copies.emplace_back(ids[i], seq);
  }
  return copies;
}

struct SeenSetModel : ::testing::TestWithParam<std::tuple<std::uint16_t, std::uint64_t>> {};

TEST_P(SeenSetModel, BitmapWindowMatchesTheReferenceSet) {
  const auto [window, seed] = GetParam();
  util::Rng rng(seed);
  sim::Scheduler scheduler;
  FilteringService::Config config;
  config.dedup_window = window;
  FilteringService service(scheduler, config);
  FilteringService replayed(scheduler, config);  // fed the same copies via note_seen()
  std::vector<SequenceNo> forwarded;
  service.set_message_sink([&](const DataMessage& m, SimTime) { forwarded.push_back(m.sequence); });

  ReferenceFilter model(window);
  ReferenceFilter replay_model(window, /*note_seen_rules=*/true);
  std::vector<SequenceNo> expected;
  std::uint64_t duplicates = 0;
  std::uint64_t stale = 0;

  const auto copies = random_copies(rng, window, 6000);
  for (std::size_t n = 0; n < copies.size(); ++n) {
    const auto [id, seq] = copies[n];
    switch (model.offer(id, seq)) {
      case ReferenceFilter::Verdict::kForward:
        expected.push_back(seq);
        break;
      case ReferenceFilter::Verdict::kDuplicate:
        ++duplicates;
        break;
      case ReferenceFilter::Verdict::kStale:
        ++stale;
        break;
    }
    replay_model.offer(id, seq);
    service.ingest(make_report(id, seq));
    replayed.note_seen(id, seq);

    if (n % 100 == 99 || n + 1 == copies.size()) {
      ASSERT_EQ(forwarded, expected) << "copy " << n;
      ASSERT_EQ(service.stats().duplicates_dropped, duplicates) << "copy " << n;
      ASSERT_EQ(service.stats().stale_dropped, stale) << "copy " << n;
      ASSERT_EQ(sorted_reports(service), model.reports()) << "copy " << n;
      ASSERT_EQ(service.capture_state(), model.encode()) << "copy " << n;
      ASSERT_EQ(replayed.capture_state(), replay_model.encode()) << "copy " << n;
    }
  }
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(stale, 0u);

  // A restored window is the same window.
  FilteringService restored(scheduler, config);
  ASSERT_TRUE(restored.restore_state(service.capture_state()).ok());
  EXPECT_EQ(restored.capture_state(), model.encode());
}

INSTANTIATE_TEST_SUITE_P(WindowsAndSeeds, SeenSetModel,
                         ::testing::Combine(::testing::Values<std::uint16_t>(8, 16, 1024, 32767),
                                            ::testing::Values<std::uint64_t>(1, 29, 4099)));

TEST_F(FilteringFixture, LongLivedStreamKeepsItsWindowWithinTheWindowSize) {
  // 5000 sequences, three copies each: the seen bitmap saturates at the
  // window and stays there instead of growing with the stream's age.
  Harness h(scheduler, {});
  Harness fresh(scheduler, {});
  fresh.service.ingest(make_report({1, 0}, 0));
  const std::size_t baseline = fresh.service.memory_bytes();
  const std::size_t bound = (h.service.config().dedup_window + 1) / 8 + sizeof(std::uint64_t);

  std::size_t peak = 0;
  for (SequenceNo seq = 0; seq < 5000; ++seq) {
    for (wireless::ReceiverId receiver = 1; receiver <= 3; ++receiver) {
      h.service.ingest(make_report({1, 0}, seq, receiver));
    }
    peak = std::max(peak, h.service.memory_bytes() - baseline);
  }
  EXPECT_EQ(h.out.size(), 5000u);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 10000u);
  EXPECT_LE(peak, bound);
  // memory_bytes() counts the window's heap: a full window is not free.
  EXPECT_GT(h.service.memory_bytes(), baseline);

  // A jump past the whole window leaves a one-sequence set: back inline.
  h.service.ingest(make_report({1, 0}, 5000 + 2000));
  EXPECT_EQ(h.service.memory_bytes(), baseline);
}

TEST_F(FilteringFixture, NarrowSpanStreamsUseNoHeap) {
  FilteringService::Config config;
  config.dedup_window = 1024;
  Harness h(scheduler, config);
  Harness fresh(scheduler, config);
  fresh.service.ingest(make_report({1, 0}, 0));
  // Sequences spanning 64 slots (0..63) fit the inline word.
  for (SequenceNo seq = 0; seq < 64; ++seq) h.service.ingest(make_report({1, 0}, seq));
  EXPECT_EQ(h.service.memory_bytes(), fresh.service.memory_bytes());
  // The 65th slot does not.
  h.service.ingest(make_report({1, 0}, 64));
  EXPECT_GT(h.service.memory_bytes(), fresh.service.memory_bytes());
}

TEST_F(FilteringFixture, RestoreDropsSequencesOutsideTheWindow) {
  // A frame can only carry out-of-window sequences if a wider-window
  // peer or damage wrote it. They are dropped at restore, exactly as a
  // live window prunes them, so a late copy of one is stale, not a
  // duplicate. Never-started streams keep no seen list at all.
  ReferenceFilter wide(4000);
  for (const SequenceNo seq : {3000, 4990, 5000}) wide.offer({1, 0}, static_cast<SequenceNo>(seq));
  ReferenceStream& unstarted = wide.streams[StreamId{2, 0}.packed()];
  unstarted.seen = {7, 8};

  Harness h(scheduler, {});  // dedup_window 1024
  ASSERT_TRUE(h.service.restore_state(wide.encode()).ok());

  ReferenceFilter narrow = wide;
  narrow.streams[StreamId{1, 0}.packed()].seen = {4990, 5000};
  narrow.streams[StreamId{2, 0}.packed()].seen.clear();
  EXPECT_EQ(h.service.capture_state(), narrow.encode());

  h.service.ingest(make_report({1, 0}, 3000));
  h.service.ingest(make_report({1, 0}, 4990));
  EXPECT_EQ(h.service.stats().stale_dropped, 1u);
  EXPECT_EQ(h.service.stats().duplicates_dropped, 1u);
  EXPECT_TRUE(h.out.empty());
}

TEST(SeenWindow, SpanSizedStorage) {
  constexpr std::uint16_t kWindow = 1024;
  SeenWindow window;
  window.set(0, kWindow);
  window.set(63, kWindow);
  EXPECT_EQ(window.heap_bytes(), 0u);
  window.set(64, kWindow);
  EXPECT_GT(window.heap_bytes(), 0u);
  window.set(kWindow, kWindow);
  EXPECT_EQ(window.heap_bytes(), (kWindow + 64) / 64 * sizeof(std::uint64_t));
  EXPECT_EQ(window.count(), 4u);

  // Advancing by 10 drops distance 1024 (now 1034) and 63 -> 73 stays.
  window.advance(10, kWindow);
  EXPECT_TRUE(window.test(0));
  EXPECT_TRUE(window.test(10));
  EXPECT_TRUE(window.test(73));
  EXPECT_TRUE(window.test(74));
  EXPECT_FALSE(window.test(kWindow));
  EXPECT_EQ(window.count(), 4u);

  // Once everything past distance 63 has left the window, the heap goes.
  SeenWindow gapped;
  gapped.set(0, kWindow);
  gapped.set(1000, kWindow);
  EXPECT_GT(gapped.heap_bytes(), 0u);
  gapped.advance(30, kWindow);  // 1000 -> 1030 leaves; 0 -> 30 stays
  EXPECT_EQ(gapped.heap_bytes(), 0u);
  EXPECT_TRUE(gapped.test(0));
  EXPECT_TRUE(gapped.test(30));
  EXPECT_EQ(gapped.count(), 2u);
}

TEST(SeenWindow, DescendingVisitAndMoves) {
  SeenWindow window;
  for (const std::uint32_t d : {0u, 5u, 64u, 200u, 1024u}) window.set(d, 1024);
  std::vector<std::uint32_t> visited;
  window.for_each_descending(5, 200, [&](std::uint32_t d) { visited.push_back(d); });
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{200, 64, 5}));

  SeenWindow moved = std::move(window);
  EXPECT_EQ(moved.count(), 5u);
  EXPECT_TRUE(moved.test(1024));
  EXPECT_EQ(window.count(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
  moved = SeenWindow{};
  EXPECT_EQ(moved.heap_bytes(), 0u);
}

}  // namespace
}  // namespace garnet::core
