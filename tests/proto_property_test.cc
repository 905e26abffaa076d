// Property tests for the reliable delivery protocol: across a parameter grid of
// loss/duplication/jitter, and mixtures of message sizes, every subscriber sees every
// message exactly once, in per-sender order (paper §3.1 semantics). Degradation cases
// (retention overflow, long partitions) must surface as explicit gaps — never as
// silent duplicates or reordering.
#include <gtest/gtest.h>

#include "tests/bus_fixture.h"

namespace ibus {
namespace {

struct FaultCase {
  double drop;
  double dup;
  SimTime jitter_us;
  bool batching;
};

class ReliableUnderFaultsTest : public BusFixture,
                                public ::testing::WithParamInterface<FaultCase> {};

TEST_P(ReliableUnderFaultsTest, ExactlyOnceInOrder) {
  const FaultCase& fc = GetParam();
  BusConfig cfg;
  cfg.reliable.batching_enabled = fc.batching;
  SetUpBus(3, cfg);

  auto pub = MakeClient(0, "pub");
  auto sub1 = MakeClient(1, "sub1");
  auto sub2 = MakeClient(2, "sub2");
  std::vector<int> got1, got2;
  ASSERT_TRUE(sub1->Subscribe("prop.stream", [&](const Message& m) {
                    got1.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  ASSERT_TRUE(sub2->Subscribe("prop.stream", [&](const Message& m) {
                    got2.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);

  // Latch every receiver onto the stream fault-free first: the exactly-once
  // guarantee is steady-state; where a lossy stream START pins a late joiner is
  // inherently fuzzy ("new subscribers receive new objects", §3.1).
  ASSERT_TRUE(pub->Publish("prop.stream", ToBytes("-1")).ok());
  Settle();
  ASSERT_EQ(got1.size(), 1u);
  ASSERT_EQ(got2.size(), 1u);
  got1.clear();
  got2.clear();

  FaultPlan plan;
  plan.drop_prob = fc.drop;
  plan.dup_prob = fc.dup;
  plan.jitter_us = fc.jitter_us;
  net_->SetFaultPlan(seg_, plan);

  constexpr int kMessages = 120;
  Rng rng(99);
  for (int i = 0; i < kMessages; ++i) {
    // Mix small and fragmented messages.
    size_t size = rng.Chance(0.2) ? 4000 + rng.NextBelow(4000) : 8 + rng.NextBelow(200);
    Bytes payload = ToBytes(std::to_string(i));
    payload.resize(std::max(payload.size(), size), '.');
    // Keep the numeric prefix parseable.
    ASSERT_TRUE(pub->Publish("prop.stream", payload).ok());
    if (i % 10 == 0) {
      Settle(20 * kMillisecond);
    }
  }
  Settle(30 * kSecond);

  for (const std::vector<int>* got : {&got1, &got2}) {
    ASSERT_EQ(got->size(), static_cast<size_t>(kMessages))
        << "drop=" << fc.drop << " dup=" << fc.dup << " jitter=" << fc.jitter_us;
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ((*got)[static_cast<size_t>(i)], i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultGrid, ReliableUnderFaultsTest,
    ::testing::Values(FaultCase{0.0, 0.0, 0, false}, FaultCase{0.1, 0.0, 0, false},
                      FaultCase{0.3, 0.0, 0, false}, FaultCase{0.0, 0.3, 0, false},
                      FaultCase{0.0, 0.0, 2000, false}, FaultCase{0.15, 0.15, 1000, false},
                      FaultCase{0.1, 0.0, 0, true}, FaultCase{0.2, 0.2, 1500, true}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      const FaultCase& c = info.param;
      return "drop" + std::to_string(static_cast<int>(c.drop * 100)) + "_dup" +
             std::to_string(static_cast<int>(c.dup * 100)) + "_jit" +
             std::to_string(c.jitter_us) + (c.batching ? "_batch" : "_nobatch");
    });

class ProtoDegradationTest : public BusFixture {};

TEST_F(ProtoDegradationTest, RetentionOverflowSurfacesAsGapNotDuplicates) {
  BusConfig cfg;
  cfg.reliable.retain_messages = 16;  // tiny retransmit buffer
  SetUpBus(2, cfg);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<int> got;
  ASSERT_TRUE(sub->Subscribe("gap.stream", [&](const Message& m) {
                    got.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);

  // Latch the stream first so the receiver knows what it later misses.
  ASSERT_TRUE(pub->Publish("gap.stream", ToBytes("-1")).ok());
  Settle();
  ASSERT_EQ(got.size(), 1u);
  got.clear();

  // Partition the subscriber, publish far beyond the retention window, then heal.
  net_->SetPartitionGroups({{hosts_[1], 1}});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pub->Publish("gap.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle(3 * kSecond);
  EXPECT_TRUE(got.empty());
  net_->SetPartitionGroups({});
  for (int i = 100; i < 110; ++i) {
    ASSERT_TRUE(pub->Publish("gap.stream", ToBytes(std::to_string(i))).ok());
    Settle(100 * kMillisecond);
  }
  Settle(10 * kSecond);

  // At-most-once degradation: some prefix was lost for good, but whatever was
  // delivered is duplicate-free and strictly increasing, and the tail arrives.
  ASSERT_FALSE(got.empty());
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1], got[i]);
  }
  EXPECT_EQ(got.back(), 109);
  EXPECT_GT(daemons_[1]->receiver_stats().gaps, 0u);
}

TEST_F(ProtoDegradationTest, ShortPartitionFullyRecovers) {
  SetUpBus(2);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<int> got;
  ASSERT_TRUE(sub->Subscribe("heal.stream", [&](const Message& m) {
                    got.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pub->Publish("heal.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle();
  net_->SetPartitionGroups({{hosts_[1], 1}});
  for (int i = 10; i < 30; ++i) {  // well within the retention window
    ASSERT_TRUE(pub->Publish("heal.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle(200 * kMillisecond);
  net_->SetPartitionGroups({});
  for (int i = 30; i < 40; ++i) {
    ASSERT_TRUE(pub->Publish("heal.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle(10 * kSecond);

  // Everything missed during the partition is NAK-recovered: exactly once, in order.
  ASSERT_EQ(got.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i);
  }
}

TEST_F(ProtoDegradationTest, TailLossRecoveredViaHeartbeat) {
  SetUpBus(2);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<int> got;
  ASSERT_TRUE(sub->Subscribe("tail.stream", [&](const Message& m) {
                    got.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);
  ASSERT_TRUE(pub->Publish("tail.stream", ToBytes("0")).ok());
  Settle();
  ASSERT_EQ(got.size(), 1u);

  // Drop everything briefly: the last message of a burst vanishes with no successor
  // to reveal the gap — only the heartbeat can.
  FaultPlan lossy;
  lossy.drop_prob = 1.0;
  net_->SetFaultPlan(seg_, lossy);
  ASSERT_TRUE(pub->Publish("tail.stream", ToBytes("1")).ok());
  Settle(30 * kMillisecond);
  net_->SetFaultPlan(seg_, FaultPlan{});
  Settle(10 * kSecond);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], 1);
}

TEST_F(ProtoDegradationTest, ManyPublishersDoNotInterfere) {
  SetUpBus(6);
  FaultPlan plan;
  plan.drop_prob = 0.1;
  net_->SetFaultPlan(seg_, plan);
  std::vector<std::unique_ptr<BusClient>> pubs;
  for (int i = 0; i < 5; ++i) {
    pubs.push_back(MakeClient(i, "pub" + std::to_string(i)));
  }
  auto sub = MakeClient(5, "sub");
  // Per-sender order must hold independently; cross-sender order is unspecified.
  std::map<std::string, std::vector<int>> got;
  ASSERT_TRUE(sub->Subscribe("multi.>", [&](const Message& m) {
                    got[m.sender].push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);
  for (int round = 0; round < 40; ++round) {
    for (int p = 0; p < 5; ++p) {
      ASSERT_TRUE(pubs[static_cast<size_t>(p)]
                      ->Publish("multi.p" + std::to_string(p), ToBytes(std::to_string(round)))
                      .ok());
    }
  }
  Settle(20 * kSecond);
  ASSERT_EQ(got.size(), 5u);
  for (const auto& [sender, seq] : got) {
    ASSERT_EQ(seq.size(), 40u) << sender;
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(seq[static_cast<size_t>(i)], i) << sender;
    }
  }
}

// Batching on the paper's testbed: one publisher and 14 consumers on a LAN whose
// hosts pay 4.3 ms of protocol-stack time per frame (the SunOS send path).
class ProtoBatchingTest : public BusFixture {
 protected:
  static constexpr int kConsumers = 14;

  void SetUpPaperLan() {
    BusConfig cfg;
    cfg.reliable.batching_enabled = true;
    cfg.announce_subscriptions = false;
    SegmentConfig lan;
    lan.host_cpu_us_per_frame = 4300;
    SetUpBus(kConsumers + 1, cfg, lan);
    pub_ = MakeClient(0, "pub");
    got_.resize(kConsumers);
    for (int c = 0; c < kConsumers; ++c) {
      subs_.push_back(MakeClient(c + 1, "sub" + std::to_string(c)));
      std::vector<int>* got = &got_[static_cast<size_t>(c)];
      ASSERT_TRUE(subs_.back()->Subscribe("lan.fanout", [got](const Message& m) {
                        got->push_back(std::stoi(ToString(m.payload)));
                      }).ok());
    }
    Settle(200 * kMillisecond);
  }

  // Publishes 64-byte messages "0", "1", ... at `rate` per second, each at a seeded
  // uniform offset within its 1/rate slot (strictly periodic arrivals would
  // phase-lock with the 100 ms heartbeat).
  void PublishOpenLoop(int count, int rate) {
    const SimTime slot = kSecond / rate;
    const SimTime start = sim_.Now();
    Rng rng(7);
    for (int i = 0; i < count; ++i) {
      sim_.RunUntil(start + i * slot + static_cast<SimTime>(rng.NextBelow(slot)));
      Bytes payload = ToBytes(std::to_string(i));
      payload.resize(64, '.');
      ASSERT_TRUE(pub_->Publish("lan.fanout", payload).ok());
    }
  }

  void ExpectExactlyOnceInOrder(int count) {
    for (const std::vector<int>& got : got_) {
      ASSERT_EQ(got.size(), static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], i);
      }
    }
  }

  std::unique_ptr<BusClient> pub_;
  std::vector<std::unique_ptr<BusClient>> subs_;
  std::vector<std::vector<int>> got_;
};

TEST_F(ProtoBatchingTest, HeartbeatsNeverAdvertiseUnsentBatches) {
  SetUpPaperLan();
  PublishOpenLoop(100, 50);  // 50 msgs/s for 2 sim-seconds
  Settle();
  ExpectExactlyOnceInOrder(100);
  // Loss-free medium: any NAK means a heartbeat advertised a sequence that was still
  // sitting in the sender's batch.
  uint64_t naks = 0, retransmits = 0, duplicates = 0;
  for (const auto& d : daemons_) {
    naks += d->receiver_stats().naks_sent;
    duplicates += d->receiver_stats().duplicates_dropped;
    retransmits += d->sender_stats().retransmits;
  }
  EXPECT_EQ(naks, 0u);
  EXPECT_EQ(retransmits, 0u);
  EXPECT_EQ(duplicates, 0u);
}

TEST_F(ProtoBatchingTest, BusyMediumGrowsBatchesAndStaysExactlyOnce) {
  SetUpPaperLan();
  // Latch every receiver onto the stream fault-free first (see ExactlyOnceInOrder).
  ASSERT_TRUE(pub_->Publish("lan.fanout", ToBytes("-1")).ok());
  Settle();
  for (std::vector<int>& got : got_) {
    ASSERT_EQ(got.size(), 1u);
    got.clear();
  }
  FaultPlan lossy;
  lossy.drop_prob = 0.01;
  net_->SetFaultPlan(seg_, lossy);
  const ReliableSenderStats before = daemons_[0]->sender_stats();
  PublishOpenLoop(600, 600);  // 600 msgs/s offered: above one frame per message
  Settle(10 * kSecond);
  ExpectExactlyOnceInOrder(600);
  const ReliableSenderStats after = daemons_[0]->sender_stats();
  const uint64_t published = after.published - before.published;
  const uint64_t batches = after.batches_sent - before.batches_sent;
  EXPECT_EQ(published, 600u);
  EXPECT_GT(batches, 0u);
  EXPECT_LT(batches * 4, published);  // several messages ride each frame
}

// Records when host `src` handed each transmission to the medium.
struct SendTimeTap : NetworkTap {
  void OnFrame(const CapturedFrame& f) override {
    if (f.src_host == src && (sent_at.empty() || f.tx_id != last_tx)) {
      sent_at.push_back(f.sent_at);
      last_tx = f.tx_id;
    }
  }
  HostId src = kNoHost;
  uint64_t last_tx = 0;
  std::vector<SimTime> sent_at;
};

// A bare ReliableSender on a paper-testbed LAN; its frames go to a port nobody binds,
// so only the tap observes them.
class BatchFlushTimingTest : public ::testing::Test {
 protected:
  static constexpr Port kBusPort = 7000;

  BatchFlushTimingTest() : net_(&sim_) {
    SegmentConfig lan;
    lan.host_cpu_us_per_frame = 4300;
    SegmentId seg = net_.AddSegment(lan);
    sender_host_ = net_.AddHost("sender", seg);
    other_host_ = net_.AddHost("other", seg);
    tap_.src = sender_host_;
    net_.AttachTap(&tap_);
    socket_ = net_.OpenSocket(sender_host_, kBusPort, nullptr).take();
    config_.batching_enabled = true;
    config_.heartbeat_interval_us = 10 * kSecond;  // keep heartbeat frames out of view
    sender_ = std::make_unique<ReliableSender>(&sim_, socket_.get(), kBusPort, 1, config_);
  }

  Simulator sim_;
  Network net_;
  SendTimeTap tap_;
  HostId sender_host_ = 0;
  HostId other_host_ = 0;
  ReliableConfig config_;
  std::unique_ptr<UdpSocket> socket_;
  std::unique_ptr<ReliableSender> sender_;
};

TEST_F(BatchFlushTimingTest, IdleMediumFlushesExactlyAtBatchDelay) {
  sim_.RunFor(1000);
  const SimTime published_at = sim_.Now();
  ASSERT_TRUE(sender_->Publish(Bytes(64)).ok());
  sim_.RunFor(50 * kMillisecond);
  ASSERT_EQ(tap_.sent_at.size(), 1u);
  EXPECT_EQ(tap_.sent_at[0], published_at + config_.batch_delay_us);
}

TEST_F(BatchFlushTimingTest, BusyMediumDefersFlushAtMostByTheBacklog) {
  // Another host keeps the shared medium busy: a 1000-byte broadcast every 2 ms
  // occupies it ~5.1 ms each, so the backlog only grows.
  auto other = net_.OpenSocket(other_host_, 0, nullptr);
  for (SimTime t = 500; t < 60 * kMillisecond; t += 2 * kMillisecond) {
    sim_.ScheduleAt(t, [&other]() { ASSERT_TRUE((*other)->Broadcast(9, Bytes(1000)).ok()); });
  }
  const SimTime published_at = 10 * kMillisecond;
  const SimTime deadline = published_at + config_.batch_delay_us;
  SimTime backlog_at_deadline = -1;
  // Scheduled before the publish arms the batch timer, so it runs first at the deadline.
  sim_.ScheduleAt(deadline, [&]() { backlog_at_deadline = socket_->BacklogUs(); });
  sim_.RunUntil(published_at);
  ASSERT_TRUE(sender_->Publish(Bytes(64)).ok());
  sim_.RunFor(config_.batch_delay_us + 1);
  ASSERT_GT(backlog_at_deadline, 0);
  // A message arriving while the flush is deferred rides the same frame.
  ASSERT_TRUE(sender_->Publish(Bytes(64)).ok());
  sim_.RunFor(300 * kMillisecond);  // the junk backlog drains; every frame lands

  ASSERT_EQ(tap_.sent_at.size(), 1u);
  EXPECT_GE(tap_.sent_at[0], deadline);
  EXPECT_LE(tap_.sent_at[0], deadline + backlog_at_deadline);
  EXPECT_EQ(sender_->stats().batches_sent, 1u);
}

}  // namespace
}  // namespace ibus
