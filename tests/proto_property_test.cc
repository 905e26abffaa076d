// Property tests for the reliable delivery protocol: across a parameter grid of
// loss/duplication/jitter, and mixtures of message sizes, every subscriber sees every
// message exactly once, in per-sender order (paper §3.1 semantics). Degradation cases
// (retention overflow, long partitions) must surface as explicit gaps — never as
// silent duplicates or reordering.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/proto/packets.h"
#include "src/proto/reliable.h"
#include "src/wire/wire.h"
#include "tests/bus_fixture.h"

namespace ibus {
namespace {

struct FaultCase {
  double drop;
  double dup;
  SimTime jitter_us;
  bool batching;
  // Every message spans 4-6 fragments, so most losses leave a partial reassembly
  // whose missing fragments the NAK must name and the sender repair one by one.
  bool large = false;
};

// Records every NAK frame on the segment: how many there were, and how many of their
// entries named fragments rather than a whole message.
struct NakTap : NetworkTap {
  void OnFrame(const CapturedFrame& f) override {
    auto frame = ParseFrame(f.payload);
    if (f.duplicate || !frame.ok() || frame->frame_type != kPktNak) {
      return;
    }
    auto nak = NakPacket::Unmarshal(frame->payload);
    ASSERT_TRUE(nak.ok()) << nak.status().ToString();
    ++naks;
    for (const NakEntry& e : nak->missing) {
      fragment_entries += e.frags.empty() ? 0 : 1;
    }
  }
  uint64_t naks = 0;
  uint64_t fragment_entries = 0;
};


class ReliableUnderFaultsTest : public BusFixture,
                                public ::testing::WithParamInterface<FaultCase> {};

TEST_P(ReliableUnderFaultsTest, ExactlyOnceInOrder) {
  const FaultCase& fc = GetParam();
  BusConfig cfg;
  cfg.reliable.batching_enabled = fc.batching;
  SetUpBus(3, cfg);
  NakTap tap;
  net_->AttachTap(&tap);

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
    const size_t chunk = cfg.reliable.chunk_size;
    size_t size = fc.large         ? 3 * chunk + 1 + rng.NextBelow(2 * chunk)
                  : rng.Chance(0.2) ? 4000 + rng.NextBelow(4000)
                                    : 8 + rng.NextBelow(200);
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
  for (const auto& d : daemons_) {
    EXPECT_EQ(d->receiver_stats().gaps, 0u);
  }
  if (fc.large && fc.drop > 0) {
    // A lost fragment that is never repaired leaves its message undelivered (or
    // abandoned as a gap once the sender goes quiet): the checks above catch it.
    EXPECT_GT(tap.fragment_entries, 0u) << "no NAK named a fragment (naks=" << tap.naks << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultGrid, ReliableUnderFaultsTest,
    ::testing::Values(FaultCase{0.0, 0.0, 0, false}, FaultCase{0.1, 0.0, 0, false},
                      FaultCase{0.3, 0.0, 0, false}, FaultCase{0.0, 0.3, 0, false},
                      FaultCase{0.0, 0.0, 2000, false}, FaultCase{0.15, 0.15, 1000, false},
                      FaultCase{0.1, 0.0, 0, true}, FaultCase{0.2, 0.2, 1500, true},
                      FaultCase{0.1, 0.0, 0, false, true},
                      FaultCase{0.1, 0.1, 1500, false, true},
                      FaultCase{0.2, 0.2, 1500, false, true}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      const FaultCase& c = info.param;
      return "drop" + std::to_string(static_cast<int>(c.drop * 100)) + "_dup" +
             std::to_string(static_cast<int>(c.dup * 100)) + "_jit" +
             std::to_string(c.jitter_us) + (c.batching ? "_batch" : "_nobatch") +
             (c.large ? "_large" : "");
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

// Records the DATA fragments host `src` puts on the medium, one entry per transmission.
struct FragmentTap : NetworkTap {
  void OnFrame(const CapturedFrame& f) override {
    if (f.src_host != src || f.tx_id == last_tx) {
      return;
    }
    last_tx = f.tx_id;
    auto frame = ParseFrame(f.payload);
    if (frame.ok() && frame->frame_type == kPktData) {
      auto pkt = DataPacket::Unmarshal(frame->payload);
      ASSERT_TRUE(pkt.ok());
      sent.emplace_back(pkt->seq, pkt->frag_index);
    }
  }
  HostId src = kNoHost;
  uint64_t last_tx = 0;
  std::vector<std::pair<uint64_t, uint16_t>> sent;  // (seq, fragment) per transmission
};

// A bare sender and two receivers on a paper-testbed LAN (4.3 ms per frame), wired
// through their bus sockets as the daemon wires them. Receiver 0 loses the DATA
// fragments listed in `lose_`, each on its first arrival only.
class FragmentRepairTest : public ::testing::Test {
 protected:
  static constexpr Port kBusPort = 7000;
  static constexpr uint64_t kStream = 1;
  static constexpr size_t kFrags = 5;

  FragmentRepairTest() : net_(&sim_) {
    SegmentConfig lan;
    lan.host_cpu_us_per_frame = 4300;
    SegmentId seg = net_.AddSegment(lan);
    HostId sender_host = net_.AddHost("sender", seg);
    tap_.src = sender_host;
    net_.AttachTap(&tap_);
    sender_socket_ = net_.OpenSocket(sender_host, kBusPort, [this](const Datagram& d) {
                           auto frame = ParseFrame(d.payload);
                           if (frame.ok() && frame->frame_type == kPktNak) {
                             auto nak = NakPacket::Unmarshal(frame->payload);
                             ASSERT_TRUE(nak.ok());
                             sender_->HandleNak(*nak, d.src_host, d.src_port);
                           }
                         }).take();
    sender_ = std::make_unique<ReliableSender>(&sim_, sender_socket_.get(), kBusPort,
                                               kStream, config_);
    for (size_t i = 0; i < 2; ++i) {
      HostId host = net_.AddHost("receiver" + std::to_string(i), seg);
      auto handler = [this, i](const Datagram& d) {
        auto frame = ParseFrame(d.payload);
        if (!frame.ok()) {
          return;
        }
        if (frame->frame_type == kPktData) {
          auto pkt = DataPacket::Unmarshal(frame->payload);
          if (pkt.ok() && !(i == 0 && lose_.erase(pkt->frag_index) > 0)) {
            receivers_[i]->HandleData(*pkt, d.src_host, d.src_port);
          }
        } else if (frame->frame_type == kPktHeartbeat) {
          auto pkt = HeartbeatPacket::Unmarshal(frame->payload);
          if (pkt.ok()) {
            receivers_[i]->HandleHeartbeat(*pkt, d.src_host, d.src_port);
          }
        }
      };
      receiver_sockets_[i] = net_.OpenSocket(host, kBusPort, handler).take();
      receivers_[i] = std::make_unique<ReliableReceiver>(
          &sim_, receiver_sockets_[i].get(), config_,
          [this, i](uint64_t, const Bytes& m) { delivered_[i].push_back(m); });
    }
  }

  // A message of `frags` fragments (the last one partly filled) with recognisable
  // content.
  Bytes MessageOf(size_t frags) const {
    Bytes m((frags - 1) * config_.chunk_size + 100);
    for (size_t i = 0; i < m.size(); ++i) {
      m[i] = static_cast<uint8_t>(i * 7);
    }
    return m;
  }

  // Latches both receivers onto the stream with one loss-free message.
  void WarmUp() {
    ASSERT_TRUE(sender_->Publish(Bytes(16, 1)).ok());
    sim_.RunFor(200 * kMillisecond);
    ASSERT_EQ(delivered_[0].size(), 1u);
    ASSERT_EQ(delivered_[1].size(), 1u);
  }

  // Publishes `m` and returns its sequence number.
  uint64_t PublishAndGetSeq(const Bytes& m) {
    EXPECT_TRUE(sender_->Publish(m).ok());
    return sender_->next_seq() - 1;
  }

  static NakPacket Nak(uint64_t seq, std::vector<uint16_t> frags) {
    NakPacket nak;
    nak.stream_id = kStream;
    nak.missing.push_back({seq, std::move(frags)});
    return nak;
  }

  Simulator sim_;
  Network net_;
  FragmentTap tap_;
  ReliableConfig config_;
  std::unique_ptr<UdpSocket> sender_socket_;
  std::unique_ptr<ReliableSender> sender_;
  std::unique_ptr<UdpSocket> receiver_sockets_[2];
  std::unique_ptr<ReliableReceiver> receivers_[2];
  std::vector<Bytes> delivered_[2];
  std::set<uint16_t> lose_;
};

TEST_F(FragmentRepairTest, OneLostFragmentCostsOneRepairPacket) {
  WarmUp();
  const Bytes message = MessageOf(kFrags);
  lose_ = {2};
  const ReliableSenderStats before = sender_->stats();
  const size_t sent_before = tap_.sent.size();
  const uint64_t seq = PublishAndGetSeq(message);
  sim_.RunFor(2 * kSecond);

  for (const std::vector<Bytes>& got : delivered_) {
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1], message);
  }
  EXPECT_TRUE(lose_.empty());
  const ReliableSenderStats after = sender_->stats();
  EXPECT_EQ(after.packets_sent - before.packets_sent, kFrags + 1);
  EXPECT_EQ(after.retransmits - before.retransmits, 1u);
  EXPECT_EQ(after.naks_received - before.naks_received, 1u);
  ASSERT_EQ(tap_.sent.size() - sent_before, kFrags + 1);
  EXPECT_EQ(tap_.sent.back(), std::make_pair(seq, uint16_t{2}));
}

TEST_F(FragmentRepairTest, LongLossListsAreSplitAcrossDatagramSizedNaks) {
  WarmUp();
  // Receiver 0 hears every tenth fragment (so the sender never looks silent) and
  // misses 899: listing them all would take ~1.8 KB, more than one datagram carries.
  constexpr uint16_t kBig = 1000;
  const Bytes message = MessageOf(kBig);
  for (uint16_t i = 0; i < kBig; ++i) {
    if (i % 10 != 0) {
      lose_.insert(i);
    }
  }
  const ReliableSenderStats before = sender_->stats();
  PublishAndGetSeq(message);
  sim_.RunFor(30 * kSecond);

  for (const std::vector<Bytes>& got : delivered_) {
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1], message);
  }
  EXPECT_EQ(receivers_[0]->stats().gaps, 0u);
  EXPECT_EQ(net_.stats().frames_dropped_mtu, 0u);
  EXPECT_GT(sender_->stats().naks_received - before.naks_received, 1u);
}

TEST_F(FragmentRepairTest, RenakWhileTheRepairIsQueuedSendsNoSecondRepair) {
  WarmUp();
  const uint64_t seq = PublishAndGetSeq(MessageOf(kFrags));  // ~27 ms of medium
  const ReliableSenderStats before = sender_->stats();
  sim_.RunFor(kMillisecond);
  sender_->HandleNak(Nak(seq, {2}), kNoHost, 0);
  EXPECT_EQ(sender_->stats().packets_sent - before.packets_sent, 1u);

  // Past the rate-limit gap counted from when the repair was queued, but the repair
  // is still waiting behind the message's own fragments.
  sim_.RunFor(config_.retransmit_min_gap_us + kMillisecond);
  ASSERT_GT(sender_socket_->BacklogUs(), 0);
  sender_->HandleNak(Nak(seq, {2}), kNoHost, 0);
  EXPECT_EQ(sender_->stats().packets_sent - before.packets_sent, 1u);
  EXPECT_EQ(sender_->stats().retransmits - before.retransmits, 1u);

  // The limit is per fragment: another fragment of the same message is repaired.
  sender_->HandleNak(Nak(seq, {2, 3}), kNoHost, 0);
  EXPECT_EQ(sender_->stats().packets_sent - before.packets_sent, 2u);

  // Once the repairs have left the medium and the gap has passed, a re-NAK is served.
  sim_.RunFor(sender_socket_->BacklogUs() + config_.retransmit_min_gap_us);
  sender_->HandleNak(Nak(seq, {2}), kNoHost, 0);
  EXPECT_EQ(sender_->stats().packets_sent - before.packets_sent, 3u);
  EXPECT_EQ(sender_->stats().retransmits - before.retransmits, 3u);
}

TEST_F(FragmentRepairTest, EmptyListRepairsTheWholeMessageAndOutOfRangeIndicesAreIgnored) {
  WarmUp();
  const uint64_t seq = PublishAndGetSeq(MessageOf(kFrags));
  sim_.RunFor(kSecond);
  const ReliableSenderStats before = sender_->stats();
  size_t sent = tap_.sent.size();

  sender_->HandleNak(Nak(seq, {}), kNoHost, 0);
  sim_.RunFor(kSecond);
  ASSERT_EQ(tap_.sent.size() - sent, kFrags);
  for (size_t i = 0; i < kFrags; ++i) {
    EXPECT_EQ(tap_.sent[sent + i], std::make_pair(seq, static_cast<uint16_t>(i)));
  }
  EXPECT_EQ(sender_->stats().retransmits - before.retransmits, 1u);

  sent = tap_.sent.size();
  sender_->HandleNak(Nak(seq, {uint16_t{kFrags}, 7, 0xFFFF, 3}), kNoHost, 0);
  sim_.RunFor(kSecond);
  ASSERT_EQ(tap_.sent.size() - sent, 1u);
  EXPECT_EQ(tap_.sent.back(), std::make_pair(seq, uint16_t{3}));
  EXPECT_EQ(sender_->stats().retransmits - before.retransmits, 2u);

  sent = tap_.sent.size();
  sender_->HandleNak(Nak(seq, {uint16_t{kFrags}}), kNoHost, 0);
  sim_.RunFor(kSecond);
  EXPECT_EQ(tap_.sent.size(), sent);
  EXPECT_EQ(sender_->stats().retransmits - before.retransmits, 2u);
  for (const std::vector<Bytes>& got : delivered_) {
    EXPECT_EQ(got.size(), 2u);  // repairs of a delivered message are dropped as duplicates
  }
}

}  // namespace
}  // namespace ibus
