#include "src/sim/network.h"

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/sim/stable_store.h"

namespace ibus {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&sim_) {
    seg_ = net_.AddSegment();
    a_ = net_.AddHost("a", seg_);
    b_ = net_.AddHost("b", seg_);
    c_ = net_.AddHost("c", seg_);
  }

  Simulator sim_;
  Network net_;
  SegmentId seg_;
  HostId a_, b_, c_;
};

TEST_F(NetworkTest, UnicastDelivery) {
  Bytes got;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram& d) { got = d.payload; });
  ASSERT_TRUE(rx.ok());
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->SendTo(b_, 100, ToBytes("hello")).ok());
  sim_.Run();
  EXPECT_EQ(ToString(got), "hello");
}

TEST_F(NetworkTest, DeliveryTakesSerializationPlusPropagation) {
  SimTime at = -1;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram&) { at = sim_.Now(); });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  Bytes payload(1000);
  ASSERT_TRUE((*tx)->SendTo(b_, 100, payload).ok());
  sim_.Run();
  // (1000+42)*8 bits / 10Mbps = 833.6us, + 50us propagation.
  EXPECT_NEAR(static_cast<double>(at), 884.0, 2.0);
}

TEST_F(NetworkTest, BroadcastReachesAllIncludingSender) {
  int count = 0;
  auto ra = net_.OpenSocket(a_, 100, [&](const Datagram&) { ++count; });
  auto rb = net_.OpenSocket(b_, 100, [&](const Datagram&) { ++count; });
  auto rc = net_.OpenSocket(c_, 100, [&](const Datagram&) { ++count; });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  ASSERT_TRUE((*tx)->Broadcast(100, ToBytes("x")).ok());
  sim_.Run();
  EXPECT_EQ(count, 3);
}

TEST_F(NetworkTest, BroadcastConsumesMediumOnce) {
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  net_.ResetStats();
  ASSERT_TRUE((*tx)->Broadcast(100, Bytes(100)).ok());
  sim_.Run();
  EXPECT_EQ(net_.stats().frames_sent, 1u);
}

TEST_F(NetworkTest, MtuEnforced) {
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  Bytes big(2000);
  EXPECT_FALSE((*tx)->SendTo(b_, 100, big).ok());
  EXPECT_FALSE((*tx)->Broadcast(100, big).ok());
}

TEST_F(NetworkTest, LoopbackAllowsLargePayloads) {
  Bytes got;
  auto rx = net_.OpenSocket(a_, 100, [&](const Datagram& d) { got = d.payload; });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  Bytes big(100 * 1024);
  ASSERT_TRUE((*tx)->SendTo(a_, 100, big).ok());
  sim_.Run();
  EXPECT_EQ(got.size(), big.size());
}

TEST_F(NetworkTest, PortConflictRejected) {
  auto s1 = net_.OpenSocket(a_, 100, nullptr);
  ASSERT_TRUE(s1.ok());
  auto s2 = net_.OpenSocket(a_, 100, nullptr);
  EXPECT_FALSE(s2.ok());
  EXPECT_EQ(s2.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(NetworkTest, ClosedSocketReleasesPort) {
  {
    auto s1 = net_.OpenSocket(a_, 100, nullptr);
    ASSERT_TRUE(s1.ok());
  }
  auto s2 = net_.OpenSocket(a_, 100, nullptr);
  EXPECT_TRUE(s2.ok());
}

TEST_F(NetworkTest, DownHostReceivesNothing) {
  int count = 0;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram&) { ++count; });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  net_.SetHostUp(b_, false);
  ASSERT_TRUE((*tx)->Broadcast(100, ToBytes("x")).ok());
  sim_.Run();
  EXPECT_EQ(count, 0);
  net_.SetHostUp(b_, true);
  ASSERT_TRUE((*tx)->Broadcast(100, ToBytes("x")).ok());
  sim_.Run();
  EXPECT_EQ(count, 1);
}

TEST_F(NetworkTest, DownHostCannotSend) {
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  net_.SetHostUp(a_, false);
  EXPECT_FALSE((*tx)->SendTo(b_, 100, ToBytes("x")).ok());
}

TEST_F(NetworkTest, PartitionBlocksTraffic) {
  int count = 0;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram&) { ++count; });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  net_.SetPartitionGroups({{a_, 1}});  // a alone; b,c default group 0
  ASSERT_TRUE((*tx)->SendTo(b_, 100, ToBytes("x")).ok());
  sim_.Run();
  EXPECT_EQ(count, 0);
  net_.SetPartitionGroups({});  // heal
  ASSERT_TRUE((*tx)->SendTo(b_, 100, ToBytes("x")).ok());
  sim_.Run();
  EXPECT_EQ(count, 1);
}

TEST_F(NetworkTest, FaultPlanDropsFrames) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  net_.SetFaultPlan(seg_, plan);
  int count = 0;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram&) { ++count; });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*tx)->SendTo(b_, 100, ToBytes("x")).ok());
  }
  sim_.Run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(net_.stats().frames_dropped_fault, 10u);
}

TEST_F(NetworkTest, FaultPlanDuplicatesFrames) {
  FaultPlan plan;
  plan.dup_prob = 1.0;
  net_.SetFaultPlan(seg_, plan);
  int count = 0;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram&) { ++count; });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  ASSERT_TRUE((*tx)->SendTo(b_, 100, ToBytes("x")).ok());
  sim_.Run();
  EXPECT_EQ(count, 2);
}

TEST_F(NetworkTest, SharedMediumSerializesTransmissions) {
  // Two back-to-back 1000-byte sends: the second waits for the first.
  std::vector<SimTime> arrivals;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram&) { arrivals.push_back(sim_.Now()); });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  ASSERT_TRUE((*tx)->SendTo(b_, 100, Bytes(1000)).ok());
  ASSERT_TRUE((*tx)->SendTo(b_, 100, Bytes(1000)).ok());
  sim_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Each frame takes ~834us on the wire; the gap between arrivals equals that.
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), 834.0, 2.0);
}

TEST(UdpSocketBacklogTest, TracksRemainingMediumOccupancy) {
  Simulator sim;
  Network net(&sim);
  SegmentConfig slow_host;
  slow_host.host_cpu_us_per_frame = 4300;
  SegmentId seg = net.AddSegment(slow_host);
  HostId a = net.AddHost("a", seg);
  HostId b = net.AddHost("b", seg);
  auto tx = net.OpenSocket(a, 0, nullptr);
  auto other = net.OpenSocket(b, 0, nullptr);
  EXPECT_EQ((*tx)->BacklogUs(), 0);

  // (100+42)*8 bits / 10 Mbps = 113.6 us of serialization + 4300 us host cost.
  ASSERT_TRUE((*tx)->Broadcast(100, Bytes(100)).ok());
  const SimTime occupancy = 4414;
  EXPECT_EQ((*tx)->BacklogUs(), occupancy);
  // The medium is shared: every host on the segment sees the same backlog.
  EXPECT_EQ((*other)->BacklogUs(), occupancy);
  sim.RunFor(1000);
  EXPECT_EQ((*tx)->BacklogUs(), occupancy - 1000);
  sim.RunFor(occupancy - 1000);
  EXPECT_EQ((*tx)->BacklogUs(), 0);
  sim.RunFor(1000);
  EXPECT_EQ((*tx)->BacklogUs(), 0);
}

class ConnectionTest : public NetworkTest {};

TEST_F(ConnectionTest, ConnectSendReceive) {
  ConnectionPtr server_conn;
  auto listener = net_.Listen(b_, 200, [&](ConnectionPtr c) { server_conn = std::move(c); });
  ASSERT_TRUE(listener.ok());

  ConnectionPtr client_conn;
  net_.Connect(a_, b_, 200, [&](Result<ConnectionPtr> r) {
    ASSERT_TRUE(r.ok());
    client_conn = r.take();
  });
  sim_.Run();
  ASSERT_NE(client_conn, nullptr);
  ASSERT_NE(server_conn, nullptr);

  std::string got;
  server_conn->SetMessageHandler([&](const Bytes& m) { got = ToString(m); });
  ASSERT_TRUE(client_conn->Send(ToBytes("request")).ok());
  sim_.Run();
  EXPECT_EQ(got, "request");

  std::string reply;
  client_conn->SetMessageHandler([&](const Bytes& m) { reply = ToString(m); });
  ASSERT_TRUE(server_conn->Send(ToBytes("response")).ok());
  sim_.Run();
  EXPECT_EQ(reply, "response");
}

TEST_F(ConnectionTest, LargeMessagesArriveWhole) {
  ConnectionPtr server_conn;
  auto listener = net_.Listen(b_, 200, [&](ConnectionPtr c) { server_conn = std::move(c); });
  ConnectionPtr client_conn;
  net_.Connect(a_, b_, 200, [&](Result<ConnectionPtr> r) { client_conn = r.take(); });
  sim_.Run();
  size_t got = 0;
  server_conn->SetMessageHandler([&](const Bytes& m) { got = m.size(); });
  ASSERT_TRUE(client_conn->Send(Bytes(50000)).ok());
  sim_.Run();
  EXPECT_EQ(got, 50000u);
}

TEST_F(ConnectionTest, MessagesStayOrdered) {
  ConnectionPtr server_conn;
  auto listener = net_.Listen(b_, 200, [&](ConnectionPtr c) { server_conn = std::move(c); });
  ConnectionPtr client_conn;
  net_.Connect(a_, b_, 200, [&](Result<ConnectionPtr> r) { client_conn = r.take(); });
  sim_.Run();
  std::vector<std::string> got;
  server_conn->SetMessageHandler([&](const Bytes& m) { got.push_back(ToString(m)); });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_conn->Send(ToBytes("m" + std::to_string(i))).ok());
  }
  sim_.Run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], "m" + std::to_string(i));
  }
}

TEST_F(ConnectionTest, ConnectToNobodyRefused) {
  bool failed = false;
  net_.Connect(a_, b_, 999, [&](Result<ConnectionPtr> r) { failed = !r.ok(); });
  sim_.Run();
  EXPECT_TRUE(failed);
}

TEST_F(ConnectionTest, HostCrashBreaksConnection) {
  ConnectionPtr server_conn;
  auto listener = net_.Listen(b_, 200, [&](ConnectionPtr c) { server_conn = std::move(c); });
  ConnectionPtr client_conn;
  net_.Connect(a_, b_, 200, [&](Result<ConnectionPtr> r) { client_conn = r.take(); });
  sim_.Run();
  bool closed = false;
  client_conn->SetCloseHandler([&] { closed = true; });
  net_.SetHostUp(b_, false);
  sim_.Run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(client_conn->open());
  EXPECT_FALSE(client_conn->Send(ToBytes("x")).ok());
}

TEST_F(ConnectionTest, CloseNotifiesPeer) {
  ConnectionPtr server_conn;
  auto listener = net_.Listen(b_, 200, [&](ConnectionPtr c) { server_conn = std::move(c); });
  ConnectionPtr client_conn;
  net_.Connect(a_, b_, 200, [&](Result<ConnectionPtr> r) { client_conn = r.take(); });
  sim_.Run();
  bool closed = false;
  server_conn->SetCloseHandler([&] { closed = true; });
  client_conn->Close();
  sim_.Run();
  EXPECT_TRUE(closed);
}

TEST(StableStoreTest, MemoryAppendReadTruncate) {
  MemoryStableStore store;
  EXPECT_EQ(store.Append(ToBytes("a")).value(), 0u);
  EXPECT_EQ(store.Append(ToBytes("b")).value(), 1u);
  EXPECT_EQ(store.Append(ToBytes("c")).value(), 2u);
  auto all = store.ReadFrom(0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  ASSERT_TRUE(store.TruncateBefore(2).ok());
  auto rest = store.ReadFrom(0);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ(ToString((*rest)[0]), "c");
  EXPECT_EQ(store.NextSeq(), 3u);
}

TEST(StableStoreTest, FilePersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/ibus_stable_test.log";
  std::remove(path.c_str());
  {
    auto store = FileStableStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(ToBytes("one")).ok());
    ASSERT_TRUE((*store)->Append(ToBytes("two")).ok());
  }
  auto store = FileStableStore::Open(path);
  ASSERT_TRUE(store.ok());
  auto all = (*store)->ReadFrom(0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ(ToString((*all)[0]), "one");
  EXPECT_EQ(ToString((*all)[1]), "two");
  std::remove(path.c_str());
}

TEST(StableStoreTest, FileDropsCorruptTail) {
  std::string path = ::testing::TempDir() + "/ibus_stable_corrupt.log";
  std::remove(path.c_str());
  {
    auto store = FileStableStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(ToBytes("good")).ok());
    ASSERT_TRUE((*store)->Append(ToBytes("torn")).ok());
  }
  // Corrupt the last byte (inside the second record's payload).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  std::fputc(0xFF ^ 'n', f);
  std::fclose(f);

  auto store = FileStableStore::Open(path);
  ASSERT_TRUE(store.ok());
  auto all = (*store)->ReadFrom(0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ(ToString((*all)[0]), "good");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ibus

namespace ibus {
namespace {

class CrossSegmentTest : public ::testing::Test {
 protected:
  CrossSegmentTest() : net_(&sim_) {
    lan_a_ = net_.AddSegment();
    lan_b_ = net_.AddSegment();
    a_ = net_.AddHost("a", lan_a_);
    b_ = net_.AddHost("b", lan_b_);
  }
  Simulator sim_;
  Network net_;
  SegmentId lan_a_, lan_b_;
  HostId a_, b_;
};

TEST_F(CrossSegmentTest, UnicastCrossesTheImplicitWan) {
  Bytes got;
  SimTime at = 0;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram& d) {
    got = d.payload;
    at = sim_.Now();
  });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  ASSERT_TRUE((*tx)->SendTo(b_, 100, ToBytes("transatlantic")).ok());
  sim_.Run();
  EXPECT_EQ(ToString(got), "transatlantic");
  // WAN path: slower serialization (T1) plus both LAN propagations + WAN propagation.
  EXPECT_GT(at, 2000);
}

TEST_F(CrossSegmentTest, ConnectionsCrossSegments) {
  ConnectionPtr server_conn;
  auto listener = net_.Listen(b_, 200, [&](ConnectionPtr c) { server_conn = std::move(c); });
  ConnectionPtr client_conn;
  net_.Connect(a_, b_, 200, [&](Result<ConnectionPtr> r) {
    ASSERT_TRUE(r.ok());
    client_conn = r.take();
  });
  sim_.Run();
  ASSERT_NE(server_conn, nullptr);
  std::string got;
  server_conn->SetMessageHandler([&](const Bytes& m) { got = ToString(m); });
  ASSERT_TRUE(client_conn->Send(ToBytes("over the wan")).ok());
  sim_.Run();
  EXPECT_EQ(got, "over the wan");
}

TEST_F(CrossSegmentTest, BroadcastStaysOnItsSegment) {
  int got_b = 0;
  auto rx = net_.OpenSocket(b_, 100, [&](const Datagram&) { ++got_b; });
  auto tx = net_.OpenSocket(a_, 0, nullptr);
  ASSERT_TRUE((*tx)->Broadcast(100, ToBytes("local only")).ok());
  sim_.Run();
  EXPECT_EQ(got_b, 0);  // a different LAN never hears a hardware broadcast
}

TEST_F(CrossSegmentTest, MaxDatagramPayloadReflectsSegment) {
  SegmentConfig jumbo;
  jumbo.mtu = 9000;
  SegmentId big = net_.AddSegment(jumbo);
  HostId j = net_.AddHost("jumbo", big);
  EXPECT_EQ(net_.MaxDatagramPayload(a_), 1500u - 42u);
  EXPECT_EQ(net_.MaxDatagramPayload(j), 9000u - 42u);
}

TEST(NonBroadcastSegmentTest, BroadcastRejected) {
  Simulator sim;
  Network net(&sim);
  SegmentConfig p2p;
  p2p.broadcast_capable = false;
  SegmentId seg = net.AddSegment(p2p);
  HostId h = net.AddHost("h", seg);
  auto tx = net.OpenSocket(h, 0, nullptr);
  EXPECT_EQ((*tx)->Broadcast(100, ToBytes("x")).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ibus
