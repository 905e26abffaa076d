// Tests for the wire-capture plane (src/capture + the sim::Network tap points):
// the fate taxonomy at every rejection/loss site, FaultPlan duplication and jitter
// visibility (satellite requirements), the subject-filter grammar, capture-file and
// pcap serialization, the reliable-stream reassembler, and the bandwidth accountant.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/capture/bandwidth.h"
#include "src/capture/capture.h"
#include "src/capture/demo.h"
#include "src/capture/dissect.h"
#include "src/capture/pcap.h"
#include "src/capture/reassembly.h"
#include "src/capture/report.h"
#include "src/proto/packets.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/subject/subject.h"

namespace ibus {
namespace {

using capture::CaptureBuffer;

uint64_t CountFate(const std::vector<CapturedFrame>& frames, FrameFate fate) {
  uint64_t n = 0;
  for (const CapturedFrame& f : frames) {
    n += f.fate == fate ? 1 : 0;
  }
  return n;
}

// Two hosts, direct sockets, one fate per rejection/loss site. The tap must see
// every frame that touched (or was refused by) the medium with the right reason,
// and the network's net.drop.* counters must mirror the stats struct.
TEST(CaptureTap, FateTaxonomyAndDropCounters) {
  Simulator sim;
  Network net(&sim, 42);
  SegmentId seg = net.AddSegment();
  HostId a = net.AddHost("a", seg);
  HostId b = net.AddHost("b", seg);
  uint64_t received = 0;
  auto sa = net.OpenSocket(a, 100, [](const Datagram&) {});
  auto sb = net.OpenSocket(b, 100, [&](const Datagram&) { received++; });
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  CaptureBuffer buf;
  net.AttachTap(&buf);

  // Delivered.
  EXPECT_TRUE((*sa)->SendTo(b, 100, ToBytes("hello")).ok());
  sim.RunFor(10000);
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(CountFate(buf.frames(), FrameFate::kDelivered), 1u);

  // No listener on the destination port.
  EXPECT_TRUE((*sa)->SendTo(b, 999, ToBytes("void")).ok());
  sim.RunFor(10000);
  EXPECT_EQ(CountFate(buf.frames(), FrameFate::kDroppedNoListener), 1u);

  // Receiver host down.
  net.SetHostUp(b, false);
  EXPECT_TRUE((*sa)->SendTo(b, 100, ToBytes("down")).ok());
  sim.RunFor(10000);
  net.SetHostUp(b, true);
  EXPECT_EQ(CountFate(buf.frames(), FrameFate::kDroppedPartition), 1u);

  // Partition boundary.
  net.SetPartitionGroups({{a, 0}, {b, 1}});
  EXPECT_TRUE((*sa)->SendTo(b, 100, ToBytes("split")).ok());
  sim.RunFor(10000);
  net.SetPartitionGroups({});
  EXPECT_EQ(CountFate(buf.frames(), FrameFate::kDroppedPartition), 2u);

  // MTU rejection: the send fails AND the tap records the refused frame.
  Bytes huge(net.MaxDatagramPayload(a) + 1, 0x5A);
  EXPECT_FALSE((*sa)->SendTo(b, 100, huge).ok());
  EXPECT_EQ(CountFate(buf.frames(), FrameFate::kMtuRejected), 1u);

  // FaultPlan loss: dropped before ever occupying the medium (wire_us == 0).
  FaultPlan lossy;
  lossy.drop_prob = 1.0;
  net.SetFaultPlan(seg, lossy);
  EXPECT_TRUE((*sa)->SendTo(b, 100, ToBytes("lost")).ok());
  sim.RunFor(10000);
  net.SetFaultPlan(seg, FaultPlan());
  ASSERT_EQ(CountFate(buf.frames(), FrameFate::kDroppedFault), 1u);
  for (const CapturedFrame& f : buf.frames()) {
    if (f.fate == FrameFate::kDroppedFault) {
      EXPECT_EQ(f.wire_us, 0);
    }
  }

  net.DetachTap(&buf);

  // The telemetry mirrors agree with the stats struct, reason by reason.
  const Network::Stats& st = net.stats();
  EXPECT_EQ(st.frames_dropped_fault, 1u);
  EXPECT_EQ(st.frames_dropped_mtu, 1u);
  EXPECT_EQ(st.frames_dropped_down, 2u);
  EXPECT_EQ(st.frames_dropped_no_listener, 1u);
  EXPECT_EQ(net.metrics()->GetCounter(kMetricNetDropFault)->value(),
            st.frames_dropped_fault);
  EXPECT_EQ(net.metrics()->GetCounter(kMetricNetDropMtu)->value(),
            st.frames_dropped_mtu);
  EXPECT_EQ(net.metrics()->GetCounter(kMetricNetDropPartition)->value(),
            st.frames_dropped_down);
  EXPECT_EQ(net.metrics()->GetCounter(kMetricNetDropNoListener)->value(),
            st.frames_dropped_no_listener);
}

// Drop counters advance even with no tap attached (they are stats mirrors, not
// capture state), while capture ids only advance under a tap.
TEST(CaptureTap, CountersAdvanceWithoutTap) {
  Simulator sim;
  Network net(&sim, 42);
  SegmentId seg = net.AddSegment();
  HostId a = net.AddHost("a", seg);
  HostId b = net.AddHost("b", seg);
  auto sa = net.OpenSocket(a, 100, [](const Datagram&) {});
  ASSERT_TRUE(sa.ok());
  EXPECT_TRUE((*sa)->SendTo(b, 999, ToBytes("void")).ok());
  sim.RunFor(10000);
  EXPECT_EQ(net.metrics()->GetCounter(kMetricNetDropNoListener)->value(), 1u);
}

// Satellite: a FaultPlan-duplicated frame yields two distinct capture records —
// the original and a `duplicated`-fate copy sharing the tx_id (the medium was
// occupied once) but with its own capture index and zero wire time.
TEST(CaptureTap, FaultDuplicatesGetDistinctRecords) {
  Simulator sim;
  Network net(&sim, 42);
  SegmentId seg = net.AddSegment();
  HostId a = net.AddHost("a", seg);
  HostId b = net.AddHost("b", seg);
  uint64_t received = 0;
  auto sa = net.OpenSocket(a, 100, [](const Datagram&) {});
  auto sb = net.OpenSocket(b, 100, [&](const Datagram&) { received++; });
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  CaptureBuffer buf;
  net.AttachTap(&buf);
  FaultPlan dupy;
  dupy.dup_prob = 1.0;
  net.SetFaultPlan(seg, dupy);
  EXPECT_TRUE((*sa)->SendTo(b, 100, ToBytes("twice")).ok());
  sim.RunFor(10000);
  net.DetachTap(&buf);

  EXPECT_EQ(received, 2u);
  ASSERT_EQ(buf.frames().size(), 2u);
  const CapturedFrame* original = nullptr;
  const CapturedFrame* copy = nullptr;
  for (const CapturedFrame& f : buf.frames()) {
    (f.duplicate ? copy : original) = &f;
  }
  ASSERT_NE(original, nullptr);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->fate, FrameFate::kDuplicated);
  EXPECT_NE(copy->index, original->index);
  EXPECT_EQ(copy->tx_id, original->tx_id);  // one medium transmission
  EXPECT_EQ(copy->wire_us, 0);
  EXPECT_GT(original->wire_us, 0);
}

// Back-to-back sends on the shared half-duplex medium: the second frame waits and
// is recorded with the queued_delay fate and a nonzero queued_us.
TEST(CaptureTap, QueuedDelayFate) {
  Simulator sim;
  Network net(&sim, 42);
  SegmentId seg = net.AddSegment();
  HostId a = net.AddHost("a", seg);
  HostId b = net.AddHost("b", seg);
  auto sa = net.OpenSocket(a, 100, [](const Datagram&) {});
  auto sb = net.OpenSocket(b, 100, [](const Datagram&) {});
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  CaptureBuffer buf;
  net.AttachTap(&buf);
  EXPECT_TRUE((*sa)->SendTo(b, 100, Bytes(1000, 1)).ok());
  EXPECT_TRUE((*sa)->SendTo(b, 100, Bytes(1000, 2)).ok());
  sim.RunFor(100000);
  net.DetachTap(&buf);
  ASSERT_EQ(buf.frames().size(), 2u);
  EXPECT_EQ(buf.frames()[0].fate, FrameFate::kDelivered);
  EXPECT_EQ(buf.frames()[1].fate, FrameFate::kQueuedDelay);
  EXPECT_GT(buf.frames()[1].queued_us, 0);
}

// The capture filter compiles with the real subject grammar: malformed patterns are
// rejected exactly as Subscribe would reject them, and a filtered capture keeps
// only frames carrying a matching subject.
TEST(CaptureFilter, UsesRealSubjectGrammar) {
  CaptureBuffer buf;
  EXPECT_TRUE(buf.SetFilter("orders.>").ok());
  EXPECT_TRUE(buf.SetFilter("market.*.gmc").ok());
  EXPECT_FALSE(buf.SetFilter("bad..pattern").ok());
  EXPECT_FALSE(buf.SetFilter(">x").ok());
  EXPECT_TRUE(buf.SetFilter("").ok());  // clears
}

TEST(CaptureFilter, KeepsOnlyMatchingSubjects) {
  CaptureBuffer all;
  CaptureBuffer orders;
  ASSERT_TRUE(orders.SetFilter("orders.>").ok());

  class Fanout : public NetworkTap {
   public:
    explicit Fanout(std::vector<NetworkTap*> taps) : taps_(std::move(taps)) {}
    void OnFrame(const CapturedFrame& f) override {
      for (NetworkTap* t : taps_) {
        t->OnFrame(f);
      }
    }

   private:
    std::vector<NetworkTap*> taps_;
  } fanout({&all, &orders});

  auto trace = capture::RunCertifiedWanCaptureScenario(42, &fanout);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.front().rfind("error:", 0), 0u) << trace.front();
  ASSERT_GT(all.frames().size(), 0u);
  ASSERT_GT(orders.frames().size(), 0u);
  EXPECT_LT(orders.frames().size(), all.frames().size());
  EXPECT_EQ(orders.frames_seen(), all.frames().size());
  for (const CapturedFrame& f : orders.frames()) {
    bool matched = false;
    for (const std::string& s : capture::PeekSubjects(f.payload)) {
      matched = matched || SubjectMatches("orders.>", s);
    }
    EXPECT_TRUE(matched) << capture::CanonicalRecord(f);
  }
}

// The demo scenario's capture replays bit-identically for a seed and diverges for a
// different one (mirrors sim_replay_check scenario 6, but at the library level).
TEST(CaptureDemo, CaptureHashReplaysBitIdentically) {
  CaptureBuffer one, two, other;
  capture::RunCertifiedWanCaptureScenario(42, &one);
  capture::RunCertifiedWanCaptureScenario(42, &two);
  capture::RunCertifiedWanCaptureScenario(59, &other);
  ASSERT_GT(one.frames().size(), 0u);
  EXPECT_EQ(one.Hash(), two.Hash());
  EXPECT_EQ(one.frames().size(), two.frames().size());
  EXPECT_NE(one.Hash(), other.Hash());
}

// The demo run exercises the interesting fates: faults drop frames, the certified
// layer retransmits, and the reassembler ties each retransmit back to the specific
// dropped records it repaired.
TEST(CaptureDemo, ReassemblerAttributesRetransmitsToDrops) {
  CaptureBuffer buf;
  capture::RunCertifiedWanCaptureScenario(42, &buf);
  EXPECT_GT(CountFate(buf.frames(), FrameFate::kDroppedFault), 0u);

  capture::ReassemblyReport r = capture::Reassemble(buf.frames());
  EXPECT_GT(r.data_records, 0u);
  EXPECT_GT(r.total_drops, 0u);
  ASSERT_GT(r.retransmitted_seqs, 0u);
  bool attributed = false;
  for (const auto& [key, tl] : r.seqs) {
    if (!tl.retransmitted) {
      continue;
    }
    EXPECT_GT(tl.transmissions, 1u);
    if (!tl.caused_by_drops.empty()) {
      attributed = true;
      // Every repaired-drop reference must point at a real dropped record of the
      // same (stream, seq).
      for (uint64_t idx : tl.caused_by_drops) {
        bool found = false;
        for (const CapturedFrame& f : buf.frames()) {
          if (f.index != idx) {
            continue;
          }
          found = true;
          EXPECT_TRUE(f.fate == FrameFate::kDroppedFault ||
                      f.fate == FrameFate::kDroppedPartition)
              << capture::CanonicalRecord(f);
        }
        EXPECT_TRUE(found) << "dangling drop index " << idx;
      }
    }
  }
  EXPECT_TRUE(attributed);
  // Loss-caused gaps are annotated as filled via retransmit.
  EXPECT_GT(r.gaps_filled_by_retransmit, 0u);
}

// Satellite: jitter-only faults (no loss) reorder reliable data frames, and the
// reassembler's gap annotations show holes filled by plain reordering — no
// retransmit involved.
TEST(CaptureDemo, JitterReorderingShowsInGapAnnotations) {
  Simulator sim;
  Network net(&sim, 42);
  SegmentId seg = net.AddSegment();
  HostId a = net.AddHost("a", seg);
  HostId b = net.AddHost("b", seg);
  auto da = BusDaemon::Start(&net, a, BusConfig());
  auto db = BusDaemon::Start(&net, b, BusConfig());
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  auto sub = BusClient::Connect(&net, b, "sub");
  auto pub = BusClient::Connect(&net, a, "pub");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(pub.ok());
  uint64_t received = 0;
  ASSERT_TRUE((*sub)->Subscribe("x.>", [&](const Message&) { received++; }).ok());
  sim.RunFor(200 * kMillisecond);

  CaptureBuffer buf;
  net.AttachTap(&buf);
  FaultPlan jitter;
  jitter.jitter_us = 5000;  // far larger than the inter-publish spacing
  net.SetFaultPlan(seg, jitter);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*pub)->Publish("x.tick", ToBytes("m" + std::to_string(i))).ok());
    sim.RunFor(200);
  }
  sim.RunFor(2 * kSecond);
  net.DetachTap(&buf);
  EXPECT_GT(received, 0u);

  capture::ReassemblyReport r = capture::Reassemble(buf.frames());
  EXPECT_EQ(r.total_drops, 0u);
  EXPECT_GT(r.gaps_filled_by_reorder, 0u);
  for (const capture::GapAnnotation& g : r.gaps) {
    EXPECT_TRUE(g.filled);
    EXPECT_FALSE(g.via_retransmit);
    EXPECT_GT(g.overtaken_by, g.seq);
  }
}

// Capture-file round trip: serialize -> deserialize preserves every record (the
// canonical hash covers all fields the reports read).
TEST(CaptureFile, RoundTripPreservesHash) {
  CaptureBuffer buf;
  capture::RunCertifiedWanCaptureScenario(42, &buf);
  ASSERT_GT(buf.frames().size(), 0u);

  Bytes blob = capture::SerializeCapture(buf.frames());
  auto back = capture::DeserializeCapture(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), buf.frames().size());
  EXPECT_EQ(CaptureBuffer::CaptureHash(*back), buf.Hash());

  const std::string path = "capture_roundtrip_test.ibcp";
  ASSERT_TRUE(capture::WriteCaptureFile(path, buf.frames()).ok());
  auto loaded = capture::ReadCaptureFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(CaptureBuffer::CaptureHash(*loaded), buf.Hash());
  std::remove(path.c_str());
}

TEST(CaptureFile, RejectsCorruptHeaders) {
  EXPECT_FALSE(capture::DeserializeCapture(Bytes()).ok());
  EXPECT_FALSE(capture::DeserializeCapture(ToBytes("not a capture")).ok());
  Bytes blob = capture::SerializeCapture({});
  ASSERT_TRUE(capture::DeserializeCapture(blob).ok());
  blob[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(capture::DeserializeCapture(blob).ok());
}

// pcap export: microsecond magic, LINKTYPE_USER0, one packet per record with the
// 44-byte sim-metadata pseudo-header, in fate-time order.
TEST(CapturePcap, SerializesStandardPcap) {
  CaptureBuffer buf;
  capture::RunCertifiedWanCaptureScenario(42, &buf);
  const std::vector<CapturedFrame>& frames = buf.frames();
  ASSERT_GT(frames.size(), 0u);

  Bytes pcap = capture::SerializePcap(frames);
  ASSERT_GE(pcap.size(), 24u);
  auto u32 = [&](size_t off) {
    return static_cast<uint32_t>(pcap[off]) |
           static_cast<uint32_t>(pcap[off + 1]) << 8 |
           static_cast<uint32_t>(pcap[off + 2]) << 16 |
           static_cast<uint32_t>(pcap[off + 3]) << 24;
  };
  EXPECT_EQ(u32(0), capture::kPcapMagic);
  EXPECT_EQ(u32(20), capture::kPcapLinkType);

  // Walk the packet records: count them and check monotonic timestamps.
  size_t off = 24, packets = 0;
  uint64_t prev_ts = 0;
  while (off + 16 <= pcap.size()) {
    uint64_t ts = static_cast<uint64_t>(u32(off)) * 1000000 + u32(off + 4);
    uint32_t incl = u32(off + 8);
    EXPECT_GE(incl, capture::kPcapMetaSize);
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
    off += 16 + incl;
    packets++;
  }
  EXPECT_EQ(off, pcap.size());
  EXPECT_EQ(packets, frames.size());
}

// The bandwidth accountant's invariants on the demo capture: per-segment shares sum
// exactly to the busy time and byte totals (integer math, no float drift), medium
// time is deduplicated per transmission, and the lossy certified run shows a
// nonzero retransmit share plus nonzero internal (_ibus.) traffic.
TEST(CaptureBandwidth, SharesAreExactAndRetransmitIsNonzero) {
  CaptureBuffer buf;
  capture::RunCertifiedWanCaptureScenario(42, &buf);
  capture::ReassemblyReport r = capture::Reassemble(buf.frames());
  capture::BandwidthReport bw = capture::AccountBandwidth(buf.frames(), r);

  ASSERT_GT(bw.segments.size(), 0u);
  for (const capture::SegmentBandwidth& s : bw.segments) {
    EXPECT_EQ(s.goodput.us + s.envelope.us + s.frame_overhead.us +
                  s.retransmit.us + s.internal.us,
              s.busy_us)
        << "segment " << s.segment;
    EXPECT_EQ(s.goodput.bytes + s.envelope.bytes + s.frame_overhead.bytes +
                  s.retransmit.bytes + s.internal.bytes,
              s.total_bytes)
        << "segment " << s.segment;
    EXPECT_LE(s.transmissions, s.records);
  }
  EXPECT_GT(bw.total.retransmit.us, 0u);
  EXPECT_GT(bw.total.internal.us, 0u);
  EXPECT_GT(bw.total.goodput.bytes, 0u);
  EXPECT_GT(bw.total.frame_overhead.bytes, 0u);
}

// Reports are pure functions of the records: byte-identical across calls, and the
// JSONL stream ends with the capture hash line.
TEST(CaptureReport, RendersDeterministically) {
  CaptureBuffer buf;
  capture::RunCertifiedWanCaptureScenario(42, &buf);
  capture::ReportOptions opts;
  opts.max_frames = 5;
  opts.with_trees = true;
  EXPECT_EQ(capture::TextReport(buf.frames(), opts),
            capture::TextReport(buf.frames(), opts));
  std::string jsonl = capture::JsonlReport(buf.frames());
  EXPECT_EQ(jsonl, capture::JsonlReport(buf.frames()));
  EXPECT_NE(jsonl.find("{\"capture_hash\": " + std::to_string(buf.Hash()) + "}"),
            std::string::npos);
}

// The dissector understands both application and reserved-namespace traffic.
TEST(CaptureDissect, ClassifiesApplicationAndInternalTraffic) {
  CaptureBuffer buf;
  capture::RunCertifiedWanCaptureScenario(42, &buf);
  bool saw_orders = false, saw_internal = false, saw_heartbeat = false;
  for (const CapturedFrame& f : buf.frames()) {
    capture::Dissection d = capture::DissectFrame(f.payload);
    EXPECT_TRUE(d.parsed) << capture::CanonicalRecord(f);
    for (const std::string& s : d.subjects) {
      if (s == "orders.new") {
        saw_orders = true;
        EXPECT_FALSE(d.internal);
      }
    }
    saw_internal = saw_internal || d.internal;
    saw_heartbeat = saw_heartbeat || d.kind == "heartbeat";
  }
  EXPECT_TRUE(saw_orders);
  EXPECT_TRUE(saw_internal);   // certified acks ride _ibus.cert.*
  EXPECT_TRUE(saw_heartbeat);  // reliable-channel control traffic
}

TEST(CaptureDissect, NakShowsTheFragmentsEachEntryNames) {
  NakPacket nak;
  nak.stream_id = 4;
  nak.missing = {{7, {1, 3}}, {9, {}}};
  capture::Dissection d = capture::DissectFrame(FrameMessage(kPktNak, nak.Marshal()));
  ASSERT_TRUE(d.parsed);
  EXPECT_EQ(d.kind, "nak");
  EXPECT_TRUE(d.control);
  ASSERT_EQ(d.nak_missing.size(), 2u);
  EXPECT_EQ(d.nak_missing[0].seq, 7u);
  EXPECT_EQ(d.nak_missing[0].frags, (std::vector<uint16_t>{1, 3}));
  EXPECT_TRUE(d.nak_missing[1].frags.empty());
  EXPECT_NE(capture::RenderTree(d.root).find("nak: stream=4 missing=[7{1,3},9]"),
            std::string::npos)
      << capture::RenderTree(d.root);
}

// Hand-built capture of one 3-fragment message (stream 4, seq 7) broadcast from host
// 1 to hosts 2 and 3. Host 2 loses fragment 1 and NAKs it; host 3 loses fragment 2
// but a fault-made duplicate of it still lands, so nobody asks for it. The sender
// repairs fragment 1 alone.
TEST(CaptureReassembly, AttributesNaksAndRepairsToTheirFragments) {
  std::vector<CapturedFrame> frames;
  auto add = [&frames](uint64_t tx, HostId src, HostId dst, SimTime at, FrameFate fate,
                       bool duplicate, Bytes payload) {
    CapturedFrame f;
    f.index = frames.size();
    f.tx_id = tx;
    f.src_host = src;
    f.dst_host = dst;
    f.broadcast = dst != 1;
    f.sent_at = at;
    f.delivered_at = at + 100;
    f.fate = fate;
    f.duplicate = duplicate;
    f.payload = std::move(payload);
    frames.push_back(f);
  };
  auto fragment = [](uint16_t index) {
    DataPacket p;
    p.stream_id = 4;
    p.seq = 7;
    p.frag_index = index;
    p.frag_count = 3;
    p.chunk = Bytes(16, static_cast<uint8_t>(index));
    return FrameMessage(kPktData, p.Marshal());
  };
  for (uint16_t i = 0; i < 3; ++i) {
    const SimTime at = 1000 * (i + 1);
    add(i + 1, 1, 2, at, i == 1 ? FrameFate::kDroppedFault : FrameFate::kDelivered, false,
        fragment(i));
    add(i + 1, 1, 3, at, i == 2 ? FrameFate::kDroppedFault : FrameFate::kDelivered, false,
        fragment(i));
  }
  const uint64_t drop1 = 2;  // host 2's copy of fragment 1
  add(3, 1, 3, 3000, FrameFate::kDuplicated, true, fragment(2));
  NakPacket nak;
  nak.stream_id = 4;
  nak.missing = {{7, {1}}};
  add(4, 2, 1, 40000, FrameFate::kDelivered, false, FrameMessage(kPktNak, nak.Marshal()));
  const uint64_t nak_index = frames.size() - 1;
  add(5, 1, 2, 41000, FrameFate::kDelivered, false, fragment(1));
  add(5, 1, 3, 41000, FrameFate::kDelivered, false, fragment(1));

  capture::ReassemblyReport r = capture::Reassemble(frames);
  EXPECT_EQ(r.nak_frames, 1u);
  EXPECT_EQ(r.total_drops, 2u);
  const capture::SeqTimeline& t = r.seqs.at({4, 7});
  EXPECT_TRUE(t.retransmitted);
  ASSERT_EQ(t.naks.size(), 1u);
  EXPECT_EQ(t.naks[0].capture_index, nak_index);
  EXPECT_EQ(t.naks[0].frags, (std::vector<uint16_t>{1}));
  // Fragment 1's repair accounts for fragment 1's drop only.
  EXPECT_EQ(t.caused_by_drops, (std::vector<uint64_t>{drop1}));
  const std::string text = capture::RenderReassemblyText(r);
  EXPECT_NE(text.find("naks=[" + std::to_string(nak_index) + "{1}]"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace ibus
