// Poor-man's fuzzing for every registered codec, deterministic and fast enough
// for tier1: every strict prefix of a valid encoding and a byte-flipped mutant
// at every position go through Decode. The contract is error-not-crash — no
// assert, no UB, no unbounded allocation; and for codecs that seal their tail
// (AtEnd discipline), every strict prefix must be *rejected*, not half-decoded.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/bus/message.h"
#include "src/capture/capture.h"
#include "src/journal/format.h"
#include "src/proto/packets.h"
#include "src/rmi/protocol.h"
#include "src/services/bus_monitor.h"
#include "src/telemetry/busstat.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sketch.h"
#include "src/telemetry/trace.h"
#include "src/types/codec.h"
#include "src/types/type_descriptor.h"
#include "src/wire/wire.h"

namespace ibus {
namespace {

struct Target {
  std::string name;
  Bytes valid;
  // Returns whether the decode succeeded; must never crash.
  std::function<bool(const Bytes&)> decode;
  // Codecs with a sealed tail must reject every strict prefix. Sub-decoders
  // (readers embedded in larger records) and tail-slicing codecs legitimately
  // accept some prefixes, so they only get the no-crash guarantee.
  bool prefix_must_fail = true;
};

std::vector<Target> Targets() {
  std::vector<Target> out;

  out.push_back({"frame", FrameMessage(5, {1, 2, 3}),
                 [](const Bytes& b) { return ParseFrame(b).ok(); }, true});

  {
    Message m;
    m.subject = "market.equity.ibm";
    m.type_name = "quote";
    m.sender = "client-7";
    m.payload = {9, 8, 7, 6};
    out.push_back({"message", m.Marshal(),
                   [](const Bytes& b) { return Message::Unmarshal(b).ok(); }, true});
  }

  {
    DataPacket p;
    p.stream_id = 3;
    p.seq = 11;
    p.frag_index = 0;
    p.frag_count = 2;
    p.chunk = {1, 2, 3, 4, 5};
    // The chunk is the unread tail of the packet (no length prefix), so a
    // prefix that still covers the header decodes to a shorter chunk.
    out.push_back({"data_packet", p.Marshal(),
                   [](const Bytes& b) { return DataPacket::Unmarshal(b).ok(); }, false});
  }

  {
    BatchPacket p;
    p.stream_id = 3;
    p.first_seq = 20;
    p.messages = {Bytes{1, 2}, Bytes{3, 4, 5}};
    out.push_back({"batch_packet", p.Marshal(),
                   [](const Bytes& b) { return BatchPacket::Unmarshal(b).ok(); }, true});
  }

  {
    HeartbeatPacket p;
    p.stream_id = 3;
    p.highest_seq = 40;
    p.lowest_retained = 12;
    out.push_back({"heartbeat_packet", p.Marshal(),
                   [](const Bytes& b) { return HeartbeatPacket::Unmarshal(b).ok(); }, true});
  }

  {
    // Whole-message entries and fragment lists, with one- to three-byte indices.
    NakPacket p;
    p.stream_id = 3;
    p.missing = {{4, {}}, {9, {1, 3}}, {10, {0, 300, 0xFFFF}}};
    out.push_back({"nak_packet", p.Marshal(),
                   [](const Bytes& b) { return NakPacket::Unmarshal(b).ok(); }, true});
  }

  {
    // One long fragment list: every cut inside it must be rejected.
    NakPacket p;
    p.stream_id = 3;
    NakEntry e;
    e.seq = 12;
    for (uint16_t f = 0; f < 40; ++f) {
      e.frags.push_back(static_cast<uint16_t>(f * 97));
    }
    p.missing.push_back(e);
    out.push_back({"nak_packet_long_list", p.Marshal(),
                   [](const Bytes& b) { return NakPacket::Unmarshal(b).ok(); }, true});
  }

  {
    telemetry::HopRecord rec;
    rec.trace_id = 77;
    rec.hop = 2;
    rec.node = "router-1";
    rec.subject = "a.b.c";
    out.push_back({"hop_record", rec.Marshal(),
                   [](const Bytes& b) { return telemetry::HopRecord::Unmarshal(b).ok(); }, true});
  }

  {
    telemetry::HealthEvent e;
    e.node = "daemon-1";
    e.value = 12;
    e.threshold = 10;
    out.push_back({"health_event", e.Marshal(),
                   [](const Bytes& b) { return telemetry::HealthEvent::Unmarshal(b).ok(); },
                   true});
  }

  {
    telemetry::TopKSketch sketch(4);
    sketch.Offer("a.b");
    sketch.Offer("a.b");
    sketch.Offer("c.d");
    WireWriter w;
    sketch.Encode(&w);
    // Sub-decoder: no sealed tail of its own.
    out.push_back({"topk_sketch", w.Take(),
                   [](const Bytes& b) {
                     WireReader r(b);
                     return telemetry::TopKSketch::Decode(&r).ok();
                   },
                   false});
  }

  {
    DaemonStatsSnapshot s;
    s.host_name = "host-1";
    s.publishes = 5;
    SubjectFlowEntry f;
    f.prefix = "market";
    f.publishes = 3;
    s.flows.push_back(f);
    out.push_back({"stats_snapshot", s.Marshal(),
                   [](const Bytes& b) { return DaemonStatsSnapshot::Unmarshal(b).ok(); }, true});
  }

  {
    TypeDescriptor td("Quote", "");
    WireWriter w;
    td.ToWire(&w);
    // Sub-decoder (rmi adverts embed it): no sealed tail of its own.
    out.push_back({"type_descriptor", w.Take(),
                   [](const Bytes& b) {
                     WireReader r(b);
                     return TypeDescriptor::FromWire(&r).ok();
                   },
                   false});
  }

  {
    RmiAdvert a;
    a.server_name = "calc";
    a.subject = "svc.calc";
    a.load = 2;
    out.push_back({"rmi_advert", a.Marshal(),
                   [](const Bytes& b) { return RmiAdvert::Unmarshal(b).ok(); }, true});
  }

  {
    RmiRequest req;
    req.request_id = 9;
    req.operation = "Add";
    out.push_back({"rmi_request", req.Marshal(),
                   [](const Bytes& b) { return RmiRequest::Unmarshal(b).ok(); }, true});
  }

  {
    RmiReply rep;
    rep.request_id = 9;
    out.push_back({"rmi_reply", rep.Marshal(),
                   [](const Bytes& b) { return RmiReply::Unmarshal(b).ok(); }, true});
  }

  {
    Bytes block = journal::EncodeBlock(1, 10, {Bytes{1, 2, 3}, Bytes{4}});
    out.push_back({"journal_block", block,
                   [](const Bytes& b) {
                     journal::BlockHeader h;
                     std::vector<journal::Record> recs;
                     return journal::DecodeBlock(b, &h, &recs).ok();
                   },
                   true});
  }

  {
    CapturedFrame f;
    f.payload = {1, 2, 3};
    out.push_back({"capture_file", capture::SerializeCapture({f}),
                   [](const Bytes& b) { return capture::DeserializeCapture(b).ok(); }, true});
  }

  {
    telemetry::MetricsRegistry registry;
    registry.GetCounter("bus.publishes")->Inc(3);
    telemetry::StatSeriesEncoder enc("node-1", 4);
    Bytes sample = enc.EncodeSample(registry, nullptr, nullptr, 100, 1);
    // A fresh decoder per attempt so desync state never leaks across inputs.
    out.push_back({"stat_series", sample,
                   [](const Bytes& b) {
                     telemetry::StatSeriesDecoder dec;
                     return dec.DecodeSample(b).ok();
                   },
                   true});
  }

  return out;
}

TEST(WireFuzzish, ValidEncodingsDecode) {
  for (const Target& t : Targets()) {
    EXPECT_TRUE(t.decode(t.valid)) << t.name;
  }
}

TEST(WireFuzzish, EveryPrefixErrorsNotCrashes) {
  for (const Target& t : Targets()) {
    ASSERT_FALSE(t.valid.empty()) << t.name;
    for (size_t len = 0; len < t.valid.size(); ++len) {
      Bytes prefix(t.valid.begin(), t.valid.begin() + static_cast<ptrdiff_t>(len));
      bool ok = t.decode(prefix);  // must not crash
      if (t.prefix_must_fail) {
        EXPECT_FALSE(ok) << t.name << " accepted a strict prefix of " << len << "/"
                         << t.valid.size() << " bytes";
      }
    }
  }
}

TEST(WireFuzzish, ByteFlippedMutantsErrorNotCrash) {
  for (const Target& t : Targets()) {
    for (size_t pos = 0; pos < t.valid.size(); ++pos) {
      for (uint8_t mask : {uint8_t{0xFF}, uint8_t{0x01}, uint8_t{0x80}}) {
        Bytes mutant = t.valid;
        mutant[pos] = static_cast<uint8_t>(mutant[pos] ^ mask);
        (void)t.decode(mutant);  // any result is fine; crashing is not
      }
    }
  }
}

TEST(WireFuzzish, AppendedGarbageIsRejectedBySealedCodecs) {
  for (const Target& t : Targets()) {
    if (!t.prefix_must_fail) {
      continue;  // unsealed sub-decoders may ignore the tail by design
    }
    Bytes noisy = t.valid;
    noisy.push_back(0xA5);
    EXPECT_FALSE(t.decode(noisy)) << t.name << " decoded despite trailing garbage";
  }
}

}  // namespace
}  // namespace ibus
