// Regression tests for the decode-safety findings wirecheck surfaced: every
// count clamp and trailing-bytes rejection added to the real codecs gets a
// hostile input here — a garbage count that must not size an allocation or
// spin a loop, and appended garbage that must not decode silently. These
// inputs crashed, over-allocated, or decoded-to-garbage before the fixes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/bus/message.h"
#include "src/capture/capture.h"
#include "src/journal/format.h"
#include "src/proto/packets.h"
#include "src/services/bus_monitor.h"
#include "src/telemetry/busstat.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/types/type_descriptor.h"
#include "src/wire/wire.h"

namespace ibus {
namespace {

// --- trailing garbage: valid record + appended byte must be rejected -------------

TEST(DecodeSafety, MessageRejectsTrailingGarbage) {
  Message m;
  m.subject = "a.b";
  m.payload = {1, 2, 3};
  Bytes b = m.Marshal();
  ASSERT_TRUE(Message::Unmarshal(b).ok());
  b.push_back(0x5A);
  EXPECT_FALSE(Message::Unmarshal(b).ok());
}

TEST(DecodeSafety, HopRecordRejectsTrailingGarbage) {
  telemetry::HopRecord rec;
  rec.trace_id = 7;
  rec.node = "n1";
  Bytes b = rec.Marshal();
  ASSERT_TRUE(telemetry::HopRecord::Unmarshal(b).ok());
  b.push_back(0xFF);
  EXPECT_FALSE(telemetry::HopRecord::Unmarshal(b).ok());
}

TEST(DecodeSafety, HealthEventRejectsTrailingGarbage) {
  telemetry::HealthEvent e;
  e.node = "n1";
  Bytes b = e.Marshal();
  ASSERT_TRUE(telemetry::HealthEvent::Unmarshal(b).ok());
  b.push_back(0x00);
  EXPECT_FALSE(telemetry::HealthEvent::Unmarshal(b).ok());
}

TEST(DecodeSafety, StatsSnapshotRejectsTrailingGarbage) {
  DaemonStatsSnapshot s;
  s.host_name = "h";
  Bytes b = s.Marshal();
  ASSERT_TRUE(DaemonStatsSnapshot::Unmarshal(b).ok());
  b.push_back(0x01);
  EXPECT_FALSE(DaemonStatsSnapshot::Unmarshal(b).ok());
}

TEST(DecodeSafety, CaptureRejectsTrailingGarbage) {
  Bytes b = capture::SerializeCapture({});
  ASSERT_TRUE(capture::DeserializeCapture(b).ok());
  b.push_back(0x42);
  EXPECT_FALSE(capture::DeserializeCapture(b).ok());
}

// --- garbage counts: must fail fast, not allocate or loop on the count -----------

TEST(DecodeSafety, StatsSnapshotRejectsImplausibleFlowCount) {
  DaemonStatsSnapshot s;
  s.host_name = "h";
  Bytes valid = s.Marshal();
  // Rebuild the snapshot with the trailing flow count replaced by a huge
  // varint. Everything before the count is byte-identical, so chop the old
  // count (one varint byte for zero flows) and splice in the poison.
  Bytes b(valid.begin(), valid.end() - 1);
  WireWriter w;
  w.PutVarint(0xFFFFFFFFFFFFull);
  Bytes poison = w.Take();
  b.insert(b.end(), poison.begin(), poison.end());
  auto out = DaemonStatsSnapshot::Unmarshal(b);
  ASSERT_FALSE(out.ok());
}

TEST(DecodeSafety, JournalBlockRejectsImplausibleRecordCount) {
  WireWriter w;
  w.PutU32(journal::kBlockMagic);
  w.PutU32(0);           // segment
  w.PutU64(1);           // first lsn
  w.PutU32(0xFFFFFFFFu); // record count far beyond the buffer
  journal::BlockHeader header;
  std::vector<journal::Record> records;
  EXPECT_FALSE(journal::DecodeBlock(w.Take(), &header, &records).ok());
  EXPECT_TRUE(records.empty());
}

TEST(DecodeSafety, CaptureRejectsImplausibleFrameCount) {
  WireWriter w;
  w.PutU32(capture::kCaptureMagic);
  w.PutU16(capture::kCaptureVersion);
  w.PutVarint(0xFFFFFFFFFFull);  // frame count with no frames behind it
  EXPECT_FALSE(capture::DeserializeCapture(w.Take()).ok());
}

TEST(DecodeSafety, TypeDescriptorRejectsImplausibleAttributeCount) {
  WireWriter w;
  w.PutString("T");
  w.PutString("");
  w.PutU32(1);
  w.PutVarint(0xFFFFFFFFull);  // attribute count
  Bytes b = w.Take();
  WireReader r(b);
  EXPECT_FALSE(TypeDescriptor::FromWire(&r).ok());
}

TEST(DecodeSafety, BusstatRejectsImplausibleScalarDictCount) {
  WireWriter w;
  w.PutU8(telemetry::kTsWireVersion);
  w.PutU8(telemetry::kTsKindKeyframe);
  w.PutString("node");
  w.PutVarint(0);  // seq
  w.PutI64(0);     // at_us
  w.PutVarint(1);  // sample period
  w.PutVarint(0xFFFFFFFFFFull);  // scalar dictionary size
  telemetry::StatSeriesDecoder dec;
  EXPECT_FALSE(dec.DecodeSample(w.Take()).ok());
}

TEST(DecodeSafety, BusstatRejectsTrailingGarbage) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("bus.publishes")->Inc(3);
  telemetry::StatSeriesEncoder enc("node", 4);
  Bytes b = enc.EncodeSample(registry, nullptr, nullptr, 10, 1);
  telemetry::StatSeriesDecoder ok_dec;
  ASSERT_TRUE(ok_dec.DecodeSample(b).ok());
  b.push_back(0x07);
  telemetry::StatSeriesDecoder dec;
  EXPECT_FALSE(dec.DecodeSample(b).ok());
}

// --- fragment-list NAKs (version 1) ---------------------------------------------

// A NAK asking for message 7's fragments {1, 3}, built by hand so each test can
// poison one field. `n` is the fragment count as sent; `frags` the indices as sent.
Bytes HandBuiltNak(uint64_t n, const std::vector<uint64_t>& frags) {
  WireWriter w;
  w.PutU8(kNakVersion);
  w.PutU64(3);  // stream
  w.PutVarint(1);  // one entry
  w.PutU64(7);  // seq
  w.PutVarint(n);
  for (uint64_t f : frags) {
    w.PutVarint(f);
  }
  return w.Take();
}

TEST(DecodeSafety, NakHandBuiltBaselineDecodes) {
  auto nak = NakPacket::Unmarshal(HandBuiltNak(2, {1, 3}));
  ASSERT_TRUE(nak.ok()) << nak.status().ToString();
  ASSERT_EQ(nak->missing.size(), 1u);
  EXPECT_EQ(nak->missing[0].seq, 7u);
  EXPECT_EQ(nak->missing[0].frags, (std::vector<uint16_t>{1, 3}));
}

TEST(DecodeSafety, NakRejectsTruncatedFragmentList) {
  EXPECT_FALSE(NakPacket::Unmarshal(HandBuiltNak(3, {1, 3})).ok());
  Bytes b = HandBuiltNak(2, {1, 300});
  b.pop_back();  // cut inside the two-byte varint of the last index
  EXPECT_FALSE(NakPacket::Unmarshal(b).ok());
}

TEST(DecodeSafety, NakRejectsImplausibleFragmentCount) {
  // A count far beyond the remaining bytes must fail before sizing anything.
  EXPECT_FALSE(NakPacket::Unmarshal(HandBuiltNak(0xFFFFFFFFFFull, {1, 3})).ok());
}

TEST(DecodeSafety, NakRejectsFragmentIndexAbove0xFFFF) {
  ASSERT_TRUE(NakPacket::Unmarshal(HandBuiltNak(1, {0xFFFF})).ok());
  EXPECT_FALSE(NakPacket::Unmarshal(HandBuiltNak(1, {0x10000})).ok());
  EXPECT_FALSE(NakPacket::Unmarshal(HandBuiltNak(2, {1, 0xFFFFFFFFFFull})).ok());
}

TEST(DecodeSafety, NakRejectsTrailingGarbage) {
  Bytes b = HandBuiltNak(2, {1, 3});
  b.push_back(0x00);
  EXPECT_FALSE(NakPacket::Unmarshal(b).ok());
}

TEST(DecodeSafety, NakRejectsAnUnknownVersion) {
  Bytes b = HandBuiltNak(2, {1, 3});
  b[0] = static_cast<uint8_t>(kNakVersion + 1);
  EXPECT_FALSE(NakPacket::Unmarshal(b).ok());
}

}  // namespace
}  // namespace ibus
