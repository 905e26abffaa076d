// Regenerates the committed seed corpus under fuzz/corpus/. Run after a
// deliberate wire-format change (alongside `wirecheck --update`):
//
//   ./build/fuzz/fuzz_make_seeds fuzz/corpus
//
// Seeds are valid encodings — libFuzzer mutates from there, and the fallback
// driver derives prefixes and byte-flips from them.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/bus/message.h"
#include "src/proto/packets.h"
#include "src/telemetry/busstat.h"
#include "src/wire/wire.h"
#include "src/telemetry/metrics.h"

namespace {

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const ibus::Bytes& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.string().c_str(), name.c_str(),
              bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];

  WriteSeed(root / "parse_frame", "frame_small",
            ibus::FrameMessage(5, {1, 2, 3}));
  WriteSeed(root / "parse_frame", "frame_empty", ibus::FrameMessage(7, {}));

  {
    ibus::Message m;
    m.subject = "market.equity.ibm";
    m.type_name = "quote";
    m.sender = "client-7";
    m.payload = {9, 8, 7, 6};
    WriteSeed(root / "message_unmarshal", "message_quote", m.Marshal());
  }
  {
    ibus::Message m;
    m.subject = "a";
    WriteSeed(root / "message_unmarshal", "message_minimal", m.Marshal());
  }

  // Whole bus-port frames, one per transport packet type.
  {
    ibus::DataPacket p;
    p.stream_id = 3;
    p.seq = 11;
    p.frag_index = 1;
    p.frag_count = 5;
    p.chunk = {1, 2, 3, 4, 5};
    WriteSeed(root / "proto_packet", "data_fragment",
              ibus::FrameMessage(ibus::kPktData, p.Marshal()));
  }
  {
    ibus::BatchPacket p;
    p.stream_id = 3;
    p.first_seq = 20;
    p.messages = {ibus::Bytes{1, 2}, ibus::Bytes{3, 4, 5}};
    WriteSeed(root / "proto_packet", "batch",
              ibus::FrameMessage(ibus::kPktBatch, p.Marshal()));
  }
  {
    ibus::HeartbeatPacket p;
    p.stream_id = 3;
    p.highest_seq = 40;
    p.lowest_retained = 12;
    WriteSeed(root / "proto_packet", "heartbeat",
              ibus::FrameMessage(ibus::kPktHeartbeat, p.Marshal()));
  }
  {
    ibus::NakPacket p;
    p.stream_id = 3;
    p.missing = {{7, {1, 3}}, {9, {}}, {10, {0, 300}}};
    WriteSeed(root / "proto_packet", "nak_fragments",
              ibus::FrameMessage(ibus::kPktNak, p.Marshal()));
  }

  {
    ibus::telemetry::MetricsRegistry registry;
    registry.GetCounter("bus.publishes")->Inc(3);
    registry.GetCounter("bus.deliveries")->Inc(7);
    ibus::telemetry::StatSeriesEncoder enc("seed-node", 2);
    WriteSeed(root / "statseries_decode", "sample_keyframe",
              enc.EncodeSample(registry, nullptr, nullptr, 100, 1));
    registry.GetCounter("bus.publishes")->Inc(1);
    WriteSeed(root / "statseries_decode", "sample_delta",
              enc.EncodeSample(registry, nullptr, nullptr, 200, 2));
  }
  return 0;
}
