// Fuzz target: the bus port's decode path — the frame parser, then the transport
// packet decoder its frame type selects (DATA, BATCH, HEARTBEAT, NAK), in the order
// BusDaemon::HandleDatagram runs them on every datagram a peer sends.
#include "fuzz/driver.h"
#include "src/proto/packets.h"
#include "src/wire/wire.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ibus::Bytes input(data, data + size);
  auto frame = ibus::ParseFrame(input);
  if (!frame.ok()) {
    return 0;
  }
  switch (frame->frame_type) {
    case ibus::kPktData:
      (void)ibus::DataPacket::Unmarshal(frame->payload);
      break;
    case ibus::kPktBatch:
      (void)ibus::BatchPacket::Unmarshal(frame->payload);
      break;
    case ibus::kPktHeartbeat:
      (void)ibus::HeartbeatPacket::Unmarshal(frame->payload);
      break;
    case ibus::kPktNak:
      (void)ibus::NakPacket::Unmarshal(frame->payload);
      break;
    default:
      break;
  }
  return 0;
}
