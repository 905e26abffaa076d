// Protocol dissector for captured bus frames: parses the src/wire framing, the
// transport packets (src/proto), the client/daemon control plane, the router link
// frames, and the Message envelope (including the reserved "_ibus." internal
// namespace) into a typed protocol tree — the same layering the paper's appendix
// walks when it explains per-message overhead. Dissection is read-only and never
// trusts the buffer: every parse is bounds-checked by WireReader.
#ifndef SRC_CAPTURE_DISSECT_H_
#define SRC_CAPTURE_DISSECT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/proto/packets.h"

namespace ibus::capture {

// One node of the protocol tree: a rendered "name: value" label plus children.
struct DissectNode {
  std::string label;
  std::vector<DissectNode> children;
};

// Flat summary of one frame, extracted alongside the tree. The bandwidth
// accountant and the reassembler consume these fields; reports render the tree.
struct Dissection {
  bool parsed = false;     // false: not a valid bus frame (corrupt or foreign)
  uint8_t frame_type = 0;
  std::string kind;        // stable lower-case name of the frame type

  // Reliable-transport coordinates (data/batch/heartbeat/nak frames).
  uint64_t stream_id = 0;
  std::vector<uint64_t> seqs;  // sequences carried (batch: first..first+n-1)
  uint16_t frag_index = 0;
  uint16_t frag_count = 1;
  std::vector<NakEntry> nak_missing;  // what a NAK asks to retransmit

  // Message envelopes found inside the frame (data frag 0, batch, client
  // message/deliver, router link message).
  std::vector<std::string> subjects;
  bool internal = false;   // every subject is in the reserved "_ibus." namespace
  bool control = false;    // protocol machinery with no application message inside
  size_t app_payload_bytes = 0;  // application bytes (Message.payload sizes)

  DissectNode root;
};

// Stable name for a frame type ("data", "client_message", "link_advert", ...).
std::string FrameKindName(uint8_t frame_type);

// Dissects one captured frame (the raw bytes that crossed the medium).
Dissection DissectFrame(const Bytes& frame_bytes);

// Cheap subject extraction for capture-time filtering: returns the subjects the
// full dissector would report, without building the tree.
std::vector<std::string> PeekSubjects(const Bytes& frame_bytes);

// The fragments a NAK entry names, in braces ("{1,3}"); "" for the whole message.
std::string RenderNakFragments(const std::vector<uint16_t>& frags);

// Renders the tree, one node per line, two-space indentation per depth.
std::string RenderTree(const DissectNode& node);

}  // namespace ibus::capture

#endif  // SRC_CAPTURE_DISSECT_H_
