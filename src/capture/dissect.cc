#include "src/capture/dissect.h"

#include <algorithm>

#include "src/bus/message.h"
#include "src/proto/packets.h"
#include "src/subject/subject.h"
#include "src/wire/wire.h"

namespace ibus::capture {

namespace {

// Router link frame types; allocated in src/router/router.cc (file-local there, so
// the values are mirrored here — they are wire format, not API).
constexpr uint8_t kLinkAdvertFrame = 50;
constexpr uint8_t kLinkMessageFrame = 51;

std::string U(uint64_t v) { return std::to_string(v); }

DissectNode Leaf(std::string label) { return DissectNode{std::move(label), {}}; }

// The leading fields of a marshalled Message, parsed without requiring the payload
// bytes to be present — fragment 0 of a large message carries the whole envelope but
// only the first chunk of the payload.
struct EnvelopePrefix {
  bool ok = false;
  std::string subject;
  std::string reply_subject;
  std::string type_name;
  std::string sender;
  std::string via;
  uint64_t certified_id = 0;
  uint64_t publisher_id = 0;
  uint64_t trace_id = 0;
  uint8_t hops = 0;
  uint8_t trace_hop = 0;
  uint64_t declared_payload = 0;  // payload length the envelope promises
  size_t envelope_bytes = 0;      // bytes consumed before the payload data
};

EnvelopePrefix ParseEnvelopePrefix(const uint8_t* data, size_t size) {
  EnvelopePrefix e;
  WireReader r(data, size);
  auto subject = r.ReadString();
  auto reply = r.ReadString();
  auto type_name = r.ReadString();
  auto sender = r.ReadString();
  auto certified = r.ReadU64();
  auto publisher = r.ReadU64();
  auto hops = r.ReadU8();
  auto via = r.ReadString();
  auto trace_id = r.ReadU64();
  auto trace_hop = r.ReadU8();
  auto payload_len = r.ReadVarint();
  if (!subject.ok() || !reply.ok() || !type_name.ok() || !sender.ok() ||
      !certified.ok() || !publisher.ok() || !hops.ok() || !via.ok() || !trace_id.ok() ||
      !trace_hop.ok() || !payload_len.ok()) {
    return e;
  }
  e.ok = true;
  e.subject = subject.take();
  e.reply_subject = reply.take();
  e.type_name = type_name.take();
  e.sender = sender.take();
  e.via = via.take();
  e.certified_id = *certified;
  e.publisher_id = *publisher;
  e.hops = *hops;
  e.trace_hop = *trace_hop;
  e.trace_id = *trace_id;
  e.declared_payload = *payload_len;
  e.envelope_bytes = r.position();
  return e;
}

// Dissects one (possibly payload-truncated) marshalled Message into a subtree and
// folds its subject/goodput into the summary. `available` is how many bytes of this
// message actually sit in the frame (fragments carry fewer than declared).
void DissectMessage(const uint8_t* data, size_t available, Dissection* d,
                    DissectNode* parent) {
  EnvelopePrefix e = ParseEnvelopePrefix(data, available);
  if (!e.ok) {
    parent->children.push_back(Leaf("message: <unparseable envelope>"));
    return;
  }
  DissectNode m;
  m.label = "message: subject=" + e.subject;
  m.children.push_back(Leaf("subject: " + e.subject));
  if (!e.reply_subject.empty()) {
    m.children.push_back(Leaf("reply_subject: " + e.reply_subject));
  }
  if (!e.type_name.empty()) {
    m.children.push_back(Leaf("type_name: " + e.type_name));
  }
  if (!e.sender.empty()) {
    m.children.push_back(Leaf("sender: " + e.sender));
  }
  if (e.certified_id != 0) {
    m.children.push_back(Leaf("certified_id: " + U(e.certified_id)));
  }
  if (e.publisher_id != 0) {
    m.children.push_back(Leaf("publisher_id: " + U(e.publisher_id)));
  }
  if (e.hops != 0) {
    m.children.push_back(Leaf("hops: " + U(e.hops) + " via=" + e.via));
  }
  if (e.trace_id != 0) {
    m.children.push_back(
        Leaf("trace: id=" + U(e.trace_id) + " hop=" + U(e.trace_hop)));
  }
  const size_t present =
      std::min<size_t>(e.declared_payload,
                       available > e.envelope_bytes ? available - e.envelope_bytes : 0);
  std::string pl = "payload: " + U(e.declared_payload) + " bytes";
  if (present < e.declared_payload) {
    pl += " (" + U(present) + " in this fragment)";
  }
  m.children.push_back(Leaf(pl));
  parent->children.push_back(std::move(m));

  d->subjects.push_back(e.subject);
  d->app_payload_bytes += present;
}

// Fast path of the above: subject only, no tree.
void PeekMessageSubject(const uint8_t* data, size_t size,
                        std::vector<std::string>* out) {
  WireReader r(data, size);
  if (auto s = r.ReadString(); s.ok()) {
    out->push_back(s.take());
  }
}

}  // namespace

std::string FrameKindName(uint8_t frame_type) {
  switch (frame_type) {
    case kPktData:
      return "data";
    case kPktBatch:
      return "batch";
    case kPktHeartbeat:
      return "heartbeat";
    case kPktNak:
      return "nak";
    case kPktClientRegister:
      return "client_register";
    case kPktClientMessage:
      return "client_message";
    case kPktSubscribe:
      return "subscribe";
    case kPktUnsubscribe:
      return "unsubscribe";
    case kPktClientDeliver:
      return "client_deliver";
    case kPktCertifiedAck:
      return "certified_ack";
    case kPktClientUnregister:
      return "client_unregister";
    case kLinkAdvertFrame:
      return "link_advert";
    case kLinkMessageFrame:
      return "link_message";
    default:
      return "unknown_" + std::to_string(frame_type);
  }
}

std::string RenderNakFragments(const std::vector<uint16_t>& frags) {
  if (frags.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < frags.size(); ++i) {
    out += (i ? "," : "") + U(frags[i]);
  }
  return out + "}";
}

Dissection DissectFrame(const Bytes& frame_bytes) {
  Dissection d;
  auto frame = ParseFrame(frame_bytes);
  if (!frame.ok()) {
    d.kind = "unparsed";
    d.root = Leaf("frame: <not a bus frame: " + frame.status().message() + ">");
    return d;
  }
  d.parsed = true;
  d.frame_type = frame->frame_type;
  d.kind = FrameKindName(frame->frame_type);
  const Bytes& p = frame->payload;
  d.root.label = "frame: " + d.kind + " payload_len=" + U(p.size());

  switch (frame->frame_type) {
    case kPktData: {
      auto pkt = DataPacket::Unmarshal(p);
      if (!pkt.ok()) {
        d.root.children.push_back(Leaf("data: <unparseable>"));
        break;
      }
      d.stream_id = pkt->stream_id;
      d.seqs.push_back(pkt->seq);
      d.frag_index = pkt->frag_index;
      d.frag_count = pkt->frag_count;
      DissectNode n;
      n.label = "data: stream=" + U(pkt->stream_id) + " seq=" + U(pkt->seq) +
                " frag=" + U(pkt->frag_index) + "/" + U(pkt->frag_count) +
                " chunk=" + U(pkt->chunk.size()) + "B";
      if (pkt->frag_index == 0) {
        // Fragment 0 (or the only fragment) begins with the Message envelope.
        DissectMessage(pkt->chunk.data(), pkt->chunk.size(), &d, &n);
      } else {
        // Continuation fragments carry raw payload bytes; the envelope was charged
        // on fragment 0, so everything here is application goodput.
        n.children.push_back(Leaf("continuation: " + U(pkt->chunk.size()) + "B"));
        d.app_payload_bytes += pkt->chunk.size();
      }
      d.root.children.push_back(std::move(n));
      break;
    }
    case kPktBatch: {
      auto pkt = BatchPacket::Unmarshal(p);
      if (!pkt.ok()) {
        d.root.children.push_back(Leaf("batch: <unparseable>"));
        break;
      }
      d.stream_id = pkt->stream_id;
      DissectNode n;
      n.label = "batch: stream=" + U(pkt->stream_id) + " first_seq=" +
                U(pkt->first_seq) + " messages=" + U(pkt->messages.size());
      for (size_t i = 0; i < pkt->messages.size(); ++i) {
        d.seqs.push_back(pkt->first_seq + i);
        DissectMessage(pkt->messages[i].data(), pkt->messages[i].size(), &d, &n);
      }
      d.root.children.push_back(std::move(n));
      break;
    }
    case kPktHeartbeat: {
      d.control = true;
      auto pkt = HeartbeatPacket::Unmarshal(p);
      if (pkt.ok()) {
        d.stream_id = pkt->stream_id;
        d.root.children.push_back(Leaf(
            "heartbeat: stream=" + U(pkt->stream_id) + " highest=" +
            U(pkt->highest_seq) + " lowest_retained=" + U(pkt->lowest_retained)));
      }
      break;
    }
    case kPktNak: {
      d.control = true;
      auto pkt = NakPacket::Unmarshal(p);
      if (pkt.ok()) {
        d.stream_id = pkt->stream_id;
        d.nak_missing = pkt->missing;
        std::string missing;  // e.g. missing=[7{1,3},9]
        for (const NakEntry& e : pkt->missing) {
          if (!missing.empty()) {
            missing += ",";
          }
          missing += U(e.seq) + RenderNakFragments(e.frags);
        }
        d.root.children.push_back(
            Leaf("nak: stream=" + U(pkt->stream_id) + " missing=[" + missing + "]"));
      }
      break;
    }
    case kPktClientRegister: {
      d.control = true;
      WireReader r(p);
      if (auto name = r.ReadString(); name.ok()) {
        d.root.children.push_back(Leaf("register: client=" + *name));
      }
      break;
    }
    case kPktClientUnregister:
      d.control = true;
      d.root.children.push_back(Leaf("unregister"));
      break;
    case kPktSubscribe: {
      d.control = true;
      WireReader r(p);
      auto sub_id = r.ReadU64();
      auto pattern = r.ReadString();
      if (sub_id.ok() && pattern.ok()) {
        d.root.children.push_back(
            Leaf("subscribe: sub_id=" + U(*sub_id) + " pattern=" + *pattern));
      }
      break;
    }
    case kPktUnsubscribe: {
      d.control = true;
      WireReader r(p);
      if (auto sub_id = r.ReadU64(); sub_id.ok()) {
        d.root.children.push_back(Leaf("unsubscribe: sub_id=" + U(*sub_id)));
      }
      break;
    }
    case kPktClientMessage:
      DissectMessage(p.data(), p.size(), &d, &d.root);
      break;
    case kPktClientDeliver: {
      WireReader r(p);
      auto count = r.ReadVarint();
      if (!count.ok()) {
        d.root.children.push_back(Leaf("deliver: <unparseable>"));
        break;
      }
      DissectNode n;
      std::string ids;
      bool ok = true;
      for (uint64_t i = 0; i < *count; ++i) {
        auto id = r.ReadU64();
        if (!id.ok()) {
          ok = false;
          break;
        }
        if (!ids.empty()) {
          ids += ",";
        }
        ids += U(*id);
      }
      n.label = "deliver: subs=[" + ids + "]";
      if (ok && r.remaining() > 0) {
        DissectMessage(p.data() + r.position(), r.remaining(), &d, &n);
      }
      d.root.children.push_back(std::move(n));
      break;
    }
    case kPktCertifiedAck:
      // Allocated in src/proto/packets.h; certified acks currently ride the bus as
      // "_ibus.cert." messages instead, so this stays opaque if it ever appears.
      d.control = true;
      d.root.children.push_back(Leaf("certified_ack: " + U(p.size()) + "B"));
      break;
    case kLinkAdvertFrame: {
      d.control = true;
      WireReader r(p);
      auto count = r.ReadVarint();
      if (!count.ok()) {
        break;
      }
      DissectNode n;
      n.label = "advert: patterns=" + U(*count);
      for (uint64_t i = 0; i < *count; ++i) {
        auto pat = r.ReadString();
        if (!pat.ok()) {
          break;
        }
        n.children.push_back(Leaf("pattern: " + *pat));
      }
      d.root.children.push_back(std::move(n));
      break;
    }
    case kLinkMessageFrame:
      DissectMessage(p.data(), p.size(), &d, &d.root);
      break;
    default:
      d.root.children.push_back(Leaf("opaque: " + U(p.size()) + "B"));
      break;
  }

  d.internal = !d.subjects.empty();
  for (const std::string& s : d.subjects) {
    if (!IsReservedSubject(s)) {
      d.internal = false;
      break;
    }
  }
  if (d.subjects.empty() && d.app_payload_bytes == 0 && !d.control) {
    d.control = true;  // nothing application-visible inside
  }
  return d;
}

std::vector<std::string> PeekSubjects(const Bytes& frame_bytes) {
  std::vector<std::string> subjects;
  auto frame = ParseFrame(frame_bytes);
  if (!frame.ok()) {
    return subjects;
  }
  const Bytes& p = frame->payload;
  switch (frame->frame_type) {
    case kPktData: {
      auto pkt = DataPacket::Unmarshal(p);
      if (pkt.ok() && pkt->frag_index == 0) {
        PeekMessageSubject(pkt->chunk.data(), pkt->chunk.size(), &subjects);
      }
      break;
    }
    case kPktBatch: {
      auto pkt = BatchPacket::Unmarshal(p);
      if (pkt.ok()) {
        for (const Bytes& m : pkt->messages) {
          PeekMessageSubject(m.data(), m.size(), &subjects);
        }
      }
      break;
    }
    case kPktClientMessage:
    case kLinkMessageFrame:
      PeekMessageSubject(p.data(), p.size(), &subjects);
      break;
    case kPktClientDeliver: {
      WireReader r(p);
      auto count = r.ReadVarint();
      if (!count.ok()) {
        break;
      }
      for (uint64_t i = 0; i < *count; ++i) {
        if (!r.ReadU64().ok()) {
          return subjects;
        }
      }
      if (r.remaining() > 0) {
        PeekMessageSubject(p.data() + r.position(), r.remaining(), &subjects);
      }
      break;
    }
    default:
      break;
  }
  return subjects;
}

std::string RenderTree(const DissectNode& node) {
  std::string out;
  struct Frame {
    const DissectNode* node;
    int depth;
  };
  std::vector<Frame> stack{{&node, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    out.append(static_cast<size_t>(f.depth) * 2, ' ');
    out += f.node->label;
    out += '\n';
    for (auto it = f.node->children.rbegin(); it != f.node->children.rend(); ++it) {
      stack.push_back({&*it, f.depth + 1});
    }
  }
  return out;
}

}  // namespace ibus::capture
