#include "src/proto/packets.h"

namespace ibus {

// wirecheck: codec(data_packet, version=0)
Bytes DataPacket::Marshal() const {  // hotlint: allow(hot-by-value) -- serialization boundary: NRVO into the send buffer
  WireWriter w;
  w.PutU64(stream_id);
  w.PutU64(seq);
  w.PutU16(frag_index);
  w.PutU16(frag_count);
  w.PutRaw(chunk);
  return w.Take();
}

// wirecheck: codec(data_packet, version=0)
Result<DataPacket> DataPacket::Unmarshal(const Bytes& payload) {
  WireReader r(payload);
  DataPacket p;
  auto stream = r.ReadU64();
  auto seq = r.ReadU64();
  auto idx = r.ReadU16();
  auto cnt = r.ReadU16();
  if (!stream.ok() || !seq.ok() || !idx.ok() || !cnt.ok()) {
    return DataLoss("data packet: truncated header");
  }
  p.stream_id = *stream;
  p.seq = *seq;
  p.frag_index = *idx;
  p.frag_count = *cnt;
  if (p.frag_count == 0 || p.frag_index >= p.frag_count) {
    return DataLoss("data packet: bad fragment indices");
  }
  // wirecheck: op(raw) -- the fragment chunk is the unread tail of the packet, sliced without a length prefix
  p.chunk = Bytes(payload.begin() + static_cast<ptrdiff_t>(r.position()), payload.end());
  return p;
}

// wirecheck: codec(batch_packet, version=0)
Bytes BatchPacket::Marshal() const {  // hotlint: allow(hot-by-value) -- serialization boundary: NRVO into the send buffer
  WireWriter w;
  w.PutU64(stream_id);
  w.PutU64(first_seq);
  w.PutVarint(messages.size());
  for (const Bytes& m : messages) {
    w.PutBytes(m);
  }
  return w.Take();
}

// wirecheck: codec(batch_packet, version=0)
Result<BatchPacket> BatchPacket::Unmarshal(const Bytes& payload) {
  WireReader r(payload);
  BatchPacket p;
  auto stream = r.ReadU64();
  auto first = r.ReadU64();
  auto count = r.ReadVarint();
  if (!stream.ok() || !first.ok() || !count.ok()) {
    return DataLoss("batch packet: truncated header");
  }
  p.stream_id = *stream;
  p.first_seq = *first;
  if (*count > r.remaining()) {
    return DataLoss("batch packet: implausible count");
  }
  p.messages.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto m = r.ReadBytes();
    if (!m.ok()) {
      return m.status();
    }
    p.messages.push_back(m.take());
  }
  if (!r.AtEnd()) {
    return DataLoss("batch packet: trailing bytes");
  }
  return p;
}

// wirecheck: codec(heartbeat_packet, version=0)
Bytes HeartbeatPacket::Marshal() const {  // hotlint: allow(hot-by-value) -- serialization boundary: NRVO into the send buffer
  WireWriter w;
  w.PutU64(stream_id);
  w.PutU64(highest_seq);
  w.PutU64(lowest_retained);
  return w.Take();
}

// wirecheck: codec(heartbeat_packet, version=0)
Result<HeartbeatPacket> HeartbeatPacket::Unmarshal(const Bytes& payload) {
  WireReader r(payload);
  HeartbeatPacket p;
  auto stream = r.ReadU64();
  auto high = r.ReadU64();
  auto low = r.ReadU64();
  if (!stream.ok() || !high.ok() || !low.ok()) {
    return DataLoss("heartbeat packet: truncated");
  }
  if (!r.AtEnd()) {
    return DataLoss("heartbeat packet: trailing bytes");
  }
  p.stream_id = *stream;
  p.highest_seq = *high;
  p.lowest_retained = *low;
  return p;
}

// wirecheck: codec(nak_packet, version=1)
Bytes NakPacket::Marshal() const {  // hotlint: allow(hot-by-value) -- serialization boundary: NRVO into the send buffer
  WireWriter w;
  w.PutU8(kNakVersion);
  w.PutU64(stream_id);
  w.PutVarint(missing.size());
  for (const NakEntry& e : missing) {
    w.PutU64(e.seq);
    w.PutVarint(e.frags.size());
    for (uint16_t f : e.frags) {
      w.PutVarint(f);
    }
  }
  return w.Take();
}

// wirecheck: codec(nak_packet, version=1)
Result<NakPacket> NakPacket::Unmarshal(const Bytes& payload) {
  WireReader r(payload);
  NakPacket p;
  auto version = r.ReadU8();
  if (!version.ok() || *version != kNakVersion) {
    return DataLoss("nak packet: truncated or unknown version");
  }
  auto stream = r.ReadU64();
  auto count = r.ReadVarint();
  if (!stream.ok() || !count.ok()) {
    return DataLoss("nak packet: truncated");
  }
  p.stream_id = *stream;
  if (*count > r.remaining()) {
    return DataLoss("nak packet: implausible count");
  }
  p.missing.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto seq = r.ReadU64();
    auto n = r.ReadVarint();
    if (!seq.ok() || !n.ok()) {
      return DataLoss("nak packet: truncated entry");
    }
    if (*n > r.remaining()) {
      return DataLoss("nak packet: implausible fragment count");
    }
    NakEntry& e = p.missing.emplace_back();
    e.seq = *seq;
    e.frags.reserve(*n);
    for (uint64_t j = 0; j < *n; ++j) {
      auto f = r.ReadVarint();
      if (!f.ok()) {
        return f.status();
      }
      if (*f > 0xFFFF) {
        return DataLoss("nak packet: fragment index out of range");
      }
      e.frags.push_back(static_cast<uint16_t>(*f));
    }
  }
  if (!r.AtEnd()) {
    return DataLoss("nak packet: trailing bytes");
  }
  return p;
}

}  // namespace ibus
