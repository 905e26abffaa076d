#include "src/bus/message.h"

#include "src/types/codec.h"
#include "src/wire/wire.h"

namespace ibus {

// wirecheck: codec(message, version=0)
// hotlint: hot
Bytes Message::Marshal() const {  // hotlint: allow(hot-by-value) -- serialization boundary: NRVO into the send buffer
  WireWriter w;
  w.PutString(subject);
  w.PutString(reply_subject);
  w.PutString(type_name);
  w.PutString(sender);
  w.PutU64(certified_id);
  w.PutU64(publisher_id);
  w.PutU8(hops);
  w.PutString(via);
  w.PutU64(trace_id);
  w.PutU8(trace_hop);
  w.PutBytes(payload);
  return w.Take();
}

// wirecheck: codec(message, version=0)
Result<Message> Message::Unmarshal(const Bytes& b) {  // hotlint: hot
  WireReader r(b);
  Message m;
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
  auto payload = r.ReadBytes();
  if (!subject.ok() || !reply.ok() || !type_name.ok() || !sender.ok() || !certified.ok() ||
      !publisher.ok() || !hops.ok() || !via.ok() || !trace_id.ok() || !trace_hop.ok() ||
      !payload.ok()) {
    return DataLoss("message: truncated");
  }
  if (!r.AtEnd()) {
    return DataLoss("message: trailing bytes");
  }
  m.hops = *hops;
  m.via = via.take();
  m.trace_id = *trace_id;
  m.trace_hop = *trace_hop;
  m.subject = subject.take();
  m.reply_subject = reply.take();
  m.type_name = type_name.take();
  m.sender = sender.take();
  m.certified_id = *certified;
  m.publisher_id = *publisher;
  m.payload = payload.take();
  return m;
}

Result<std::string_view> Message::PeekSubject(const Bytes& b) {
  WireReader r(b);
  auto subject = r.ReadStringView();
  if (!subject.ok()) {
    return DataLoss("message: truncated");
  }
  return *subject;
}

Result<uint64_t> Message::PeekTraceId(const Bytes& b) {
  WireReader r(b);
  auto subject = r.ReadStringView();
  auto reply = r.ReadStringView();
  auto type_name = r.ReadStringView();
  auto sender = r.ReadStringView();
  auto certified = r.ReadU64();
  auto publisher = r.ReadU64();
  auto hops = r.ReadU8();
  auto via = r.ReadStringView();
  auto trace_id = r.ReadU64();
  auto trace_hop = r.ReadU8();
  auto payload = r.ReadStringView();  // same varint-prefixed layout as PutBytes
  if (!subject.ok() || !reply.ok() || !type_name.ok() || !sender.ok() || !certified.ok() ||
      !publisher.ok() || !hops.ok() || !via.ok() || !trace_id.ok() || !trace_hop.ok() ||
      !payload.ok()) {
    return DataLoss("message: truncated");
  }
  if (!r.AtEnd()) {
    return DataLoss("message: trailing bytes");
  }
  return *trace_id;
}

Message Message::ForObject(std::string subject, const DataObject& obj) {
  Message m;
  m.subject = std::move(subject);
  m.type_name = obj.type_name();
  m.payload = MarshalObject(obj);
  return m;
}

Result<DataObjectPtr> Message::DecodeObject() const {
  if (type_name.empty()) {
    return FailedPrecondition("message carries no data object");
  }
  return UnmarshalObject(payload);
}

}  // namespace ibus
