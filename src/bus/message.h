// Bus messages: a subject label plus an opaque payload, with the few optional header
// fields the control protocols need (reply subject for request/reply and discovery,
// type name for self-describing data objects, certified-delivery id). The core
// attaches no further semantics (paper P1).
#ifndef SRC_BUS_MESSAGE_H_
#define SRC_BUS_MESSAGE_H_

#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/types/data_object.h"

namespace ibus {

struct Message {
  std::string subject;
  std::string reply_subject;  // where responses should be published (may be empty)
  std::string type_name;      // set when the payload is a marshalled DataObject
  std::string sender;         // client name, informational only
  uint64_t certified_id = 0;  // nonzero for guaranteed (certified) delivery
  uint64_t publisher_id = 0;  // stable id of the publishing client (certified dedup)
  uint8_t hops = 0;           // times forwarded by information routers (loop cap)
  std::string via;            // name of the last router that forwarded this message
  uint64_t trace_id = 0;      // nonzero when this message's path is being traced
  uint8_t trace_hop = 0;      // bumped at each router traversal (see src/telemetry)
  Bytes payload;

  Bytes Marshal() const;
  static Result<Message> Unmarshal(const Bytes& b);

  // Reads only the leading subject field from a marshalled message — cheap enough
  // for per-subject flow accounting on the publish hot path, where a full Unmarshal
  // (which copies the payload) would be wasteful. The view aliases `b` and is valid
  // only while `b` lives.
  static Result<std::string_view> PeekSubject(const Bytes& b);

  // Reads the trace_id of a marshalled message without allocating: the strings and
  // the payload are skipped, not copied. Validates the whole envelope like Unmarshal
  // (truncation and trailing bytes fail), so the two agree on every input. Lets the
  // publish path decode only the traced messages.
  static Result<uint64_t> PeekTraceId(const Bytes& b);

  // Convenience: build a message carrying a marshalled data object.
  static Message ForObject(std::string subject, const DataObject& obj);

  // Convenience: decode the payload as a data object (requires type_name set).
  Result<DataObjectPtr> DecodeObject() const;
};

// Well-known control subjects used by the bus control plane (reserved namespace,
// see src/subject/subject.h).
inline constexpr char kSubQuerySubject[] = "_ibus.sub.query";  // buslint: allow(reserved-subject)
inline constexpr char kSubEventSubject[] = "_ibus.sub.event";  // buslint: allow(reserved-subject)

}  // namespace ibus

#endif  // SRC_BUS_MESSAGE_H_
