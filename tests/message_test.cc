#include "src/bus/message.h"

#include <gtest/gtest.h>

#include "src/types/data_object.h"

namespace ibus {
namespace {

TEST(MessageTest, FullRoundTrip) {
  Message m;
  m.subject = "news.equity.gmc";
  m.reply_subject = "_inbox.h1.p5000.1";
  m.type_name = "story";
  m.sender = "dj-adapter";
  m.certified_id = 77;
  m.publisher_id = 0xABCD1234;
  m.hops = 3;
  m.via = "_router:NY";
  m.trace_id = 0x1234567890ull;
  m.trace_hop = 5;
  m.payload = ToBytes("payload bytes");

  auto back = Message::Unmarshal(m.Marshal());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->subject, m.subject);
  EXPECT_EQ(back->reply_subject, m.reply_subject);
  EXPECT_EQ(back->type_name, m.type_name);
  EXPECT_EQ(back->sender, m.sender);
  EXPECT_EQ(back->certified_id, 77u);
  EXPECT_EQ(back->publisher_id, 0xABCD1234u);
  EXPECT_EQ(back->hops, 3);
  EXPECT_EQ(back->via, "_router:NY");
  EXPECT_EQ(back->trace_id, 0x1234567890ull);
  EXPECT_EQ(back->trace_hop, 5);
  EXPECT_EQ(back->payload, m.payload);
}

TEST(MessageTest, DefaultsRoundTrip) {
  Message m;
  m.subject = "s";
  auto back = Message::Unmarshal(m.Marshal());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->subject, "s");
  EXPECT_TRUE(back->reply_subject.empty());
  EXPECT_EQ(back->certified_id, 0u);
  EXPECT_EQ(back->hops, 0);
  EXPECT_EQ(back->trace_id, 0u);
  EXPECT_EQ(back->trace_hop, 0);
  EXPECT_TRUE(back->payload.empty());
}

TEST(MessageTest, TruncationRejected) {
  Message m;
  m.subject = "news.equity.gmc";
  m.payload = ToBytes("data");
  Bytes wire = m.Marshal();
  for (size_t cut : {size_t{0}, wire.size() / 2, wire.size() - 1}) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(Message::Unmarshal(truncated).ok()) << "cut=" << cut;
  }
}

TEST(MessageTest, PeekTraceIdAgreesWithUnmarshal) {
  Message traced;
  traced.subject = "news.equity.gmc";
  traced.sender = "dj-adapter";
  traced.via = "_router:NY";
  traced.trace_id = 0xFEEDFACEull;
  traced.trace_hop = 2;
  traced.payload = ToBytes("payload bytes");
  Message untraced = traced;
  untraced.trace_id = 0;
  for (const Message& m : {traced, untraced}) {
    const Bytes wire = m.Marshal();
    auto peek = Message::PeekTraceId(wire);
    ASSERT_TRUE(peek.ok());
    EXPECT_EQ(*peek, m.trace_id);
    // Every strict prefix (truncated anywhere, including inside the payload) and any
    // trailing garbage fail both ways.
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      Bytes truncated(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
      EXPECT_FALSE(Message::Unmarshal(truncated).ok()) << "cut=" << cut;
      EXPECT_FALSE(Message::PeekTraceId(truncated).ok()) << "cut=" << cut;
    }
    Bytes trailing = wire;
    trailing.push_back(0);
    EXPECT_FALSE(Message::Unmarshal(trailing).ok());
    EXPECT_FALSE(Message::PeekTraceId(trailing).ok());
  }
}

TEST(MessageTest, ForObjectAndDecode) {
  auto story = MakeObject("story", {{"headline", Value("Chips up")},
                                    {"serial", Value(int64_t{12})}});
  Message m = Message::ForObject("news.equity.tsm", *story);
  EXPECT_EQ(m.subject, "news.equity.tsm");
  EXPECT_EQ(m.type_name, "story");
  auto decoded = m.DecodeObject();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(**decoded, *story);
}

TEST(MessageTest, DecodeWithoutTypeNameFails) {
  Message m;
  m.subject = "raw.bytes";
  m.payload = ToBytes("not an object");
  EXPECT_EQ(m.DecodeObject().status().code(), StatusCode::kFailedPrecondition);
}

TEST(MessageTest, DecodeCorruptObjectFails) {
  Message m;
  m.subject = "s";
  m.type_name = "story";
  m.payload = ToBytes("garbage that is not a marshalled object");
  EXPECT_FALSE(m.DecodeObject().ok());
}

}  // namespace
}  // namespace ibus
