// Per-layer replays: the workload's own inputs (its messages, subjects,
// subscriptions, and the frames one consumer received in the tapped run) fed
// straight into each layer's public API, timed per call, with the allocations of
// each call counted by the hook. The router has no replay: it is measured in a
// real run of the wan_certified topology (the ledger run, busbench.cc).
#include <algorithm>
#include <limits>
#include <utility>

#include "busbench/busbench.h"
#include "src/proto/packets.h"
#include "src/proto/reliable.h"
#include "src/subject/subject.h"
#include "src/subject/trie.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sketch.h"
#include "src/wire/wire.h"

namespace busbench {
namespace {

using ibus::Message;

// Each timed replay runs for at least this long, in whole passes over its input.
constexpr int64_t kMinReplayNs = 20 * 1000 * 1000;
constexpr size_t kMaxReplayMsgs = 4000;
constexpr ibus::Port kBusPort = 7500;

// Keeps replayed results observable so the calls cannot be optimized away.
volatile uint64_t g_sink = 0;

struct Timed {
  double ns_per_call = 0;
  double allocs_per_call = 0;
};

// Repeats {prep(); body();} until kMinReplayNs of body time. Only body() is timed
// and only its allocations are counted; each pass makes `calls` calls.
template <typename Prep, typename Body>
Timed TimePasses(size_t calls, Prep prep, Body body) {
  int64_t ns = 0;
  uint64_t allocs = 0;
  uint64_t total_calls = 0;
  if (calls == 0) {
    return Timed{};
  }
  while (ns < kMinReplayNs) {
    prep();
    const uint64_t a0 = AllocTotal().count;
    const int64_t t0 = WallNs();
    body();
    ns += WallNs() - t0;
    allocs += AllocTotal().count - a0;
    total_calls += calls;
  }
  return Timed{static_cast<double>(ns) / static_cast<double>(total_calls),
               static_cast<double>(allocs) / static_cast<double>(total_calls)};
}

template <typename Body>
Timed TimeCalls(size_t calls, Body body) {
  return TimePasses(calls, [] {}, body);
}

// Accumulates single timed calls made from inside a simulation-driven replay.
struct CallTimer {
  int64_t ns = 0;
  uint64_t allocs = 0;
  uint64_t calls = 0;

  template <typename F>
  void Time(F&& f) {
    const uint64_t a0 = AllocTotal().count;
    const int64_t t0 = WallNs();
    f();
    ns += WallNs() - t0;
    allocs += AllocTotal().count - a0;
    ++calls;
  }
  double ns_per_call() const {
    return calls == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
  double allocs_per_call() const {
    return calls == 0 ? 0 : static_cast<double>(allocs) / static_cast<double>(calls);
  }
};

// The application messages as the publishing client builds them.
std::vector<Message> Messages(const ReplayInput& in, size_t n) {
  std::vector<Message> out(n);
  for (size_t i = 0; i < n; ++i) {
    Message& m = out[i];
    m.subject = in.plan->subjects[in.plan->msg_subject[i]];
    m.sender = "publisher";
    m.publisher_id = 1;
    m.payload = in.plan->filler;
    WriteHeader(&m.payload, 0, i, in.due[i]);
  }
  return out;
}

void CodecReplays(const std::vector<Message>& msgs, LayerMetrics* out) {
  std::vector<Bytes> wire(msgs.size());
  Timed marshal = TimeCalls(msgs.size(), [&] {
    for (size_t i = 0; i < msgs.size(); ++i) {
      wire[i] = msgs[i].Marshal();
    }
  });
  Timed unmarshal = TimeCalls(msgs.size(), [&] {
    for (const Bytes& b : wire) {
      g_sink = g_sink + (Message::Unmarshal(b).ok() ? 1 : 0);
    }
  });
  Timed peek = TimeCalls(msgs.size(), [&] {
    for (const Bytes& b : wire) {
      auto s = Message::PeekSubject(b);
      g_sink = g_sink + (s.ok() ? s->size() : 0);
    }
  });
  (*out)["bus.message_marshal_ns"] = {marshal.ns_per_call, "ns"};
  (*out)["bus.message_marshal_allocs"] = {marshal.allocs_per_call, "count"};
  (*out)["bus.message_unmarshal_ns"] = {unmarshal.ns_per_call, "ns"};
  (*out)["bus.message_unmarshal_allocs"] = {unmarshal.allocs_per_call, "count"};
  (*out)["bus.peek_subject_ns"] = {peek.ns_per_call, "ns"};
}

void WireReplays(const FrameLog& frames, LayerMetrics* out) {
  std::vector<ibus::ParsedFrame> parsed;
  for (const ibus::CapturedFrame& f : frames.watched) {
    auto p = ibus::ParseFrame(f.payload);
    if (p.ok()) {
      parsed.push_back(p.take());
    }
  }
  Timed frame = TimeCalls(parsed.size(), [&] {
    for (const ibus::ParsedFrame& p : parsed) {
      g_sink = g_sink + ibus::FrameMessage(p.frame_type, p.payload).size();
    }
  });
  Timed parse = TimeCalls(frames.watched.size(), [&] {
    for (const ibus::CapturedFrame& f : frames.watched) {
      g_sink = g_sink + (ibus::ParseFrame(f.payload).ok() ? 1 : 0);
    }
  });
  size_t packets = 0;
  for (const ibus::ParsedFrame& p : parsed) {
    packets += p.frame_type == ibus::kPktData || p.frame_type == ibus::kPktBatch ? 1 : 0;
  }
  Timed unmarshal = TimeCalls(packets, [&] {
    for (const ibus::ParsedFrame& p : parsed) {
      if (p.frame_type == ibus::kPktData) {
        g_sink = g_sink + (ibus::DataPacket::Unmarshal(p.payload).ok() ? 1 : 0);
      } else if (p.frame_type == ibus::kPktBatch) {
        g_sink = g_sink + (ibus::BatchPacket::Unmarshal(p.payload).ok() ? 1 : 0);
      }
    }
  });
  (*out)["wire.frame_message_ns"] = {frame.ns_per_call, "ns"};
  (*out)["wire.frame_message_allocs"] = {frame.allocs_per_call, "count"};
  (*out)["wire.parse_frame_ns"] = {parse.ns_per_call, "ns"};
  (*out)["wire.parse_frame_allocs"] = {parse.allocs_per_call, "count"};
  (*out)["proto.packet_unmarshal_ns"] = {unmarshal.ns_per_call, "ns"};
  (*out)["proto.packet_unmarshal_allocs"] = {unmarshal.allocs_per_call, "count"};
}

// The first consumer daemon's subscription set, rebuilt in a fresh trie.
void SubjectReplays(const ReplayInput& in, const std::vector<Message>& msgs,
                    LayerMetrics* out) {
  const std::vector<std::string>& patterns = in.plan->patterns[0];
  std::unique_ptr<ibus::SubjectTrie> trie;
  Timed insert = TimePasses(
      patterns.size(), [&] { trie = std::make_unique<ibus::SubjectTrie>(); },
      [&] {
        for (size_t i = 0; i < patterns.size(); ++i) {
          g_sink = g_sink + (trie->Insert(patterns[i], i).ok() ? 1 : 0);
        }
      });
  std::vector<uint64_t> matches;
  uint64_t matched = 0;
  for (const Message& m : msgs) {
    matches.clear();
    trie->Match(m.subject, &matches);
    matched += matches.size();
  }
  Timed match = TimeCalls(msgs.size(), [&] {
    for (const Message& m : msgs) {
      matches.clear();
      trie->Match(m.subject, &matches);
    }
  });
  Timed validate = TimeCalls(msgs.size(), [&] {
    for (const Message& m : msgs) {
      g_sink = g_sink + (ibus::ValidateSubject(m.subject).ok() ? 1 : 0);
    }
  });
  (*out)["subject.insert_ns"] = {insert.ns_per_call, "ns"};
  (*out)["subject.insert_allocs"] = {insert.allocs_per_call, "count"};
  (*out)["subject.match_ns"] = {match.ns_per_call, "ns"};
  (*out)["subject.match_allocs"] = {match.allocs_per_call, "count"};
  (*out)["subject.matches_per_call"] = {
      static_cast<double>(matched) / static_cast<double>(std::max<size_t>(msgs.size(), 1)),
      "count"};
  (*out)["subject.validate_ns"] = {validate.ns_per_call, "ns"};
}

void TelemetryReplays(const ReplayInput& in, const std::vector<Message>& msgs,
                      LayerMetrics* out) {
  ibus::telemetry::TopKSketch sketch;
  Timed offer = TimeCalls(msgs.size(), [&] {
    for (const Message& m : msgs) {
      sketch.Offer(m.subject);
    }
  });
  g_sink = g_sink + sketch.offered();
  (*out)["telemetry.sketch_offer_ns"] = {offer.ns_per_call, "ns"};
  (*out)["telemetry.sketch_offer_allocs"] = {offer.allocs_per_call, "count"};
#if IBUS_TELEMETRY
  // Recording compiles to nothing without telemetry: the metric is then absent.
  std::vector<int64_t> lat;
  for (int64_t l : in.latencies) {
    if (l != std::numeric_limits<int64_t>::max()) {
      lat.push_back(l);
    }
  }
  ibus::telemetry::LatencyHistogram hist;
  Timed record = TimeCalls(lat.size(), [&] {
    for (int64_t l : lat) {
      hist.Record(l);
    }
  });
  g_sink = g_sink + hist.count();
  (*out)["telemetry.histogram_record_ns"] = {record.ns_per_call, "ns"};
#else
  (void)in;
#endif
}

// ScheduleAt + Step with the network's event shape: a closure that owns one
// received frame, over a queue holding a steady backlog of pending events.
void SimReplay(const FrameLog& frames, LayerMetrics* out) {
  if (frames.watched.empty()) {
    return;
  }
  constexpr size_t kBacklog = 64;
  const size_t n = frames.watched.size();
  ibus::Simulator sim;
  std::vector<ibus::Datagram> datagrams;
  for (size_t i = 0; i < kBacklog; ++i) {
    sim.ScheduleAt(static_cast<SimTime>(i), [] {}, "replay");
  }
  Timed step = TimePasses(
      n,
      [&] {
        datagrams.clear();
        for (const ibus::CapturedFrame& f : frames.watched) {
          ibus::Datagram d;
          d.src_host = f.src_host;
          d.dst_host = f.dst_host;
          d.payload = f.payload;
          datagrams.push_back(std::move(d));
        }
      },
      [&] {
        for (ibus::Datagram& d : datagrams) {
          sim.ScheduleAt(sim.Now() + static_cast<SimTime>(kBacklog),
                         [d = std::move(d)] { g_sink = g_sink + d.payload.size(); },
                         "replay");
          sim.Step();
        }
      });
  (*out)["sim.schedule_step_ns"] = {step.ns_per_call, "ns"};
  (*out)["sim.schedule_step_allocs"] = {step.allocs_per_call, "count"};
}

// A private one-LAN network for the reliable-transport replays.
struct MiniLan {
  ibus::Simulator sim;
  ibus::Network net{&sim, 1};
  std::vector<ibus::HostId> hosts;

  explicit MiniLan(size_t n_hosts) {
    ibus::SegmentId lan = net.AddSegment();
    for (size_t i = 0; i < n_hosts; ++i) {
      hosts.push_back(net.AddHost("h" + std::to_string(i), lan));
    }
  }
};

void SenderReplay(const ReplayInput& in, const std::vector<Message>& msgs,
                  LayerMetrics* out) {
  MiniLan lan(2);
  auto tx = lan.net.OpenSocket(lan.hosts[0], kBusPort, [](const ibus::Datagram&) {});
  auto rx = lan.net.OpenSocket(lan.hosts[1], kBusPort, [](const ibus::Datagram&) {});
  if (!tx.ok() || !rx.ok()) {
    return;
  }
  ibus::ReliableConfig cfg;
  cfg.batching_enabled = in.w->batching;
  ibus::ReliableSender sender(&lan.sim, tx->get(), kBusPort, 1, cfg);
  CallTimer timer;
  for (size_t i = 0; i < msgs.size(); ++i) {
    lan.sim.RunUntil(in.due[i]);
    Bytes bytes = msgs[i].Marshal();
    timer.Time([&] { g_sink = g_sink + (sender.Publish(std::move(bytes)).ok() ? 1 : 0); });
  }
  lan.sim.RunFor(ibus::kSecond);
  (*out)["proto.sender_publish_ns"] = {timer.ns_per_call(), "ns"};
  (*out)["proto.sender_publish_allocs"] = {timer.allocs_per_call(), "count"};
}

// Feeds the frames the first consumer's daemon received, at their arrival times,
// into a fresh ReliableReceiver.
void ReceiverReplay(const FrameLog& frames, LayerMetrics* out) {
  ibus::HostId max_host = frames.watch_host;
  for (const ibus::CapturedFrame& f : frames.watched) {
    max_host = std::max(max_host, f.src_host);
  }
  MiniLan lan(static_cast<size_t>(max_host) + 1);
  auto sock = lan.net.OpenSocket(frames.watch_host, kBusPort, [](const ibus::Datagram&) {});
  if (!sock.ok()) {
    return;
  }
  uint64_t delivered = 0;
  ibus::ReliableReceiver receiver(&lan.sim, sock->get(), ibus::ReliableConfig(),
                                  [&delivered](uint64_t, const Bytes&) { ++delivered; });
  CallTimer timer;
  for (const ibus::CapturedFrame& f : frames.watched) {
    lan.sim.RunUntil(f.delivered_at);
    auto frame = ibus::ParseFrame(f.payload);
    if (!frame.ok()) {
      continue;
    }
    if (frame->frame_type == ibus::kPktData) {
      auto pkt = ibus::DataPacket::Unmarshal(frame->payload);
      if (pkt.ok()) {
        timer.Time([&] { receiver.HandleData(*pkt, f.src_host, f.src_port); });
      }
    } else if (frame->frame_type == ibus::kPktBatch) {
      auto pkt = ibus::BatchPacket::Unmarshal(frame->payload);
      if (pkt.ok()) {
        timer.Time([&] { receiver.HandleBatch(*pkt, f.src_host, f.src_port); });
      }
    } else if (frame->frame_type == ibus::kPktHeartbeat) {
      auto pkt = ibus::HeartbeatPacket::Unmarshal(frame->payload);
      if (pkt.ok()) {
        timer.Time([&] { receiver.HandleHeartbeat(*pkt, f.src_host, f.src_port); });
      }
    }
  }
  lan.sim.RunFor(ibus::kSecond);
  g_sink = g_sink + delivered;
  (*out)["proto.receiver_ingest_ns"] = {timer.ns_per_call(), "ns"};
  (*out)["proto.receiver_ingest_allocs"] = {timer.allocs_per_call(), "count"};
}

// Journal::Append of the workload's messages in their wire form, each at its due
// time, group-committed with the ledger's flush deadline. The journal treats
// records as opaque bytes. What a real certified ledger writes (records per
// flush, device time) is read from the ledger run instead (busbench.cc).
void JournalReplay(const ReplayInput& in, const std::vector<Message>& msgs,
                   LayerMetrics* out) {
  std::vector<Bytes> records;
  records.reserve(msgs.size());
  for (const Message& m : msgs) {
    records.push_back(m.Marshal());
  }
  ibus::Simulator sim;
  ibus::MemoryStableStore device;
  ibus::journal::JournalConfig jc;
  jc.flush_deadline_us = kLedgerFlushDeadlineUs;
  jc.sim = &sim;
  auto ledger = ibus::journal::Journal::Open(&device, jc);
  if (!ledger.ok()) {
    return;
  }
  CallTimer timer;
  for (size_t i = 0; i < records.size(); ++i) {
    sim.RunUntil(in.due[i]);
    timer.Time([&] { g_sink = g_sink + ((*ledger)->Append(records[i]).ok() ? 1 : 0); });
  }
  sim.RunFor(ibus::kSecond);
  (*out)["journal.append_ns"] = {timer.ns_per_call(), "ns"};
  (*out)["journal.append_allocs"] = {timer.allocs_per_call(), "count"};
}

}  // namespace

void RunReplays(const ReplayInput& in, LayerMetrics* out) {
  const size_t n = std::min({kMaxReplayMsgs, in.due.size(), in.plan->msg_subject.size()});
  const std::vector<Message> msgs = Messages(in, n);
  CodecReplays(msgs, out);
  WireReplays(*in.frames, out);
  SubjectReplays(in, msgs, out);
  TelemetryReplays(in, msgs, out);
  SimReplay(*in.frames, out);
  SenderReplay(in, msgs, out);
  ReceiverReplay(*in.frames, out);
  JournalReplay(in, msgs, out);
}

}  // namespace busbench
