// Reliable publish/subscribe transport (paper §3.1): UDP broadcast plus a
// NAK/retransmission protocol. Under normal operation messages are delivered exactly
// once, in the order sent by each sender; messages from different senders are not
// ordered. After crash or long partition, delivery degrades to at-most-once (gaps are
// surfaced to the layer above rather than blocking forever).
//
// The sender also implements the paper's "batch parameter": small messages may be
// delayed briefly and gathered into one packet, trading latency for throughput
// (Appendix, Figures 5-7).
#ifndef SRC_PROTO_RELIABLE_H_
#define SRC_PROTO_RELIABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/proto/packets.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"

namespace ibus {

struct ReliableConfig {
  // Largest chunk of application payload per datagram; derived from the segment MTU
  // with headroom for frame + packet headers.
  size_t chunk_size = 1380;

  // Batching (sender side).
  bool batching_enabled = false;
  size_t batch_max_bytes = 1380;   // flush when the packed batch would exceed this
  // Flush this long after the first message; if the sender's medium is still busy
  // then, once more when it frees (messages arriving meanwhile join the batch).
  SimTime batch_delay_us = 2000;

  // Retransmission machinery.
  size_t retain_messages = 4096;          // sender-side retransmit buffer depth
  SimTime nak_delay_us = 2000;            // wait before NAKing (absorbs reordering)
  // Hold window when a stream is first heard: delivery is deferred this long so the
  // reordered first packets can settle before `expected` is pinned. Must exceed the
  // worst-case reorder skew for a loss-free start.
  SimTime sync_hold_us = 5000;
  // A message with some fragments received counts as missing (NAK-eligible) only
  // after its reassembly has stalled this long — fragments of a large message take
  // several frame times to arrive and must not trigger spurious retransmission. Its
  // NAK entry then names the fragments still missing.
  SimTime partial_stall_us = 30 * 1000;
  SimTime nak_retry_us = 25 * 1000;       // re-NAK period while still missing
  SimTime nak_retry_max_us = 200 * 1000;  // backoff ceiling for re-NAKs (congestion)
  SimTime heartbeat_interval_us = 100 * 1000;
  SimTime heartbeat_idle_cutoff_us = 1000 * 1000;  // stop heartbeating when idle
  // Per-fragment repair rate limit, counted from when the previous repair of that
  // fragment finishes transmitting.
  SimTime retransmit_min_gap_us = 5000;
  // A receiver abandons a gap (at-most-once degradation) only when the sender has
  // been silent this long — as long as packets keep arriving, recovery keeps trying.
  SimTime sender_silence_give_up_us = 500 * 1000;
};

// Snapshot of the sender's registry counters (see the kMetricSender* names below).
struct ReliableSenderStats {
  uint64_t published = 0;
  uint64_t packets_sent = 0;
  uint64_t batches_sent = 0;
  uint64_t retransmits = 0;
  uint64_t naks_received = 0;
  uint64_t heartbeats_sent = 0;
};

// Registry names for the reliable-transport metrics. When the owner passes its
// registry to the constructors these show up next to the daemon's "bus." counters.
inline constexpr char kMetricSenderPublished[] = "proto.sender.published";
inline constexpr char kMetricSenderPacketsSent[] = "proto.sender.packets_sent";
inline constexpr char kMetricSenderBatchesSent[] = "proto.sender.batches_sent";
inline constexpr char kMetricSenderRetransmits[] = "proto.sender.retransmits";
inline constexpr char kMetricSenderNaksReceived[] = "proto.sender.naks_received";
inline constexpr char kMetricSenderHeartbeats[] = "proto.sender.heartbeats_sent";
inline constexpr char kMetricReceiverDelivered[] = "proto.receiver.delivered";
inline constexpr char kMetricReceiverDuplicates[] = "proto.receiver.duplicates_dropped";
inline constexpr char kMetricReceiverNaksSent[] = "proto.receiver.naks_sent";
inline constexpr char kMetricReceiverGaps[] = "proto.receiver.gaps";
// Queue-occupancy gauges (each name also has a monotone "<name>.hwm" twin; see
// telemetry::QueueDepthGauge). These are what busprof's queue plane reads.
inline constexpr char kMetricSenderRetainedDepth[] = "proto.sender.retained_depth";
inline constexpr char kMetricSenderBatchDepth[] = "proto.sender.batch_depth";
inline constexpr char kMetricReceiverReadyDepth[] = "proto.receiver.ready_depth";
inline constexpr char kMetricReceiverPartialsDepth[] = "proto.receiver.partials_depth";

// One broadcast stream. The daemon owns exactly one sender; `stream_id` must be unique
// across the bus (host id works). `metrics` (optional) is the registry the counters
// live in; without one the sender keeps a private registry.
class ReliableSender {
 public:
  // `recorder` (optional) is the owner's flight recorder; retransmits are logged there.
  ReliableSender(Simulator* sim, UdpSocket* socket, Port dst_port, uint64_t stream_id,
                 const ReliableConfig& config, telemetry::MetricsRegistry* metrics = nullptr,
                 telemetry::FlightRecorder* recorder = nullptr);
  ~ReliableSender();
  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  // Enqueues one application message for broadcast. With batching enabled, small
  // messages wait for a batch flush: batch_delay_us after the batch's first message,
  // or, if the medium is busy at that deadline, the moment it frees; or sooner when
  // the batch reaches batch_max_bytes (or a heartbeat goes out).
  Status Publish(Bytes message);

  // Flushes any pending batch immediately.
  void Flush();

  // Handles a NAK addressed to this stream (daemon routes by packet type): rebroadcasts
  // the fragments it names, or every fragment of an entry that names none.
  void HandleNak(const NakPacket& nak, HostId from_host, Port from_port);

  uint64_t stream_id() const { return stream_id_; }
  uint64_t next_seq() const { return next_seq_; }
  ReliableSenderStats stats() const;

 private:
  size_t FragmentCount(const Bytes& message) const;
  Status SendMessageAsPackets(uint64_t seq, const Bytes& message);
  Status SendFragment(uint64_t seq, const Bytes& message, size_t index, size_t frag_count);
  void Retain(uint64_t seq, Bytes message);
  void ScheduleHeartbeat();
  void SendHeartbeat();
  void ScheduleBatchFlush();
  // Arms the batch timer; a `deferred` timer flushes without consulting the medium.
  void ArmBatchTimer(SimTime delay_us, bool deferred);

  Simulator* sim_;
  UdpSocket* socket_;
  Port dst_port_;
  uint64_t stream_id_;
  ReliableConfig config_;

  uint64_t next_seq_ = 1;  // seq 0 means "nothing sent"
  std::deque<std::pair<uint64_t, Bytes>> retained_;
  // (seq, fragment) -> when its latest repair finishes transmitting; trimmed with
  // `retained_`.
  std::map<std::pair<uint64_t, uint16_t>, SimTime> repaired_until_;

  // Batch accumulation.
  std::vector<Bytes> batch_;
  size_t batch_bytes_ = 0;
  uint64_t batch_first_seq_ = 0;
  EventId batch_timer_ = 0;

  bool heartbeat_scheduled_ = false;
  SimTime last_activity_ = 0;

  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;  // when none was passed
  telemetry::Counter* published_;
  telemetry::Counter* packets_sent_;
  telemetry::Counter* batches_sent_;
  telemetry::Counter* retransmits_;
  telemetry::Counter* naks_received_;
  telemetry::Counter* heartbeats_sent_;
  telemetry::QueueDepthGauge retained_depth_{nullptr, nullptr};
  telemetry::QueueDepthGauge batch_depth_{nullptr, nullptr};
  telemetry::FlightRecorder* recorder_;
  std::shared_ptr<bool> alive_;
};

// Snapshot of the receiver's registry counters (see the kMetricReceiver* names above).
struct ReliableReceiverStats {
  uint64_t delivered = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t naks_sent = 0;
  uint64_t gaps = 0;  // messages given up on (at-most-once degradation)
};

// Tracks every stream heard on the bus port, reassembles fragments, restores
// per-stream order, dedups, and requests retransmission of missing messages and
// fragments.
class ReliableReceiver {
 public:
  // `deliver` receives (stream_id, message) in per-stream order.
  // `on_gap` (optional) is informed when sequences are abandoned.
  using DeliverFn = std::function<void(uint64_t stream_id, const Bytes& message)>;
  using GapFn = std::function<void(uint64_t stream_id, uint64_t first, uint64_t last)>;

  // `recorder` (optional) is the owner's flight recorder; abandoned gaps are logged.
  ReliableReceiver(Simulator* sim, UdpSocket* socket, const ReliableConfig& config,
                   DeliverFn deliver, GapFn on_gap = nullptr,
                   telemetry::MetricsRegistry* metrics = nullptr,
                   telemetry::FlightRecorder* recorder = nullptr);
  ~ReliableReceiver();
  ReliableReceiver(const ReliableReceiver&) = delete;
  ReliableReceiver& operator=(const ReliableReceiver&) = delete;

  // Entry points, called by the owning daemon's socket handler.
  void HandleData(const DataPacket& pkt, HostId from_host, Port from_port);
  void HandleBatch(const BatchPacket& pkt, HostId from_host, Port from_port);
  void HandleHeartbeat(const HeartbeatPacket& pkt, HostId from_host, Port from_port);

  ReliableReceiverStats stats() const;

 private:
  struct Partial {
    std::vector<Bytes> chunks;
    size_t received = 0;
    SimTime last_update = 0;  // when the latest fragment arrived
  };
  struct Stream {
    bool started = false;
    // True during the initial hold window: the first packets of a newly heard stream
    // may arrive reordered, so delivery is deferred briefly and `expected` is pinned
    // to the lowest sequence seen in the window.
    bool syncing = false;
    uint64_t expected = 0;                    // next seq to deliver
    std::map<uint64_t, Bytes> ready;          // complete but out-of-order messages
    std::map<uint64_t, Partial> partials;     // fragment reassembly
    uint64_t highest_seen = 0;
    HostId sender_host = kNoHost;
    Port sender_port = 0;
    SimTime last_packet_at = 0;               // liveness: when we last heard the sender
    uint64_t gap_head_seq = 0;                // lowest missing seq last observed
    SimTime cur_nak_retry = 0;                // backed-off re-NAK interval
    SimTime last_nak_at = 0;
    bool nak_scheduled = false;
  };

  Stream& EnsureStarted(uint64_t stream_id);
  void FinishSync(uint64_t stream_id, Stream& s);
  void Ingest(uint64_t stream_id, uint64_t seq, Bytes message, HostId from_host,
              Port from_port);
  void DrainReady(uint64_t stream_id, Stream& s);
  void NoteSender(Stream& s, HostId host, Port port);
  void MaybeScheduleNak(uint64_t stream_id);
  void NakScan(uint64_t stream_id);

  Simulator* sim_;
  UdpSocket* socket_;
  ReliableConfig config_;
  DeliverFn deliver_;
  GapFn on_gap_;
  std::unordered_map<uint64_t, Stream> streams_;
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;  // when none was passed
  telemetry::Counter* delivered_;
  telemetry::Counter* duplicates_dropped_;
  telemetry::Counter* naks_sent_;
  telemetry::Counter* gaps_;
  // Aggregate staging occupancy across all streams (the per-site deltas keep the
  // gauge updates allocation-free).
  int64_t ready_total_ = 0;
  int64_t partials_total_ = 0;
  telemetry::QueueDepthGauge ready_depth_{nullptr, nullptr};
  telemetry::QueueDepthGauge partials_depth_{nullptr, nullptr};
  telemetry::FlightRecorder* recorder_;
  std::shared_ptr<bool> alive_;
};

}  // namespace ibus

#endif  // SRC_PROTO_RELIABLE_H_
