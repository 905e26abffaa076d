// Simulated internetwork: hosts attached to shared-medium segments (Ethernet-like LANs
// or point-to-point WAN links), a UDP-style datagram service with hardware broadcast,
// and configurable fault injection (loss, duplication, jitter/reordering, partitions,
// host crashes). This substitutes for the paper's SunOS workstations on a lightly
// loaded 10 Mbit/s Ethernet; the medium model (per-frame serialization time on a
// shared half-duplex segment plus propagation delay) is what gives the appendix
// benchmarks their characteristic shapes.
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"

namespace ibus {

using HostId = uint32_t;
using SegmentId = uint32_t;
using Port = uint16_t;

constexpr HostId kNoHost = 0xFFFFFFFFu;
constexpr HostId kBroadcastHost = 0xFFFFFFFEu;

// Shared-medium segment parameters. Defaults model the paper's testbed: a lightly
// loaded 10 Mbit/s Ethernet with ~1500-byte frames.
struct SegmentConfig {
  double bandwidth_bps = 10.0 * 1000 * 1000;  // 10 Mbit/s Ethernet
  SimTime propagation_us = 50;                // cable + switch-free medium propagation
  size_t mtu = 1500;                          // max frame size, including frame overhead
  size_t frame_overhead = 42;                 // Ethernet + IP + UDP headers per frame
  bool broadcast_capable = true;              // WAN links are not
  // Host protocol-stack cost charged per frame in addition to wire serialization.
  // The paper's SPARCstation-2/SunOS-4.1.1 testbed could not "drive more than 300
  // Kb/sec through Ethernet with a raw UDP socket" — the send path, not the 10 Mbit
  // medium, was the bottleneck. Modelled as extra occupancy of the shared resource
  // (exact for a single sender, conservative for several).
  double host_cpu_us_per_frame = 0;
};

// Stochastic fault plan applied to datagram frames on a segment.
struct FaultPlan {
  double drop_prob = 0.0;       // independent per-frame loss
  double dup_prob = 0.0;        // independent per-frame duplication
  SimTime jitter_us = 0;        // extra uniform delay in [0, jitter]; causes reordering
};

struct Datagram {
  HostId src_host = kNoHost;
  Port src_port = 0;
  HostId dst_host = kNoHost;    // kBroadcastHost for segment broadcast
  Port dst_port = 0;
  Bytes payload;
};

// --- Wire-level capture ---------------------------------------------------------
//
// Every frame that touches a segment medium can be observed by attached taps with
// its final *fate* — the capture plane behind src/capture and tools/buscap. Host-
// local loopback IPC (client<->daemon datagrams on one host) never occupies a
// medium and is not captured.

// Why a frame ended the way it did on the simulated medium. Values are part of the
// capture-file and pcap formats; do not renumber.
enum class FrameFate : uint8_t {
  kDelivered = 1,          // handed to a bound socket with no medium queueing
  kQueuedDelay = 2,        // delivered, but waited behind earlier frames on the medium
  kDroppedFault = 3,       // lost to the segment's FaultPlan
  kDuplicated = 4,         // delivered extra copy manufactured by the FaultPlan
  kMtuRejected = 5,        // payload + frame overhead exceeded the segment MTU
  kDroppedPartition = 6,   // receiver unreachable: down host or partition boundary
  kDroppedNoListener = 7,  // no socket bound to the destination port
};

// Stable lower-case name ("delivered", "dropped_fault", ...) used by reports.
const char* FrameFateName(FrameFate f);

// What a tap sees for one frame. Broadcasts fan out into one record per receiver,
// all sharing `tx_id` (the medium was occupied once); fault-made duplicates also
// share the original's tx_id with `duplicate` set and zero `wire_us`.
struct CapturedFrame {
  uint64_t index = 0;        // monotonic capture sequence (assigned at send time)
  uint64_t tx_id = 0;        // one per medium transmission
  SegmentId segment = 0;
  HostId src_host = kNoHost;
  Port src_port = 0;
  HostId dst_host = kNoHost;  // concrete receiver (never kBroadcastHost)
  Port dst_port = 0;
  uint64_t conn_id = 0;      // nonzero for connection (stream) chunk frames
  uint64_t conn_msg_id = 0;  // groups the chunks of one connection message
  bool broadcast = false;
  bool duplicate = false;    // fault-manufactured extra copy
  // Connection chunks 2..n of a large message: the message bytes live on the first
  // chunk's record; continuation records carry an empty payload.
  bool continuation = false;
  FrameFate fate = FrameFate::kDelivered;
  SimTime sent_at = 0;       // when the sender handed the frame to the medium
  SimTime delivered_at = 0;  // delivery time, or when the drop was decided
  SimTime queued_us = 0;     // time spent waiting for the shared half-duplex medium
  SimTime wire_us = 0;       // serialization occupancy of this transmission
  uint32_t wire_bytes = 0;   // payload + frame overhead
  uint32_t frame_overhead = 0;
  Bytes payload;             // the frame payload (wire-format bus frame)
};

// Observer interface; implemented by capture::CaptureBuffer. OnFrame runs
// synchronously inside the simulation and must not mutate the network.
class NetworkTap {
 public:
  virtual ~NetworkTap() = default;
  virtual void OnFrame(const CapturedFrame& frame) = 0;
};

// Registry names of the network-owned drop counters (one per drop reason; host-down
// drops count as "partition" — an unreachable receiver either way).
inline constexpr char kMetricNetDropFault[] = "net.drop.fault";
inline constexpr char kMetricNetDropMtu[] = "net.drop.mtu";
inline constexpr char kMetricNetDropPartition[] = "net.drop.partition";
inline constexpr char kMetricNetDropNoListener[] = "net.drop.no_listener";

class Network;

// A bound datagram endpoint. Closing (destroying) the socket releases the port.
class UdpSocket {
 public:
  using Handler = std::function<void(const Datagram&)>;

  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  HostId host() const { return host_; }
  Port port() const { return port_; }

  // Sends to a specific host/port. Fails if the payload exceeds the segment MTU
  // (minus frame overhead); higher layers fragment.
  Status SendTo(HostId dst, Port dst_port, Bytes payload);

  // Segment-wide hardware broadcast; every socket bound to `dst_port` on an up host in
  // the same partition group receives it (including the sender's own host).
  Status Broadcast(Port dst_port, Bytes payload);

  // Medium backlog of this socket's segment: how long a frame handed to the medium
  // now would wait before it starts serializing, i.e. the remaining occupancy
  // (serialization plus host_cpu_us_per_frame) of frames already queued. 0 when the
  // medium is idle. The datagram twin of Connection::BacklogUs(); the reliable
  // sender reads it to hold a batch open while its frame could only queue.
  SimTime BacklogUs() const;

  void SetHandler(Handler handler) { handler_ = std::move(handler); }

 private:
  friend class Network;
  UdpSocket(Network* net, HostId host, Port port) : net_(net), host_(host), port_(port) {}

  Network* net_;
  HostId host_;
  Port port_;
  Handler handler_;
};

// TCP-like reliable, ordered, message-oriented connection. Messages of any size are
// chunked into MTU frames that consume segment bandwidth; delivery is in order and
// loss-free (retransmission is abstracted away), but partitions and host crashes break
// the connection.
class Connection {
 public:
  using MessageHandler = std::function<void(const Bytes&)>;
  using CloseHandler = std::function<void()>;

  HostId local_host() const { return local_host_; }
  HostId remote_host() const { return remote_host_; }
  bool open() const { return open_; }

  Status Send(Bytes message);
  // Outbound FIFO backlog of this side: how far the last in-flight message's
  // delivery time is ahead of now, i.e. how long a message sent now would queue
  // behind earlier sends. 0 when idle or closed. Feeds the router's link-backlog
  // gauge (see src/router).
  SimTime BacklogUs() const;
  void SetMessageHandler(MessageHandler handler) { on_message_ = std::move(handler); }
  void SetCloseHandler(CloseHandler handler) { on_close_ = std::move(handler); }
  void Close();

 private:
  friend class Network;
  Connection(Network* net, uint64_t id, HostId local, HostId remote)
      : net_(net), id_(id), local_host_(local), remote_host_(remote) {}

  Network* net_;
  uint64_t id_;
  HostId local_host_;
  HostId remote_host_;
  bool open_ = true;
  MessageHandler on_message_;
  CloseHandler on_close_;
};

using ConnectionPtr = std::shared_ptr<Connection>;

// Accepts inbound connections on (host, port).
class Listener {
 public:
  using AcceptHandler = std::function<void(ConnectionPtr)>;

  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  HostId host() const { return host_; }
  Port port() const { return port_; }

 private:
  friend class Network;
  Listener(Network* net, HostId host, Port port, AcceptHandler handler)
      : net_(net), host_(host), port_(port), handler_(std::move(handler)) {}

  Network* net_;
  HostId host_;
  Port port_;
  AcceptHandler handler_;
};

class Network {
 public:
  explicit Network(Simulator* sim, uint64_t fault_seed = 42);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator* sim() { return sim_; }

  // --- Topology -------------------------------------------------------------------
  SegmentId AddSegment(const SegmentConfig& config = SegmentConfig());
  HostId AddHost(const std::string& name, SegmentId segment);
  const std::string& HostName(HostId h) const;
  SegmentId HostSegment(HostId h) const;
  std::vector<HostId> HostsOnSegment(SegmentId s) const;
  // Per-host restart counter: the first daemon boot on a host gets epoch 0, each
  // later boot 1, 2, ... Daemons fold the epoch into their reliable stream id so a
  // restarted daemon looks like a brand-new sender to its peers instead of an old
  // stream whose low sequence numbers would be discarded as duplicates.
  uint32_t NextBootEpoch(HostId h);

  // --- Fault injection ------------------------------------------------------------
  void SetFaultPlan(SegmentId segment, const FaultPlan& plan);
  // Marks a host down: in-flight traffic to/from it is dropped, its connections break.
  void SetHostUp(HostId h, bool up);
  bool HostUp(HostId h) const;
  // Splits hosts into partition groups; traffic crosses only within a group.
  // An empty map heals all partitions.
  void SetPartitionGroups(const std::unordered_map<HostId, int>& groups);
  bool CanCommunicate(HostId a, HostId b) const;

  // --- Datagram service -----------------------------------------------------------
  // Binds a socket. port==0 picks an ephemeral port. Fails if the port is taken.
  Result<std::unique_ptr<UdpSocket>> OpenSocket(HostId host, Port port,
                                                UdpSocket::Handler handler);
  // Maximum datagram payload the given host's segment can carry in one frame.
  size_t MaxDatagramPayload(HostId host) const;

  // --- Connection service ---------------------------------------------------------
  Result<std::unique_ptr<Listener>> Listen(HostId host, Port port,
                                           Listener::AcceptHandler handler);
  // Asynchronous connect; the handler receives the connection or an error after the
  // simulated handshake completes.
  void Connect(HostId src, HostId dst, Port dst_port,
               std::function<void(Result<ConnectionPtr>)> done);

  // --- Capture --------------------------------------------------------------------
  // Attaches/detaches a wire-level observer. With no taps attached the capture path
  // costs one branch per frame. Taps see every medium frame with its fate.
  void AttachTap(NetworkTap* tap);
  void DetachTap(NetworkTap* tap);

  // --- Statistics -----------------------------------------------------------------
  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_delivered = 0;
    uint64_t frames_dropped_fault = 0;
    uint64_t frames_dropped_down = 0;
    uint64_t frames_dropped_mtu = 0;
    uint64_t frames_dropped_no_listener = 0;
    uint64_t frames_duplicated = 0;
    uint64_t bytes_on_wire = 0;  // includes frame overhead
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  // Network-owned counters: the per-reason drop counters live here under "net.".
  telemetry::MetricsRegistry* metrics() { return &metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

 private:
  friend class UdpSocket;
  friend class Connection;
  friend class Listener;

  struct Segment {
    SegmentConfig config;
    FaultPlan faults;
    SimTime busy_until = 0;  // shared half-duplex medium: next free transmit time
    std::vector<HostId> hosts;
  };

  struct Host {
    std::string name;
    SegmentId segment;
    bool up = true;
    int partition_group = 0;
    uint32_t boot_epochs = 0;
    Port next_ephemeral = 49152;
    // Local IPC is FIFO: a small datagram must not overtake a large one queued
    // earlier on the same host (kernels serialize the copy).
    SimTime loopback_tail = 0;
    std::unordered_map<Port, UdpSocket*> sockets;
    std::unordered_map<Port, Listener*> listeners;
  };

  struct ConnState {
    ConnectionPtr a;  // initiator side handle
    ConnectionPtr b;  // acceptor side handle
    // Per-direction queue tail: delivery time of the last in-flight message, used to
    // preserve FIFO ordering per connection.
    SimTime a_to_b_tail = 0;
    SimTime b_to_a_tail = 0;
  };

  // Occupancy of one frame on the shared medium: when it finished serializing, how
  // long it waited for the medium, and how long it occupied it.
  struct TxTiming {
    SimTime finish = 0;
    SimTime queued_us = 0;
    SimTime wire_us = 0;
  };

  // Partially-built capture record carried from the send site to the fate site.
  // `active` is false when no taps are attached (everything else is then unset).
  struct PendingTap {
    bool active = false;
    uint64_t index = 0;
    uint64_t tx_id = 0;
    SegmentId segment = 0;
    bool broadcast = false;
    bool duplicate = false;
    SimTime sent_at = 0;
    SimTime queued_us = 0;
    SimTime wire_us = 0;
    uint32_t wire_bytes = 0;
    uint32_t frame_overhead = 0;
  };

  // Schedules delivery of one already-validated frame on a segment. `wire_bytes`
  // includes the frame overhead.
  TxTiming TransmitFrame(Segment& seg, size_t wire_bytes);
  void DeliverDatagram(Datagram d, SimTime at);  // loopback path: no tap record
  void DeliverDatagram(Datagram d, SimTime at, PendingTap tap);
  Status SendDatagram(const Datagram& d);
  Status BroadcastDatagram(const Datagram& d);
  SimTime SegmentBacklogUs(HostId host) const;

  // Capture plumbing: fills a PendingTap at the send site (no-op with no taps) and
  // emits the finished record once the fate is known.
  PendingTap BeginTap(SegmentId segment, const TxTiming& tx, size_t wire_bytes,
                      uint32_t frame_overhead, bool broadcast);
  void EmitTap(const PendingTap& tap, const Datagram& d, FrameFate fate, SimTime at);

  Status ConnectionSend(Connection* conn, Bytes message);
  SimTime ConnectionBacklogUs(const Connection* conn) const;
  void ConnectionClose(Connection* conn, bool notify_peer);
  void CloseSocket(UdpSocket* s);
  void CloseListener(Listener* l);

  SimTime LocalLoopbackDelay(size_t bytes) const;

  Simulator* sim_;
  Rng rng_;
  std::vector<Segment> segments_;
  std::vector<Host> hosts_;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, ConnState> connections_;
  Stats stats_;

  // Capture state. Counters advance only while a tap is attached, so untapped runs
  // pay nothing and replay identically to pre-capture builds.
  std::vector<NetworkTap*> taps_;
  uint64_t next_capture_index_ = 1;
  uint64_t next_tx_id_ = 1;
  uint64_t next_conn_msg_id_ = 1;

  // Network-owned drop counters; resolved once in the constructor.
  telemetry::MetricsRegistry metrics_;
  telemetry::Counter* drop_fault_;
  telemetry::Counter* drop_mtu_;
  telemetry::Counter* drop_partition_;
  telemetry::Counter* drop_no_listener_;
};

}  // namespace ibus

#endif  // SRC_SIM_NETWORK_H_
