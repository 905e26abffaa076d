#include "src/sim/network.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace ibus {

namespace {

// Local (same-host) IPC cost: fixed syscall/context-switch overhead plus a memcpy-rate
// term. Used for application<->daemon traffic, which the paper routes through a
// per-host daemon process.
constexpr SimTime kLoopbackFixedUs = 30;
constexpr double kLoopbackUsPerByte = 0.005;  // ~200 MB/s
constexpr size_t kLoopbackMaxPayload = 256 * 1024;

// Implicit WAN profile used for cross-segment connections (T1-class link).
SegmentConfig WanConfig() {
  SegmentConfig c;
  c.bandwidth_bps = 1.544 * 1000 * 1000;
  c.propagation_us = 2000;
  c.mtu = 1500;
  c.frame_overhead = 42;
  c.broadcast_capable = false;
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------------
// UdpSocket / Listener lifetime
// ---------------------------------------------------------------------------------

UdpSocket::~UdpSocket() { net_->CloseSocket(this); }

Status UdpSocket::SendTo(HostId dst, Port dst_port, Bytes payload) {
  Datagram d;
  d.src_host = host_;
  d.src_port = port_;
  d.dst_host = dst;
  d.dst_port = dst_port;
  d.payload = std::move(payload);
  return net_->SendDatagram(d);
}

Status UdpSocket::Broadcast(Port dst_port, Bytes payload) {
  Datagram d;
  d.src_host = host_;
  d.src_port = port_;
  d.dst_host = kBroadcastHost;
  d.dst_port = dst_port;
  d.payload = std::move(payload);
  return net_->BroadcastDatagram(d);
}

SimTime UdpSocket::BacklogUs() const { return net_->SegmentBacklogUs(host_); }

Listener::~Listener() { net_->CloseListener(this); }

// ---------------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------------

Status Connection::Send(Bytes message) {
  if (!open_) {
    return FailedPrecondition("connection closed");
  }
  return net_->ConnectionSend(this, std::move(message));
}

SimTime Connection::BacklogUs() const {
  return open_ ? net_->ConnectionBacklogUs(this) : 0;
}

void Connection::Close() {
  if (open_) {
    net_->ConnectionClose(this, /*notify_peer=*/true);
  }
}

// ---------------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------------

const char* FrameFateName(FrameFate f) {
  switch (f) {
    case FrameFate::kDelivered:
      return "delivered";
    case FrameFate::kQueuedDelay:
      return "queued_delay";
    case FrameFate::kDroppedFault:
      return "dropped_fault";
    case FrameFate::kDuplicated:
      return "duplicated";
    case FrameFate::kMtuRejected:
      return "mtu_rejected";
    case FrameFate::kDroppedPartition:
      return "dropped_partition";
    case FrameFate::kDroppedNoListener:
      return "dropped_no_listener";
  }
  return "unknown";
}

Network::Network(Simulator* sim, uint64_t fault_seed) : sim_(sim), rng_(fault_seed) {
  // Segment 0 is the implicit WAN used by cross-segment connections.
  segments_.push_back(Segment{WanConfig(), FaultPlan{}, 0, {}});
  drop_fault_ = metrics_.GetCounter(kMetricNetDropFault);
  drop_mtu_ = metrics_.GetCounter(kMetricNetDropMtu);
  drop_partition_ = metrics_.GetCounter(kMetricNetDropPartition);
  drop_no_listener_ = metrics_.GetCounter(kMetricNetDropNoListener);
}

void Network::AttachTap(NetworkTap* tap) { taps_.push_back(tap); }

void Network::DetachTap(NetworkTap* tap) {
  taps_.erase(std::remove(taps_.begin(), taps_.end(), tap), taps_.end());
}

Network::PendingTap Network::BeginTap(SegmentId segment, const TxTiming& tx,
                                      size_t wire_bytes, uint32_t frame_overhead,
                                      bool broadcast) {
  PendingTap tap;
  if (taps_.empty()) {
    return tap;
  }
  tap.active = true;
  tap.index = next_capture_index_++;
  tap.tx_id = next_tx_id_++;
  tap.segment = segment;
  tap.broadcast = broadcast;
  tap.sent_at = sim_->Now();
  tap.queued_us = tx.queued_us;
  tap.wire_us = tx.wire_us;
  tap.wire_bytes = static_cast<uint32_t>(wire_bytes);
  tap.frame_overhead = frame_overhead;
  return tap;
}

void Network::EmitTap(const PendingTap& tap, const Datagram& d, FrameFate fate,
                      SimTime at) {
  if (!tap.active || taps_.empty()) {
    return;
  }
  CapturedFrame f;
  f.index = tap.index;
  f.tx_id = tap.tx_id;
  f.segment = tap.segment;
  f.src_host = d.src_host;
  f.src_port = d.src_port;
  f.dst_host = d.dst_host;
  f.dst_port = d.dst_port;
  f.broadcast = tap.broadcast;
  f.duplicate = tap.duplicate;
  f.fate = fate;
  f.sent_at = tap.sent_at;
  f.delivered_at = at;
  f.queued_us = tap.queued_us;
  f.wire_us = tap.wire_us;
  f.wire_bytes = tap.wire_bytes;
  f.frame_overhead = tap.frame_overhead;
  f.payload = d.payload;
  for (NetworkTap* t : taps_) {
    t->OnFrame(f);
  }
}

SegmentId Network::AddSegment(const SegmentConfig& config) {
  segments_.push_back(Segment{config, FaultPlan{}, 0, {}});
  return static_cast<SegmentId>(segments_.size() - 1);
}

HostId Network::AddHost(const std::string& name, SegmentId segment) {
  Host h;
  h.name = name;
  h.segment = segment;
  hosts_.push_back(std::move(h));
  HostId id = static_cast<HostId>(hosts_.size() - 1);
  segments_.at(segment).hosts.push_back(id);
  return id;
}

const std::string& Network::HostName(HostId h) const { return hosts_.at(h).name; }

SegmentId Network::HostSegment(HostId h) const { return hosts_.at(h).segment; }

std::vector<HostId> Network::HostsOnSegment(SegmentId s) const { return segments_.at(s).hosts; }

uint32_t Network::NextBootEpoch(HostId h) { return hosts_.at(h).boot_epochs++; }

void Network::SetFaultPlan(SegmentId segment, const FaultPlan& plan) {
  segments_.at(segment).faults = plan;
}

void Network::SetHostUp(HostId h, bool up) {
  Host& host = hosts_.at(h);
  if (host.up == up) {
    return;
  }
  host.up = up;
  if (!up) {
    // Break every connection touching this host.
    std::vector<Connection*> to_close;
    for (auto& [id, state] : connections_) {
      if (state.a->local_host() == h || state.a->remote_host() == h) {
        to_close.push_back(state.a.get());
      }
    }
    for (Connection* c : to_close) {
      ConnectionClose(c, /*notify_peer=*/true);
    }
  }
}

bool Network::HostUp(HostId h) const { return hosts_.at(h).up; }

void Network::SetPartitionGroups(const std::unordered_map<HostId, int>& groups) {
  for (HostId h = 0; h < hosts_.size(); ++h) {
    auto it = groups.find(h);
    hosts_[h].partition_group = it == groups.end() ? 0 : it->second;
  }
  // Connections crossing a partition boundary break immediately.
  std::vector<Connection*> to_close;
  for (auto& [id, state] : connections_) {
    if (!CanCommunicate(state.a->local_host(), state.a->remote_host())) {
      to_close.push_back(state.a.get());
    }
  }
  for (Connection* c : to_close) {
    ConnectionClose(c, /*notify_peer=*/true);
  }
}

bool Network::CanCommunicate(HostId a, HostId b) const {
  const Host& ha = hosts_.at(a);
  const Host& hb = hosts_.at(b);
  return ha.up && hb.up && ha.partition_group == hb.partition_group;
}

Result<std::unique_ptr<UdpSocket>> Network::OpenSocket(HostId host, Port port,
                                                       UdpSocket::Handler handler) {
  Host& h = hosts_.at(host);
  if (port == 0) {
    while (h.sockets.count(h.next_ephemeral) > 0) {
      ++h.next_ephemeral;
    }
    port = h.next_ephemeral++;
  } else if (h.sockets.count(port) > 0) {
    return AlreadyExists("port " + std::to_string(port) + " in use on " + h.name);
  }
  auto sock = std::unique_ptr<UdpSocket>(new UdpSocket(this, host, port));
  sock->SetHandler(std::move(handler));
  h.sockets[port] = sock.get();
  return sock;
}

size_t Network::MaxDatagramPayload(HostId host) const {
  const Segment& seg = segments_.at(hosts_.at(host).segment);
  return seg.config.mtu - seg.config.frame_overhead;
}

Network::TxTiming Network::TransmitFrame(Segment& seg, size_t wire_bytes) {
  const double us =
      static_cast<double>(wire_bytes) * 8.0 * 1e6 / seg.config.bandwidth_bps +
      seg.config.host_cpu_us_per_frame;
  SimTime now = sim_->Now();
  SimTime start = std::max(now, seg.busy_until);
  SimTime finish = start + static_cast<SimTime>(std::llround(us));
  seg.busy_until = finish;
  stats_.frames_sent++;
  stats_.bytes_on_wire += wire_bytes;
  return TxTiming{finish, start - now, finish - start};
}

SimTime Network::SegmentBacklogUs(HostId host) const {
  const Segment& seg = segments_.at(hosts_.at(host).segment);
  return seg.busy_until > sim_->Now() ? seg.busy_until - sim_->Now() : 0;
}

SimTime Network::LocalLoopbackDelay(size_t bytes) const {
  return kLoopbackFixedUs +
         static_cast<SimTime>(std::llround(static_cast<double>(bytes) * kLoopbackUsPerByte));
}

void Network::DeliverDatagram(Datagram d, SimTime at) {  // hotlint: hot
  DeliverDatagram(std::move(d), at, PendingTap());
}

void Network::DeliverDatagram(Datagram d, SimTime at, PendingTap tap) {  // hotlint: hot
  HostId dst = d.dst_host;
  sim_->ScheduleAt(
      at,
      [this, d = std::move(d), dst, tap, at]() {
        const Host& h = hosts_.at(dst);
        if (!h.up || !CanCommunicate(d.src_host, dst)) {
          stats_.frames_dropped_down++;
          drop_partition_->Inc();
          EmitTap(tap, d, FrameFate::kDroppedPartition, at);
          return;
        }
        auto it = h.sockets.find(d.dst_port);
        if (it == h.sockets.end()) {
          // No listener: silently dropped, like real UDP.
          stats_.frames_dropped_no_listener++;
          drop_no_listener_->Inc();
          EmitTap(tap, d, FrameFate::kDroppedNoListener, at);
          return;
        }
        stats_.frames_delivered++;
        FrameFate fate = tap.duplicate        ? FrameFate::kDuplicated
                         : tap.queued_us > 0  ? FrameFate::kQueuedDelay
                                              : FrameFate::kDelivered;
        EmitTap(tap, d, fate, at);
        UdpSocket* sock = it->second;
        if (sock->handler_) {
          sock->handler_(d);
        }
      },
      "net.datagram_deliver");
}

Status Network::SendDatagram(const Datagram& d) {  // hotlint: hot
  const Host& src = hosts_.at(d.src_host);
  if (!src.up) {
    return Unavailable("source host down");
  }
  if (d.dst_host >= hosts_.size()) {
    return InvalidArgument("no such host");
  }
  if (d.dst_host == d.src_host) {
    if (d.payload.size() > kLoopbackMaxPayload) {
      return InvalidArgument("loopback datagram too large");
    }
    Host& h = hosts_.at(d.src_host);
    SimTime at = std::max(sim_->Now() + LocalLoopbackDelay(d.payload.size()),
                          h.loopback_tail + 1);
    h.loopback_tail = at;
    DeliverDatagram(d, at);
    return OkStatus();
  }
  // Cross-host unicast: same segment uses that medium; different segments go over the
  // implicit WAN (application-level routers are expected for normal bus traffic).
  SegmentId src_seg = src.segment;
  SegmentId dst_seg = hosts_.at(d.dst_host).segment;
  SegmentId use_seg = src_seg == dst_seg ? src_seg : 0;
  Segment& seg = segments_.at(use_seg);
  SimTime extra_prop = 0;
  if (src_seg != dst_seg) {
    extra_prop = segments_.at(src_seg).config.propagation_us +
                 segments_.at(dst_seg).config.propagation_us;
  }
  const size_t wire_bytes = d.payload.size() + seg.config.frame_overhead;
  const uint32_t overhead = static_cast<uint32_t>(seg.config.frame_overhead);
  if (wire_bytes > seg.config.mtu) {
    stats_.frames_dropped_mtu++;
    drop_mtu_->Inc();
    EmitTap(BeginTap(use_seg, TxTiming(), wire_bytes, overhead, false), d,
            FrameFate::kMtuRejected, sim_->Now());
    return InvalidArgument("datagram exceeds MTU");
  }
  if (seg.faults.drop_prob > 0 && rng_.Chance(seg.faults.drop_prob)) {
    // Lost before occupying the medium: the sim charges no wire time for unicast
    // fault loss, so the capture record carries zero wire_us.
    stats_.frames_dropped_fault++;
    drop_fault_->Inc();
    EmitTap(BeginTap(use_seg, TxTiming(), wire_bytes, overhead, false), d,
            FrameFate::kDroppedFault, sim_->Now());
    return OkStatus();  // silently lost on the wire
  }
  TxTiming tx = TransmitFrame(seg, wire_bytes);
  PendingTap tap = BeginTap(use_seg, tx, wire_bytes, overhead, false);
  SimTime jitter = seg.faults.jitter_us > 0
                       ? static_cast<SimTime>(rng_.NextBelow(seg.faults.jitter_us + 1))
                       : 0;
  SimTime at = tx.finish + seg.config.propagation_us + extra_prop + jitter;
  DeliverDatagram(d, at, tap);
  if (seg.faults.dup_prob > 0 && rng_.Chance(seg.faults.dup_prob)) {
    stats_.frames_duplicated++;
    PendingTap dup_tap = tap;
    if (dup_tap.active) {
      dup_tap.index = next_capture_index_++;
      dup_tap.duplicate = true;
      dup_tap.wire_us = 0;
      dup_tap.queued_us = 0;
    }
    DeliverDatagram(d, at + 1 + static_cast<SimTime>(rng_.NextBelow(100)), dup_tap);
  }
  return OkStatus();
}

Status Network::BroadcastDatagram(const Datagram& d) {  // hotlint: hot
  const Host& src = hosts_.at(d.src_host);
  if (!src.up) {
    return Unavailable("source host down");
  }
  Segment& seg = segments_.at(src.segment);
  if (!seg.config.broadcast_capable) {
    return FailedPrecondition("segment not broadcast-capable");
  }
  const size_t wire_bytes = d.payload.size() + seg.config.frame_overhead;
  const uint32_t overhead = static_cast<uint32_t>(seg.config.frame_overhead);
  if (wire_bytes > seg.config.mtu) {
    stats_.frames_dropped_mtu++;
    drop_mtu_->Inc();
    EmitTap(BeginTap(src.segment, TxTiming(), wire_bytes, overhead, true), d,
            FrameFate::kMtuRejected, sim_->Now());
    return InvalidArgument("datagram exceeds MTU");
  }
  // One transmission on the shared medium reaches every host on the segment; faults
  // are drawn independently per receiver (receiver-side loss).
  TxTiming tx = TransmitFrame(seg, wire_bytes);
  // All per-receiver records (and fault-made duplicates) share the transmission's
  // tx_id; each gets its own capture index. The accountant de-dups medium time by
  // tx_id, so the one serialization is charged once.
  PendingTap base = BeginTap(src.segment, tx, wire_bytes, overhead, true);
  bool base_index_used = false;
  auto next_tap = [&](bool is_dup) {
    PendingTap t = base;
    if (t.active) {
      if (base_index_used) {
        t.index = next_capture_index_++;
      }
      base_index_used = true;
      if (is_dup) {
        t.duplicate = true;
        t.wire_us = 0;
        t.queued_us = 0;
      }
    }
    return t;
  };
  for (HostId h : seg.hosts) {
    if (seg.faults.drop_prob > 0 && rng_.Chance(seg.faults.drop_prob)) {
      stats_.frames_dropped_fault++;
      drop_fault_->Inc();
      if (base.active) {
        Datagram lost = d;
        lost.dst_host = h;
        EmitTap(next_tap(false), lost, FrameFate::kDroppedFault, sim_->Now());
      }
      continue;
    }
    SimTime jitter = seg.faults.jitter_us > 0
                         ? static_cast<SimTime>(rng_.NextBelow(seg.faults.jitter_us + 1))
                         : 0;
    Datagram copy = d;
    copy.dst_host = h;
    SimTime at = tx.finish + seg.config.propagation_us + jitter;
    if (seg.faults.dup_prob > 0 && rng_.Chance(seg.faults.dup_prob)) {
      stats_.frames_duplicated++;
      Datagram dup = copy;
      PendingTap dup_tap = next_tap(true);
      DeliverDatagram(std::move(dup), at + 1 + static_cast<SimTime>(rng_.NextBelow(100)),
                      dup_tap);
    }
    DeliverDatagram(std::move(copy), at, next_tap(false));
  }
  return OkStatus();
}

void Network::CloseSocket(UdpSocket* s) {
  Host& h = hosts_.at(s->host());
  auto it = h.sockets.find(s->port());
  if (it != h.sockets.end() && it->second == s) {
    h.sockets.erase(it);
  }
}

Result<std::unique_ptr<Listener>> Network::Listen(HostId host, Port port,
                                                  Listener::AcceptHandler handler) {
  Host& h = hosts_.at(host);
  if (h.listeners.count(port) > 0) {
    return AlreadyExists("listen port " + std::to_string(port) + " in use on " + h.name);
  }
  auto l = std::unique_ptr<Listener>(new Listener(this, host, port, std::move(handler)));
  h.listeners[port] = l.get();
  return l;
}

void Network::CloseListener(Listener* l) {
  Host& h = hosts_.at(l->host());
  auto it = h.listeners.find(l->port());
  if (it != h.listeners.end() && it->second == l) {
    h.listeners.erase(it);
  }
}

void Network::Connect(HostId src, HostId dst, Port dst_port,
                      std::function<void(Result<ConnectionPtr>)> done) {
  SegmentId src_seg = hosts_.at(src).segment;
  SegmentId dst_seg = hosts_.at(dst).segment;
  SimTime prop = src_seg == dst_seg
                     ? segments_.at(src_seg).config.propagation_us
                     : segments_.at(src_seg).config.propagation_us +
                           segments_.at(0).config.propagation_us +
                           segments_.at(dst_seg).config.propagation_us;
  // Three-way handshake: 1.5 round trips before the connection is usable.
  SimTime handshake = 3 * prop;
  sim_->ScheduleAfter(
      handshake,
      [this, src, dst, dst_port, done = std::move(done)]() {
        if (!CanCommunicate(src, dst)) {
          done(Unavailable("connect: host unreachable"));
          return;
        }
        const Host& h = hosts_.at(dst);
        auto it = h.listeners.find(dst_port);
        if (it == h.listeners.end()) {
          done(Unavailable("connect: connection refused"));
          return;
        }
        uint64_t id = next_conn_id_++;
        ConnState state;
        state.a = ConnectionPtr(new Connection(this, id, src, dst));
        state.b = ConnectionPtr(new Connection(this, id, dst, src));
        connections_[id] = state;
        it->second->handler_(state.b);
        done(state.a);
      },
      "net.handshake");
}

SimTime Network::ConnectionBacklogUs(const Connection* conn) const {
  auto it = connections_.find(conn->id_);
  if (it == connections_.end()) {
    return 0;
  }
  const ConnState& state = it->second;
  const bool from_a = conn == state.a.get();
  SimTime tail = from_a ? state.a_to_b_tail : state.b_to_a_tail;
  return tail > sim_->Now() ? tail - sim_->Now() : 0;
}

Status Network::ConnectionSend(Connection* conn, Bytes message) {
  auto it = connections_.find(conn->id_);
  if (it == connections_.end()) {
    return FailedPrecondition("connection closed");
  }
  ConnState& state = it->second;
  const bool from_a = conn == state.a.get();
  HostId src = conn->local_host();
  HostId dst = conn->remote_host();
  if (!CanCommunicate(src, dst)) {
    ConnectionClose(conn, /*notify_peer=*/true);
    return Unavailable("connection reset");
  }

  SegmentId src_seg = hosts_.at(src).segment;
  SegmentId dst_seg = hosts_.at(dst).segment;
  SimTime delivery;
  if (src == dst) {
    delivery = sim_->Now() + LocalLoopbackDelay(message.size());
  } else {
    SegmentId use_seg = src_seg == dst_seg ? src_seg : 0;
    Segment& seg = segments_.at(use_seg);
    SimTime extra_prop = 0;
    if (src_seg != dst_seg) {
      extra_prop = segments_.at(src_seg).config.propagation_us +
                   segments_.at(dst_seg).config.propagation_us;
    }
    // Chunk the message into MTU frames; each consumes medium time. Delivery happens
    // when the last frame lands.
    const size_t max_payload = seg.config.mtu - seg.config.frame_overhead;
    const uint32_t overhead = static_cast<uint32_t>(seg.config.frame_overhead);
    const bool tapped = !taps_.empty();
    const uint64_t conn_msg_id = tapped ? next_conn_msg_id_++ : 0;
    size_t remaining = message.size();
    size_t chunk_idx = 0;
    SimTime finish = sim_->Now();
    do {
      size_t chunk = std::min(remaining, max_payload);
      TxTiming tx = TransmitFrame(seg, chunk + seg.config.frame_overhead);
      finish = tx.finish;
      if (tapped) {
        // Connection chunks are loss-free (retransmission is abstracted away); only
        // the first chunk's record carries the message bytes, continuations are
        // timing-only.
        CapturedFrame f;
        f.index = next_capture_index_++;
        f.tx_id = next_tx_id_++;
        f.segment = use_seg;
        f.src_host = src;
        f.dst_host = dst;
        f.conn_id = conn->id_;
        f.conn_msg_id = conn_msg_id;
        f.continuation = chunk_idx > 0;
        f.fate = tx.queued_us > 0 ? FrameFate::kQueuedDelay : FrameFate::kDelivered;
        f.sent_at = sim_->Now();
        f.delivered_at = tx.finish + seg.config.propagation_us + extra_prop;
        f.queued_us = tx.queued_us;
        f.wire_us = tx.wire_us;
        f.wire_bytes = static_cast<uint32_t>(chunk + seg.config.frame_overhead);
        f.frame_overhead = overhead;
        if (chunk_idx == 0) {
          f.payload = message;
        }
        for (NetworkTap* t : taps_) {
          t->OnFrame(f);
        }
      }
      chunk_idx++;
      remaining -= chunk;
    } while (remaining > 0);
    delivery = finish + seg.config.propagation_us + extra_prop;
    // Connections ride the same medium as datagrams, so the segment's configured
    // jitter delays their arrival too (the FIFO clamp below keeps ordering; tap
    // records keep the un-jittered wire timing, as jitter models receive-path
    // scheduling rather than medium occupancy).
    if (seg.faults.jitter_us > 0) {
      delivery += static_cast<SimTime>(rng_.NextBelow(seg.faults.jitter_us + 1));
    }
  }

  // Preserve per-direction FIFO ordering.
  SimTime& tail = from_a ? state.a_to_b_tail : state.b_to_a_tail;
  delivery = std::max(delivery, tail);
  tail = delivery;

  uint64_t id = conn->id_;
  const bool to_b = from_a;
  sim_->ScheduleAt(
      delivery,
      [this, id, to_b, message = std::move(message)]() {
        auto cit = connections_.find(id);
        if (cit == connections_.end()) {
          return;
        }
        ConnectionPtr receiver = to_b ? cit->second.b : cit->second.a;
        if (!CanCommunicate(receiver->local_host(), receiver->remote_host())) {
          ConnectionClose(receiver.get(), /*notify_peer=*/true);
          return;
        }
        if (receiver->on_message_) {
          receiver->on_message_(message);
        }
      },
      "net.conn_deliver");
  return OkStatus();
}

void Network::ConnectionClose(Connection* conn, bool notify_peer) {
  auto it = connections_.find(conn->id_);
  if (it == connections_.end()) {
    conn->open_ = false;
    return;
  }
  ConnState state = it->second;
  connections_.erase(it);
  state.a->open_ = false;
  state.b->open_ = false;
  ConnectionPtr self = conn == state.a.get() ? state.a : state.b;
  ConnectionPtr peer = conn == state.a.get() ? state.b : state.a;
  if (self->on_close_) {
    auto cb = self->on_close_;
    sim_->ScheduleAfter(0, [cb]() { cb(); }, "net.conn_close");
  }
  if (notify_peer && peer->on_close_) {
    SimTime prop = segments_.at(hosts_.at(peer->local_host()).segment).config.propagation_us;
    auto cb = peer->on_close_;
    sim_->ScheduleAfter(prop, [cb]() { cb(); }, "net.conn_close");
  }
}

}  // namespace ibus
