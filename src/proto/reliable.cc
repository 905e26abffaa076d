#include "src/proto/reliable.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/wire/wire.h"

namespace ibus {

// ---------------------------------------------------------------------------------
// ReliableSender
// ---------------------------------------------------------------------------------

ReliableSender::ReliableSender(Simulator* sim, UdpSocket* socket, Port dst_port,
                               uint64_t stream_id, const ReliableConfig& config,
                               telemetry::MetricsRegistry* metrics,
                               telemetry::FlightRecorder* recorder)
    : sim_(sim),
      socket_(socket),
      dst_port_(dst_port),
      stream_id_(stream_id),
      config_(config),
      recorder_(recorder),
      alive_(std::make_shared<bool>(true)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  published_ = metrics->GetCounter(kMetricSenderPublished);
  packets_sent_ = metrics->GetCounter(kMetricSenderPacketsSent);
  batches_sent_ = metrics->GetCounter(kMetricSenderBatchesSent);
  retransmits_ = metrics->GetCounter(kMetricSenderRetransmits);
  naks_received_ = metrics->GetCounter(kMetricSenderNaksReceived);
  heartbeats_sent_ = metrics->GetCounter(kMetricSenderHeartbeats);
  retained_depth_ = metrics->GetQueueDepth(kMetricSenderRetainedDepth);
  batch_depth_ = metrics->GetQueueDepth(kMetricSenderBatchDepth);
}

ReliableSender::~ReliableSender() { *alive_ = false; }

ReliableSenderStats ReliableSender::stats() const {
  ReliableSenderStats s;
  s.published = published_->value();
  s.packets_sent = packets_sent_->value();
  s.batches_sent = batches_sent_->value();
  s.retransmits = retransmits_->value();
  s.naks_received = naks_received_->value();
  s.heartbeats_sent = heartbeats_sent_->value();
  return s;
}

Status ReliableSender::Publish(Bytes message) {
  uint64_t seq = next_seq_++;
  Retain(seq, message);
  last_activity_ = sim_->Now();
  published_->Inc();

  Status result;
  if (config_.batching_enabled && message.size() <= config_.chunk_size) {
    // Pack small messages together; flush when full or when the delay timer fires.
    const size_t packed = message.size() + 4;  // length prefix overhead
    if (!batch_.empty() && batch_bytes_ + packed > config_.batch_max_bytes) {
      Flush();
    }
    if (batch_.empty()) {
      batch_first_seq_ = seq;
      ScheduleBatchFlush();
    }
    batch_bytes_ += packed;
    batch_.push_back(std::move(message));  // hotlint: allow(hot-container-growth) -- batch buffer: amortized growth, flushed every batch window
    batch_depth_.Set(static_cast<int64_t>(batch_.size()));
    if (batch_bytes_ >= config_.batch_max_bytes) {
      Flush();
    }
  } else {
    // Large (or unbatched) message: preserve sequence order by flushing first.
    Flush();
    result = SendMessageAsPackets(seq, message);
  }
  ScheduleHeartbeat();
  return result;
}

void ReliableSender::Flush() {
  if (batch_.empty()) {
    return;
  }
  if (batch_timer_ != 0) {
    sim_->Cancel(batch_timer_);
    batch_timer_ = 0;
  }
  if (batch_.size() == 1) {
    // No point paying batch framing for a single message.
    SendMessageAsPackets(batch_first_seq_, batch_[0]);
  } else {
    BatchPacket pkt;
    pkt.stream_id = stream_id_;
    pkt.first_seq = batch_first_seq_;
    pkt.messages = std::move(batch_);
    socket_->Broadcast(dst_port_, FrameMessage(kPktBatch, pkt.Marshal()));
    packets_sent_->Inc();
    batches_sent_->Inc();
  }
  batch_.clear();
  batch_bytes_ = 0;
  batch_first_seq_ = 0;
  batch_depth_.Set(0);
}

void ReliableSender::ScheduleBatchFlush() {
  if (batch_timer_ != 0) {
    return;
  }
  ArmBatchTimer(config_.batch_delay_us, /*deferred=*/false);
}

void ReliableSender::ArmBatchTimer(SimTime delay_us, bool deferred) {  // hotlint: allow(hot-recursion) -- re-arms via a simulator timer at most once per batch (deferred timers never re-arm)
  batch_timer_ = sim_->ScheduleAfter(
      delay_us,
      [this, deferred, alive = alive_]() {
        if (!*alive) {
          return;
        }
        batch_timer_ = 0;
        // Medium-aware flush: a frame handed to a busy medium would only queue, so the
        // batch stays open until the medium frees and later messages ride the same
        // frame. Defer once only: the deferred expiry flushes unconditionally, so
        // other hosts keeping the medium busy cannot starve the batch.
        const SimTime backlog = deferred ? 0 : socket_->BacklogUs();
        if (backlog > 0) {
          ArmBatchTimer(backlog, /*deferred=*/true);
          return;
        }
        Flush();
      },
      "proto.batch_flush");
}

size_t ReliableSender::FragmentCount(const Bytes& message) const {
  return message.empty() ? 1 : (message.size() + config_.chunk_size - 1) / config_.chunk_size;
}

Status ReliableSender::SendMessageAsPackets(uint64_t seq, const Bytes& message) {
  const size_t frag_count = FragmentCount(message);
  if (frag_count > 0xFFFF) {
    return InvalidArgument("message too large to fragment");
  }
  Status last;
  for (size_t i = 0; i < frag_count; ++i) {
    Status s = SendFragment(seq, message, i, frag_count);
    if (!s.ok()) {
      last = s;
    }
  }
  return last;
}

Status ReliableSender::SendFragment(uint64_t seq, const Bytes& message, size_t index,
                                    size_t frag_count) {
  DataPacket pkt;
  pkt.stream_id = stream_id_;
  pkt.seq = seq;
  pkt.frag_index = static_cast<uint16_t>(index);
  pkt.frag_count = static_cast<uint16_t>(frag_count);
  size_t begin = index * config_.chunk_size;
  size_t end = std::min(message.size(), begin + config_.chunk_size);
  pkt.chunk = Bytes(message.begin() + static_cast<ptrdiff_t>(begin),
                    message.begin() + static_cast<ptrdiff_t>(end));
  Status s = socket_->Broadcast(dst_port_, FrameMessage(kPktData, pkt.Marshal()));
  packets_sent_->Inc();
  return s;
}

void ReliableSender::Retain(uint64_t seq, Bytes message) {
  retained_.emplace_back(seq, std::move(message));  // hotlint: allow(hot-container-growth) -- retransmit retention window, trimmed as peers acknowledge
  while (retained_.size() > config_.retain_messages) {
    retained_.pop_front();
  }
  // Messages no longer retained can never be repaired again.
  const uint64_t lowest = retained_.empty() ? next_seq_ : retained_.front().first;
  repaired_until_.erase(repaired_until_.begin(), repaired_until_.lower_bound({lowest, 0}));
  retained_depth_.Set(static_cast<int64_t>(retained_.size()));
}

void ReliableSender::HandleNak(const NakPacket& nak, HostId /*from_host*/,
                               Port /*from_port*/) {
  naks_received_->Inc();
  if (retained_.empty()) {
    SendHeartbeat();  // tells the receiver what is (not) retransmittable
    return;
  }
  const uint64_t lowest = retained_.front().first;
  bool aged_out = false;
  for (const NakEntry& entry : nak.missing) {
    const uint64_t seq = entry.seq;
    if (seq < lowest || seq >= lowest + retained_.size()) {
      aged_out = aged_out || seq < lowest;
      continue;  // aged out of the retransmit buffer; receiver will declare a gap
    }
    const Bytes& message = retained_[seq - lowest].second;
    const size_t frag_count = FragmentCount(message);
    if (frag_count > 0xFFFF) {
      continue;  // never sent (Publish refused to fragment it)
    }
    // An entry naming no fragments asks for all of them.
    const size_t asked = entry.frags.empty() ? frag_count : entry.frags.size();
    size_t repaired = 0;
    for (size_t k = 0; k < asked; ++k) {
      const size_t index = entry.frags.empty() ? k : entry.frags[k];
      if (index >= frag_count) {
        continue;
      }
      auto [it, fresh] =
          repaired_until_.try_emplace({seq, static_cast<uint16_t>(index)}, 0);
      if (!fresh && sim_->Now() - it->second < config_.retransmit_min_gap_us) {
        continue;  // a repair of this fragment is still queued or just left the medium
      }
      // Rebroadcast so every receiver missing it recovers from one retransmission.
      SendFragment(seq, message, index, frag_count);
      // The backlog now ends with this repair: the rate limit counts from when it
      // leaves the medium, not from when it was queued.
      it->second = sim_->Now() + socket_->BacklogUs();
      ++repaired;
    }
    if (repaired == 0) {
      continue;
    }
    retransmits_->Inc();
    if (recorder_ != nullptr) {
      recorder_->Record(sim_->Now(), telemetry::FlightEventKind::kRetransmit, "",
                        "stream=" + std::to_string(stream_id_) +  // hotlint: allow(hot-string) -- loss-recovery telemetry detail: NAKs are the exception path
                            " seq=" + std::to_string(seq) +  // hotlint: allow(hot-string) -- loss-recovery telemetry detail: NAKs are the exception path
                            " frags=" + std::to_string(repaired));  // hotlint: allow(hot-string) -- loss-recovery telemetry detail: NAKs are the exception path
    }
  }
  if (aged_out) {
    // The receiver asked for history we no longer hold: a heartbeat carries
    // lowest_retained so it can declare the gap immediately instead of timing out.
    SendHeartbeat();
  }
}

void ReliableSender::ScheduleHeartbeat() {  // hotlint: allow(hot-recursion) -- self-reschedules via a simulator timer: one frame per tick, not unbounded
  if (heartbeat_scheduled_) {
    return;
  }
  heartbeat_scheduled_ = true;
  sim_->ScheduleAfter(
      config_.heartbeat_interval_us,
      [this, alive = alive_]() {
        if (!*alive) {
          return;
        }
        heartbeat_scheduled_ = false;
        SendHeartbeat();
        if (sim_->Now() - last_activity_ < config_.heartbeat_idle_cutoff_us) {
          ScheduleHeartbeat();
        }
      },
      "proto.heartbeat");
}

void ReliableSender::SendHeartbeat() {
  // Put any pending batch on the wire first: highest_seq must never cover messages a
  // receiver cannot have heard yet (it would NAK them), and the heartbeat must not
  // queue on the medium ahead of the batch it describes.
  Flush();
  HeartbeatPacket pkt;
  pkt.stream_id = stream_id_;
  pkt.highest_seq = next_seq_ - 1;
  pkt.lowest_retained = retained_.empty() ? next_seq_ : retained_.front().first;
  socket_->Broadcast(dst_port_, FrameMessage(kPktHeartbeat, pkt.Marshal()));
  heartbeats_sent_->Inc();
}

// ---------------------------------------------------------------------------------
// ReliableReceiver
// ---------------------------------------------------------------------------------

ReliableReceiver::ReliableReceiver(Simulator* sim, UdpSocket* socket,
                                   const ReliableConfig& config, DeliverFn deliver,
                                   GapFn on_gap, telemetry::MetricsRegistry* metrics,
                                   telemetry::FlightRecorder* recorder)
    : sim_(sim),
      socket_(socket),
      config_(config),
      deliver_(std::move(deliver)),
      on_gap_(std::move(on_gap)),
      recorder_(recorder),
      alive_(std::make_shared<bool>(true)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  delivered_ = metrics->GetCounter(kMetricReceiverDelivered);
  duplicates_dropped_ = metrics->GetCounter(kMetricReceiverDuplicates);
  naks_sent_ = metrics->GetCounter(kMetricReceiverNaksSent);
  gaps_ = metrics->GetCounter(kMetricReceiverGaps);
  ready_depth_ = metrics->GetQueueDepth(kMetricReceiverReadyDepth);
  partials_depth_ = metrics->GetQueueDepth(kMetricReceiverPartialsDepth);
}

ReliableReceiver::~ReliableReceiver() { *alive_ = false; }

ReliableReceiverStats ReliableReceiver::stats() const {
  ReliableReceiverStats s;
  s.delivered = delivered_->value();
  s.duplicates_dropped = duplicates_dropped_->value();
  s.naks_sent = naks_sent_->value();
  s.gaps = gaps_->value();
  return s;
}

void ReliableReceiver::NoteSender(Stream& s, HostId host, Port port) {
  s.sender_host = host;
  s.sender_port = port;
  s.last_packet_at = sim_->Now();
}

ReliableReceiver::Stream& ReliableReceiver::EnsureStarted(uint64_t stream_id) {
  Stream& s = streams_[stream_id];
  if (!s.started) {
    s.started = true;
    s.syncing = true;
    sim_->ScheduleAfter(
        config_.sync_hold_us,
        [this, stream_id, alive = alive_]() {
          if (!*alive) {
            return;
          }
          auto it = streams_.find(stream_id);
          if (it != streams_.end() && it->second.syncing) {
            FinishSync(stream_id, it->second);
          }
        },
        "proto.sync_hold");
  }
  return s;
}

void ReliableReceiver::HandleData(const DataPacket& pkt, HostId from_host, Port from_port) {
  Stream& s = EnsureStarted(pkt.stream_id);
  NoteSender(s, from_host, from_port);
  if ((!s.syncing && pkt.seq < s.expected) || s.ready.count(pkt.seq) > 0) {
    duplicates_dropped_->Inc();
    return;
  }
  if (pkt.frag_count == 1) {
    Ingest(pkt.stream_id, pkt.seq, pkt.chunk, from_host, from_port);
    return;
  }
  Partial& partial = s.partials[pkt.seq];
  if (partial.chunks.empty()) {
    partial.chunks.resize(pkt.frag_count);  // hotlint: allow(hot-container-growth) -- this resize IS the one-shot preallocation of the reassembly buffer
    partials_depth_.Set(++partials_total_);
  }
  if (pkt.frag_count != partial.chunks.size()) {
    return;  // inconsistent retransmit; ignore
  }
  if (!partial.chunks[pkt.frag_index].empty()) {
    duplicates_dropped_->Inc();
    return;
  }
  partial.chunks[pkt.frag_index] = pkt.chunk;
  partial.received++;
  partial.last_update = sim_->Now();
  if (pkt.frag_index + 1u == pkt.frag_count && pkt.chunk.empty()) {
    // Guard: empty final chunk still counts as received (set above); nothing special.
  }
  s.highest_seen = std::max(s.highest_seen, pkt.seq);
  if (partial.received == partial.chunks.size()) {
    Bytes whole;
    for (Bytes& c : partial.chunks) {
      whole.insert(whole.end(), c.begin(), c.end());  // hotlint: allow(hot-container-growth) -- reassembly concatenation into the rebuilt message
    }
    s.partials.erase(pkt.seq);
    partials_depth_.Set(--partials_total_);
    Ingest(pkt.stream_id, pkt.seq, std::move(whole), from_host, from_port);
  } else {
    // A fragmented message implies in-flight sequences; watch for loss.
    if (!s.syncing) {
      MaybeScheduleNak(pkt.stream_id);
    }
  }
}

void ReliableReceiver::HandleBatch(const BatchPacket& pkt, HostId from_host, Port from_port) {
  uint64_t seq = pkt.first_seq;
  for (const Bytes& m : pkt.messages) {
    Stream& s = EnsureStarted(pkt.stream_id);
    NoteSender(s, from_host, from_port);
    if ((!s.syncing && seq < s.expected) || s.ready.count(seq) > 0) {
      duplicates_dropped_->Inc();
    } else {
      Ingest(pkt.stream_id, seq, m, from_host, from_port);
    }
    ++seq;
  }
}

void ReliableReceiver::HandleHeartbeat(const HeartbeatPacket& pkt, HostId from_host,
                                       Port from_port) {
  Stream& s = streams_[pkt.stream_id];
  NoteSender(s, from_host, from_port);
  if (!s.started) {
    // A late joiner starts fresh from the next message; no history fetch (new
    // subscribers receive "new objects being published", paper §3.1).
    s.started = true;
    s.expected = pkt.highest_seq + 1;
    s.highest_seen = pkt.highest_seq;
    return;
  }
  if (s.syncing) {
    // A heartbeat ends the initial hold window authoritatively.
    FinishSync(pkt.stream_id, s);
  }
  s.highest_seen = std::max(s.highest_seen, pkt.highest_seq);
  if (s.expected < pkt.lowest_retained) {
    // The sender can no longer retransmit what we are missing: unrecoverable gap.
    uint64_t first = s.expected;
    uint64_t last = pkt.lowest_retained - 1;
    gaps_->Inc(last - first + 1);
    if (recorder_ != nullptr) {
      recorder_->Record(sim_->Now(), telemetry::FlightEventKind::kGap, "",
                        "stream=" + std::to_string(pkt.stream_id) +  // hotlint: allow(hot-string) -- loss-detection telemetry detail: exception path
                            " first=" + std::to_string(first) +  // hotlint: allow(hot-string) -- loss-detection telemetry detail: exception path
                            " last=" + std::to_string(last));  // hotlint: allow(hot-string) -- loss-detection telemetry detail: exception path
    }
    if (on_gap_) {
      on_gap_(pkt.stream_id, first, last);
    }
    s.expected = pkt.lowest_retained;
    // Drop stale partial state below the new horizon.
    while (!s.partials.empty() && s.partials.begin()->first < s.expected) {
      s.partials.erase(s.partials.begin());
      partials_depth_.Set(--partials_total_);
    }
    DrainReady(pkt.stream_id, s);
  }
  if (s.expected <= s.highest_seen) {
    MaybeScheduleNak(pkt.stream_id);
  }
}

void ReliableReceiver::Ingest(uint64_t stream_id, uint64_t seq, Bytes message,
                              HostId /*from_host*/, Port /*from_port*/) {
  Stream& s = EnsureStarted(stream_id);
  if ((!s.syncing && seq < s.expected) || s.ready.count(seq) > 0) {
    duplicates_dropped_->Inc();
    return;
  }
  s.highest_seen = std::max(s.highest_seen, seq);
  s.ready.emplace(seq, std::move(message));  // hotlint: allow(hot-container-growth) -- out-of-order staging map, bounded by the receive window
  ready_depth_.Set(++ready_total_);
  if (s.syncing) {
    return;  // delivery deferred until the hold window closes
  }
  DrainReady(stream_id, s);
  if (s.expected <= s.highest_seen &&
      (s.ready.empty() ? true : s.ready.begin()->first != s.expected)) {
    MaybeScheduleNak(stream_id);
  }
}

void ReliableReceiver::FinishSync(uint64_t stream_id, Stream& s) {
  s.syncing = false;
  if (!s.ready.empty() && !s.partials.empty()) {
    s.expected = std::min(s.ready.begin()->first, s.partials.begin()->first);
  } else if (!s.ready.empty()) {
    s.expected = s.ready.begin()->first;
  } else if (!s.partials.empty()) {
    s.expected = s.partials.begin()->first;
  } else {
    s.expected = s.highest_seen + 1;
  }
  DrainReady(stream_id, s);
  if (s.expected <= s.highest_seen) {
    MaybeScheduleNak(stream_id);
  }
}

void ReliableReceiver::DrainReady(uint64_t stream_id, Stream& s) {
  // A declared gap can move `expected` past out-of-order messages already buffered in
  // `ready`. Purge those (their window was abandoned) as we drain: a single stale
  // entry at the front would otherwise block delivery on this stream forever.
  while (!s.ready.empty() && s.ready.begin()->first <= s.expected) {
    if (s.ready.begin()->first < s.expected) {
      s.ready.erase(s.ready.begin());
      ready_depth_.Set(--ready_total_);
      continue;
    }
    Bytes message = std::move(s.ready.begin()->second);
    s.ready.erase(s.ready.begin());
    ready_depth_.Set(--ready_total_);
    s.expected++;
    delivered_->Inc();
    deliver_(stream_id, message);
  }
  while (!s.partials.empty() && s.partials.begin()->first < s.expected) {
    s.partials.erase(s.partials.begin());
    partials_depth_.Set(--partials_total_);
  }
}

void ReliableReceiver::MaybeScheduleNak(uint64_t stream_id) {
  Stream& s = streams_[stream_id];
  if (s.nak_scheduled) {
    return;
  }
  s.nak_scheduled = true;
  sim_->ScheduleAfter(
      config_.nak_delay_us,
      [this, stream_id, alive = alive_]() {
        if (!*alive) {
          return;
        }
        NakScan(stream_id);
      },
      "proto.nak_scan");
}

void ReliableReceiver::NakScan(uint64_t stream_id) {  // hotlint: allow(hot-recursion) -- self-reschedules via a simulator timer: one frame per scan interval
  auto sit = streams_.find(stream_id);
  if (sit == streams_.end()) {
    return;
  }
  Stream& s = sit->second;
  if (s.syncing) {
    s.nak_scheduled = false;
    return;
  }
  // Determine the missing head-of-line messages: whole ones (no fragment heard), and
  // the empty slots of stalled reassemblies. The NAK must fit one datagram, so
  // entries and fragment indices are budgeted at their largest encodings.
  constexpr size_t kEntryMaxBytes = 8 + 3;  // u64 seq + varint count (<= 0xFFFF)
  constexpr size_t kFragMaxBytes = 3;       // varint index (<= 0xFFFF)
  size_t budget = config_.chunk_size;
  NakPacket nak;
  nak.stream_id = stream_id;
  uint64_t horizon = s.highest_seen;
  if (!s.partials.empty()) {
    horizon = std::max(horizon, s.partials.rbegin()->first);
  }
  for (uint64_t seq = s.expected; seq <= horizon && nak.missing.size() < 64 &&
                                  budget >= kEntryMaxBytes + kFragMaxBytes;
       ++seq) {
    if (s.ready.count(seq) > 0) {
      continue;
    }
    auto pit = s.partials.find(seq);
    if (pit != s.partials.end() &&
        sim_->Now() - pit->second.last_update < config_.partial_stall_us) {
      continue;  // reassembly in progress; don't request a resend yet
    }
    if (nak.missing.empty()) {
      nak.missing.reserve(std::min<uint64_t>(64, horizon - seq + 1));
    }
    budget -= kEntryMaxBytes;
    NakEntry& entry = nak.missing.emplace_back();
    entry.seq = seq;
    if (pit == s.partials.end()) {
      continue;  // no fragment heard: an empty list asks for the whole message
    }
    const Partial& partial = pit->second;
    entry.frags.reserve(partial.chunks.size() - partial.received);
    for (size_t i = 0; i < partial.chunks.size() && budget >= kFragMaxBytes; ++i) {
      if (partial.chunks[i].empty()) {
        entry.frags.push_back(static_cast<uint16_t>(i));
        budget -= kFragMaxBytes;
      }
    }
  }
  if (nak.missing.empty()) {
    if (!s.partials.empty()) {
      // Nothing to request yet, but reassemblies are pending: keep watching so a
      // stalled partial (lost final fragment) eventually gets NAKed.
      sim_->ScheduleAfter(
          config_.nak_retry_us,
          [this, stream_id, alive = alive_]() {
            if (*alive) {
              NakScan(stream_id);
            }
          },
          "proto.nak_scan");
      return;
    }
    s.nak_scheduled = false;
    s.cur_nak_retry = 0;
    return;
  }
  // Give up only when the sender has gone silent (crash or partition): as long as
  // packets keep arriving, the gap stays recoverable and we keep asking.
  if (sim_->Now() - s.last_packet_at > config_.sender_silence_give_up_us) {
    uint64_t first = s.expected;
    uint64_t last = s.ready.empty() ? horizon : s.ready.begin()->first - 1;
    gaps_->Inc(last - first + 1);
    if (recorder_ != nullptr) {
      recorder_->Record(sim_->Now(), telemetry::FlightEventKind::kGap, "",
                        "stream=" + std::to_string(stream_id) +  // hotlint: allow(hot-string) -- gap-repair telemetry detail: exception path
                            " first=" + std::to_string(first) +  // hotlint: allow(hot-string) -- gap-repair telemetry detail: exception path
                            " last=" + std::to_string(last));  // hotlint: allow(hot-string) -- gap-repair telemetry detail: exception path
    }
    if (on_gap_) {
      on_gap_(stream_id, first, last);
    }
    s.expected = last + 1;
    s.cur_nak_retry = 0;
    DrainReady(stream_id, s);
    if (s.expected > s.highest_seen) {
      s.nak_scheduled = false;
      return;
    }
  } else if (s.sender_host != kNoHost) {
    socket_->SendTo(s.sender_host, s.sender_port, FrameMessage(kPktNak, nak.Marshal()));
    naks_sent_->Inc();
    s.last_nak_at = sim_->Now();
  }
  // Exponential backoff while the same head sequence resists recovery (retransmits
  // of large messages may be queued behind a congested medium); reset on progress.
  if (nak.missing.front().seq == s.gap_head_seq && s.cur_nak_retry > 0) {
    s.cur_nak_retry = std::min(2 * s.cur_nak_retry, config_.nak_retry_max_us);
  } else {
    s.gap_head_seq = nak.missing.front().seq;
    s.cur_nak_retry = config_.nak_retry_us;
  }
  sim_->ScheduleAfter(
      s.cur_nak_retry,
      [this, stream_id, alive = alive_]() {
        if (!*alive) {
          return;
        }
        NakScan(stream_id);
      },
      "proto.nak_scan");
}

}  // namespace ibus
