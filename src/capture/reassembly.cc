#include "src/capture/reassembly.h"

#include <algorithm>
#include <tuple>

#include "src/capture/dissect.h"

namespace ibus::capture {

namespace {

bool IsDropFate(FrameFate f) {
  return f == FrameFate::kDroppedFault || f == FrameFate::kDroppedPartition ||
         f == FrameFate::kDroppedNoListener || f == FrameFate::kMtuRejected;
}

bool IsDeliveredFate(FrameFate f) {
  return f == FrameFate::kDelivered || f == FrameFate::kQueuedDelay ||
         f == FrameFate::kDuplicated;
}

struct ParsedRecord {
  const CapturedFrame* frame;
  Dissection d;
};

// Arrival of one fully-reassembled seq at one receiver (all fragments landed).
struct ArrivalEvent {
  uint64_t stream_id;
  HostId dst;
  uint64_t seq;
  SimTime at;
  uint64_t capture_index;
  bool via_retransmit;
};

}  // namespace

ReassemblyReport Reassemble(const std::vector<CapturedFrame>& frames) {
  ReassemblyReport r;

  // Dissect once, in send order (capture order is fate order; retransmit detection
  // needs the order frames were handed to the medium).
  std::vector<ParsedRecord> records;
  records.reserve(frames.size());
  for (const CapturedFrame& f : frames) {
    records.push_back({&f, DissectFrame(f.payload)});
  }
  std::vector<size_t> send_order(records.size());
  for (size_t i = 0; i < send_order.size(); ++i) {
    send_order[i] = i;
  }
  std::sort(send_order.begin(), send_order.end(), [&](size_t a, size_t b) {
    if (records[a].frame->sent_at != records[b].frame->sent_at) {
      return records[a].frame->sent_at < records[b].frame->sent_at;
    }
    return records[a].frame->index < records[b].frame->index;
  });

  // Per (stream, seq, frag): the first tx_id is the original; later distinct
  // tx_ids are retransmissions; drops not yet attributed to a retransmit (repair is
  // per fragment, so a retransmit repairs only its own fragment's drops).
  std::map<std::tuple<uint64_t, uint64_t, uint16_t>, uint64_t> first_tx;
  std::map<std::tuple<uint64_t, uint64_t, uint16_t>, std::set<uint64_t>> seen_tx;
  std::map<std::tuple<uint64_t, uint64_t, uint16_t>, std::vector<uint64_t>> pending_drops;
  // Per (stream, dst, seq): delivered fragments -> completion detection.
  struct FragState {
    std::map<uint16_t, SimTime> delivered;  // frag_index -> time
    uint16_t frag_count = 1;
    bool complete = false;
    bool any_retransmit = false;
    uint64_t last_index = 0;
  };
  std::map<std::tuple<uint64_t, HostId, uint64_t>, FragState> frag_states;
  std::vector<ArrivalEvent> arrivals;

  for (size_t pos : send_order) {
    const CapturedFrame& f = *records[pos].frame;
    const Dissection& d = records[pos].d;
    if (!d.parsed) {
      continue;
    }
    if (d.kind == "nak") {
      r.nak_frames++;
      for (const NakEntry& missing : d.nak_missing) {
        SeqTimeline& t = r.seqs[{d.stream_id, missing.seq}];
        t.stream_id = d.stream_id;
        t.seq = missing.seq;
        t.naks.push_back({f.index, missing.frags});
      }
      continue;
    }
    if (d.seqs.empty()) {
      continue;  // not a sequenced frame (control / client / link traffic)
    }
    r.data_records++;
    for (uint64_t seq : d.seqs) {
      auto frag_key = std::make_tuple(d.stream_id, seq, d.frag_index);
      auto seq_key = std::make_pair(d.stream_id, seq);
      SeqTimeline& t = r.seqs[seq_key];
      t.stream_id = d.stream_id;
      t.seq = seq;

      bool retransmit = false;
      if (!f.duplicate) {
        auto [it, fresh] = first_tx.emplace(frag_key, f.tx_id);
        std::set<uint64_t>& txs = seen_tx[frag_key];
        retransmit = !fresh && it->second != f.tx_id;
        if (txs.insert(f.tx_id).second) {
          t.transmissions++;
          if (retransmit) {
            t.retransmitted = true;
            r.retransmit_tx_ids.insert(f.tx_id);
            // This retransmission repairs the drops seen since the last one.
            auto& pend = pending_drops[frag_key];
            t.caused_by_drops.insert(t.caused_by_drops.end(), pend.begin(),
                                     pend.end());
            pend.clear();
          }
        } else if (r.retransmit_tx_ids.count(f.tx_id) > 0) {
          retransmit = true;  // sibling record (broadcast fan-out) of a retransmit tx
        }
      }

      SeqAttempt a;
      a.capture_index = f.index;
      a.tx_id = f.tx_id;
      a.dst_host = f.dst_host;
      a.sent_at = f.sent_at;
      a.at = f.delivered_at;
      a.fate = f.fate;
      a.duplicate = f.duplicate;
      a.retransmit = retransmit;
      t.attempts.push_back(a);

      if (IsDropFate(f.fate)) {
        t.drops++;
        r.total_drops++;
        pending_drops[frag_key].push_back(f.index);
      }
      if (f.fate == FrameFate::kDuplicated) {
        t.dup_deliveries++;
        r.dup_deliveries++;
      }

      if (IsDeliveredFate(f.fate)) {
        FragState& fs = frag_states[{d.stream_id, f.dst_host, seq}];
        fs.frag_count = std::max(fs.frag_count, d.frag_count);
        fs.any_retransmit = fs.any_retransmit || retransmit;
        // Batch frames carry whole messages; treat them as single-fragment.
        uint16_t frag = d.kind == "data" ? d.frag_index : 0;
        fs.delivered.emplace(frag, f.delivered_at);
        fs.last_index = f.index;
        if (!fs.complete && fs.delivered.size() >= fs.frag_count) {
          fs.complete = true;
          SimTime done = 0;
          for (const auto& [idx, at] : fs.delivered) {
            done = std::max(done, at);
          }
          arrivals.push_back({d.stream_id, f.dst_host, seq, done, f.index,
                              fs.any_retransmit});
        }
      }
    }
  }

  for (auto& [key, t] : r.seqs) {
    if (t.retransmitted) {
      r.retransmitted_seqs++;
    }
  }

  // Receiver-side gap walk: per (stream, dst), replay completed arrivals in time
  // order. A seq landing after a higher seq already landed fills a gap; whether a
  // retransmitted tx filled it separates loss from plain jitter reordering.
  std::sort(arrivals.begin(), arrivals.end(), [](const ArrivalEvent& a,
                                                 const ArrivalEvent& b) {
    if (a.stream_id != b.stream_id) {
      return a.stream_id < b.stream_id;
    }
    if (a.dst != b.dst) {
      return a.dst < b.dst;
    }
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.capture_index < b.capture_index;
  });
  size_t i = 0;
  while (i < arrivals.size()) {
    size_t j = i;
    while (j < arrivals.size() && arrivals[j].stream_id == arrivals[i].stream_id &&
           arrivals[j].dst == arrivals[i].dst) {
      ++j;
    }
    uint64_t max_seq = 0;
    std::map<uint64_t, size_t> open;  // missing seq -> index into r.gaps
    for (size_t k = i; k < j; ++k) {
      const ArrivalEvent& ev = arrivals[k];
      if (max_seq == 0) {
        max_seq = ev.seq;  // capture may start mid-stream; baseline, no gaps yet
        continue;
      }
      if (ev.seq > max_seq + 1) {
        for (uint64_t m = max_seq + 1; m < ev.seq; ++m) {
          GapAnnotation g;
          g.stream_id = ev.stream_id;
          g.dst_host = ev.dst;
          g.seq = m;
          g.opened_at = ev.at;
          g.overtaken_by = ev.seq;
          open[m] = r.gaps.size();
          r.gaps.push_back(g);
        }
      } else if (ev.seq <= max_seq) {
        auto it = open.find(ev.seq);
        if (it != open.end()) {
          GapAnnotation& g = r.gaps[it->second];
          g.filled = true;
          g.filled_at = ev.at;
          g.via_retransmit = ev.via_retransmit;
          (ev.via_retransmit ? r.gaps_filled_by_retransmit
                             : r.gaps_filled_by_reorder)++;
          open.erase(it);
        }
      }
      max_seq = std::max(max_seq, ev.seq);
    }
    i = j;
  }

  return r;
}

std::string RenderReassemblyText(const ReassemblyReport& r) {
  std::string out;
  out += "reassembly: data_records=" + std::to_string(r.data_records) +
         " seqs=" + std::to_string(r.seqs.size()) +
         " retransmitted=" + std::to_string(r.retransmitted_seqs) +
         " drops=" + std::to_string(r.total_drops) +
         " dup_deliveries=" + std::to_string(r.dup_deliveries) +
         " naks=" + std::to_string(r.nak_frames) + "\n";
  for (const auto& [key, t] : r.seqs) {
    if (!t.retransmitted && t.drops == 0 && t.dup_deliveries == 0 &&
        t.naks.empty()) {
      continue;  // clean seqs stay silent; the summary line carries the count
    }
    out += "  stream=" + std::to_string(t.stream_id) + " seq=" +
           std::to_string(t.seq) + " tx=" + std::to_string(t.transmissions) +
           " drops=" + std::to_string(t.drops);
    if (t.retransmitted) {
      out += " RETRANSMITTED";
    }
    if (!t.naks.empty()) {
      // Capture index of each NAK, then the fragments it named: naks=[139,150{1,3}].
      out += " naks=[";
      for (size_t i = 0; i < t.naks.size(); ++i) {
        out += (i ? "," : "") + std::to_string(t.naks[i].capture_index) +
               RenderNakFragments(t.naks[i].frags);
      }
      out += "]";
    }
    if (!t.caused_by_drops.empty()) {
      out += " repaired_drops=[";
      for (size_t i = 0; i < t.caused_by_drops.size(); ++i) {
        out += (i ? "," : "") + std::to_string(t.caused_by_drops[i]);
      }
      out += "]";
    }
    if (t.dup_deliveries > 0) {
      out += " dups=" + std::to_string(t.dup_deliveries);
    }
    out += "\n";
  }
  for (const GapAnnotation& g : r.gaps) {
    out += "  gap stream=" + std::to_string(g.stream_id) + " dst=" +
           std::to_string(g.dst_host) + " seq=" + std::to_string(g.seq) +
           " opened_at=" + std::to_string(g.opened_at) + " overtaken_by=" +
           std::to_string(g.overtaken_by);
    if (g.filled) {
      out += " filled_at=" + std::to_string(g.filled_at) +
             (g.via_retransmit ? " via=retransmit" : " via=reorder");
    } else {
      out += " UNFILLED";
    }
    out += "\n";
  }
  out += "  gaps_filled: retransmit=" + std::to_string(r.gaps_filled_by_retransmit) +
         " reorder=" + std::to_string(r.gaps_filled_by_reorder) + "\n";
  return out;
}

}  // namespace ibus::capture
