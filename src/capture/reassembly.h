// Reliable-stream reassembler over a capture: rebuilds every sender's sequence
// timeline from the wire (which tx carried which seq, which copies were dropped,
// duplicated, or retransmitted), correlates drops with the NAKs and retransmits
// they caused, and annotates each receiver's arrival order with the gaps that
// reordering/loss opened and when they were filled. This is the wire-side view of
// the paper's NAK/retransmission protocol (§3.1).
#ifndef SRC_CAPTURE_REASSEMBLY_H_
#define SRC_CAPTURE_REASSEMBLY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/network.h"

namespace ibus::capture {

// One on-the-wire appearance of a (stream, seq): a per-receiver capture record.
struct SeqAttempt {
  uint64_t capture_index = 0;
  uint64_t tx_id = 0;
  HostId dst_host = kNoHost;
  SimTime sent_at = 0;
  SimTime at = 0;  // fate time (delivery or drop decision)
  FrameFate fate = FrameFate::kDelivered;
  bool duplicate = false;   // fault-made copy
  bool retransmit = false;  // a later tx of an already-transmitted seq
};

// One NAK that asked for a seq: its capture index and the fragments it named
// (empty: the whole message).
struct NakRequest {
  uint64_t capture_index = 0;
  std::vector<uint16_t> frags;
};

// Per-sender sequence timeline entry.
struct SeqTimeline {
  uint64_t stream_id = 0;
  uint64_t seq = 0;
  std::vector<SeqAttempt> attempts;    // capture order
  uint32_t transmissions = 0;          // distinct medium transmissions (tx_ids)
  uint32_t drops = 0;                  // attempts lost (fault/partition/...)
  uint32_t dup_deliveries = 0;         // fault-made duplicate deliveries
  bool retransmitted = false;
  std::vector<NakRequest> naks;        // NAKs requesting it, in send order
  // Drop records whose loss this seq's retransmissions repaired: for each
  // retransmit tx, the dropped attempts of earlier txs of the same fragment.
  std::vector<uint64_t> caused_by_drops;
};

// One hole in a receiver's arrival order: opened when a higher seq arrived while
// `seq` was still outstanding; filled when `seq` finally landed. `via_retransmit`
// distinguishes loss (repaired by the NAK protocol) from plain jitter reordering.
struct GapAnnotation {
  uint64_t stream_id = 0;
  HostId dst_host = kNoHost;
  uint64_t seq = 0;
  SimTime opened_at = 0;       // arrival time of the overtaking seq
  uint64_t overtaken_by = 0;   // the seq whose arrival exposed the hole
  bool filled = false;
  SimTime filled_at = 0;
  bool via_retransmit = false;  // filled by a retransmitted tx (loss, not reorder)
};

struct ReassemblyReport {
  // (stream_id, seq) -> timeline, deterministic iteration order.
  std::map<std::pair<uint64_t, uint64_t>, SeqTimeline> seqs;
  std::vector<GapAnnotation> gaps;
  std::set<uint64_t> retransmit_tx_ids;  // consumed by the bandwidth accountant

  uint64_t data_records = 0;
  uint64_t retransmitted_seqs = 0;
  uint64_t total_drops = 0;
  uint64_t dup_deliveries = 0;
  uint64_t nak_frames = 0;
  uint64_t gaps_filled_by_retransmit = 0;
  uint64_t gaps_filled_by_reorder = 0;
};

ReassemblyReport Reassemble(const std::vector<CapturedFrame>& frames);

// Deterministic multi-line rendering (per-seq timelines with annotations, then the
// gap list and totals).
std::string RenderReassemblyText(const ReassemblyReport& r);

}  // namespace ibus::capture

#endif  // SRC_CAPTURE_REASSEMBLY_H_
