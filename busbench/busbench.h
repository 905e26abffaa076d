// busbench: an open-loop benchmark of the bus's CPU cost and simulated capacity.
//
// Shared declarations of the driver: the allocation hook and span tracer
// (trace.cc), the workloads, their seeded inputs, the delivery oracle and the
// topologies (workloads.cc), the per-layer replays (replay.cc), and the driver
// proper (busbench.cc). Everything runs on one thread; every layer is reached
// only through its public functions.
#ifndef BUSBENCH_BUSBENCH_H_
#define BUSBENCH_BUSBENCH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/bus/certified.h"
#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/journal/journal.h"
#include "src/router/router.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/stable_store.h"

namespace busbench {

using ibus::Bytes;
using ibus::SimTime;
using ibus::Status;

// ---------------------------------------------------------------------------------
// Allocation accounting and spans (trace.cc)
// ---------------------------------------------------------------------------------

struct AllocCount {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

// Slot 0 collects allocations made while no span is open; the tracer hands out the
// other slots, one per span name, so each allocation has exactly one owner. The
// first slots are fixed: a step span before its event kind is known, the span
// around the publish call, and the application handler.
inline constexpr int kMaxSlots = 64;
inline constexpr int kSlotStep = 1;
inline constexpr int kSlotPublish = 2;
inline constexpr int kSlotHandler = 3;
extern AllocCount g_alloc[kMaxSlots];
extern int g_owner;

AllocCount AllocTotal();
int64_t WallNs();     // steady clock
int64_t CpuNs();      // CLOCK_PROCESS_CPUTIME_ID

// In-memory span recorder for the traced pass. Spans nest; a span's self time is
// its duration minus the time its child spans cover. Per-name aggregates cover the
// whole traced window; the first kMaxRawSpans spans are kept raw for the Chrome
// trace file.
class Tracer {
 public:
  struct Agg {
    std::string name;
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  static constexpr size_t kMaxRawSpans = 50000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Slot of the simulator event kind `kind` ("sim.<kind>"), cached by pointer.
  int KindSlot(const char* kind);

  void Begin(int slot, uint64_t msg, int64_t at_ns);
  // Renames the innermost open span; allocations made under its old name move
  // with it. Used for step spans, whose event kind is known only mid-step.
  void Retag(int slot);
  void End(int64_t at_ns);

  const Agg& agg(int slot) const { return aggs_[static_cast<size_t>(slot)]; }
  int slots() const { return static_cast<int>(aggs_.size()); }
  // Chrome trace-event JSON (open in Perfetto or chrome://tracing).
  bool WriteChrome(const std::string& path) const;

 private:
  struct Open {
    int slot;
    int64_t start;
    int64_t child_ns;
    uint64_t msg;
    int saved_owner;
  };
  struct Raw {
    int slot;
    int parent;
    int64_t start;
    int64_t dur;
    uint64_t msg;
  };
  // Slot of a span name, registered on first use.
  int Slot(std::string_view name);

  std::vector<Agg> aggs_;
  std::vector<std::pair<const char*, int>> kinds_;
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
  int64_t origin_ = 0;
};

// Non-null only while the traced window runs.
extern Tracer* g_tracer;

// ---------------------------------------------------------------------------------
// Workloads and their seeded inputs (workloads.cc)
// ---------------------------------------------------------------------------------

struct Workload {
  const char* name;
  int consumers;
  size_t payload_bytes;
  int rate;        // msgs/s of the fixed-rate run
  int warmup;      // messages before the measured window
  int measured;    // messages in the measured window
  std::vector<int> ladder;
  SimTime limit_us;  // p99 limit of a ladder step
  bool batching;
  SimTime jitter_us;
  double drop_prob;
  double dup_prob;
  bool wan;  // two LANs, router pair, certified delivery
};

// The 1993 testbed knob shared with the paper-figure reproductions: ~4.3 ms of
// protocol-stack time per frame reproduces the authors' ~300 KB/s raw-UDP ceiling.
inline constexpr double kSunOsCpuUsPerFrame = 4300;
inline constexpr ibus::Port kRouterPort = 8700;
// Group-commit deadline of the certified ledger's journal.
inline constexpr SimTime kLedgerFlushDeadlineUs = ibus::kMillisecond;

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

// Everything a run publishes and expects, generated from the seed. The program
// under test only ever sees the subjects, patterns and payloads.
struct Plan {
  int consumers = 0;
  std::vector<std::string> subjects;
  std::vector<std::vector<std::string>> patterns;  // per consumer
  // expect[subject * consumers + c]: how many of consumer c's patterns match.
  std::vector<uint8_t> expect;
  std::vector<uint32_t> msg_subject;  // per message
  Bytes filler;                       // payload body; the header is per message
};

Plan MakePlan(const Workload& w, uint64_t seed, int n_msgs);

// The first `n_msgs` messages of `plan` (same subjects and payload) for the
// wan_certified topology: each of its consumers subscribes to every subject of
// the plan with one `<first element>.>` pattern.
Plan WanPassPlan(const Plan& plan, int n_msgs);

// The bench's own subject matcher ('*' one element, '>' one or more trailing),
// written independently of the trie under test.
bool PatternMatches(std::string_view pattern, std::string_view subject);

// Paced open-loop schedule: message i is due at a seeded uniform point of the
// slot [start + i/rate, start + (i+1)/rate). Arrivals never bunch beyond two per
// period, and no arrival keeps a fixed phase to the bus's own periodic timers
// (heartbeats, batch flushes), which a strictly periodic schedule would.
std::vector<SimTime> MakeSchedule(uint64_t seed, int rate, int n, SimTime start);

// Payload header: publisher (u32), sequence (u64), due time (i64).
inline constexpr size_t kHeaderBytes = 20;
void WriteHeader(Bytes* payload, uint32_t publisher, uint64_t seq, SimTime due);

// Checks every application delivery: exactly once per matching subscription,
// per-publisher FIFO at every consumer, the right subject and pattern, and the
// payload header intact.
class Oracle {
 public:
  Oracle(const Plan& plan, int first_measured, bool self_test)
      : plan_(plan), first_measured_(first_measured), self_test_(self_test) {}
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  // Arms the oracle with the run's schedule, before the first publish.
  void Start(std::vector<SimTime> due);

  void OnDeliver(int consumer, int pattern, const ibus::Message& m, SimTime now);
  // True once every expected delivery of every published message has landed.
  bool Complete() const { return received_ == expected_total_; }
  // Counts what never landed; missing measured deliveries enter the latency
  // sample as +infinity. Sorts the sample.
  void Finish();

  uint64_t calls() const { return calls_; }
  uint64_t expected_measured() const { return expected_measured_; }
  uint64_t failures() const { return missing_ + duplicates_ + misordered_ + misrouted_; }
  std::string FailureSummary() const;
  const std::vector<int64_t>& latencies() const { return latencies_; }
  // Sim time of the last delivery of message i (0 when none landed).
  const std::vector<SimTime>& last_delivery() const { return last_delivery_; }

 private:
  void Record(int consumer, int pattern, uint64_t seq, SimTime now);

  const Plan& plan_;
  std::vector<SimTime> due_;
  int first_measured_;
  bool self_test_;
  std::vector<std::vector<uint8_t>> got_;  // [consumer][msg]
  std::vector<int64_t> last_seq_;          // [consumer]
  std::vector<std::vector<int>> seq_patterns_;  // patterns delivered for last_seq_
  std::vector<SimTime> last_delivery_;
  std::vector<int64_t> latencies_;
  uint64_t expected_total_ = 0;
  uint64_t expected_measured_ = 0;
  uint64_t received_ = 0;
  uint64_t calls_ = 0;
  uint64_t missing_ = 0, duplicates_ = 0, misordered_ = 0, misrouted_ = 0;
};

// One subscription's upcall target; the handler captures only a pointer to it.
struct Sink {
  Oracle* oracle;
  ibus::Simulator* sim;
  int consumer;
  int pattern;
};

// A StableStore that times the device writes (block appends and sync barriers)
// the journal issues through it.
class TimedStore : public ibus::StableStore {
 public:
  ibus::Result<uint64_t> Append(const Bytes& record) override;
  ibus::Result<std::vector<Bytes>> ReadFrom(uint64_t from_seq) const override {
    return inner_.ReadFrom(from_seq);
  }
  Status TruncateBefore(uint64_t seq) override { return inner_.TruncateBefore(seq); }
  Status TruncateFrom(uint64_t seq) override { return inner_.TruncateFrom(seq); }
  uint64_t NextSeq() const override { return inner_.NextSeq(); }
  Status Sync() override;
  SimTime WriteLatency() const override { return inner_.WriteLatency(); }

  int64_t write_ns() const { return write_ns_; }

 private:
  ibus::MemoryStableStore inner_;
  int64_t write_ns_ = 0;
};

// A built topology. Members are declared in dependency order so destruction runs
// from the certified layer down to the simulator.
struct Bus {
  std::unique_ptr<ibus::Simulator> sim;
  std::unique_ptr<ibus::Network> net;
  std::vector<std::unique_ptr<ibus::BusDaemon>> daemons;
  std::vector<std::unique_ptr<ibus::BusClient>> clients;  // [0] publishes
  std::vector<std::unique_ptr<ibus::InfoRouter>> routers;
  std::deque<Sink> sinks;
  std::vector<ibus::HostId> consumer_hosts;
  std::unique_ptr<TimedStore> device;
  std::unique_ptr<ibus::telemetry::MetricsRegistry> journal_metrics;
  std::unique_ptr<ibus::journal::Journal> ledger;
  std::unique_ptr<ibus::CertifiedPublisher> cert_pub;
  std::vector<std::unique_ptr<ibus::CertifiedSubscriber>> cert_subs;
  std::function<Status(const std::string&, Bytes)> publish;

  uint64_t subscribe_calls = 0;
  int64_t subscribe_ns = 0;

  // Nothing is left in flight that the workload still owes: for certified
  // delivery, every message is retired.
  bool Settled() const { return cert_pub == nullptr || cert_pub->pending() == 0; }
};

// Builds the workload's topology and subscriptions and lets the control plane
// settle. `time_subscribes` times each Subscribe call (traced pass only).
Status BuildBus(const Workload& w, const Plan& plan, uint64_t seed, Oracle* oracle,
                bool time_subscribes, Bus* bus);

// Counters read through the layers' public stats accessors.
struct Counters {
  uint64_t frames = 0, wire_bytes = 0;
  uint64_t sender_published = 0, packets = 0, retransmits = 0, naks_sent = 0,
           heartbeats = 0, rx_delivered = 0, duplicates_dropped = 0, gaps = 0;
  uint64_t dispatched = 0, daemon_deliveries = 0, no_match = 0;
  uint64_t publish_bytes = 0, self_bytes = 0;
  int64_t ready_hwm = 0, partials_hwm = 0, retained_hwm = 0;
  uint64_t router_forwarded = 0, router_republished = 0, router_suppressed = 0;
  uint64_t cert_published = 0, cert_retransmits = 0, cert_retired = 0, cert_acks = 0;
  uint64_t journal_appends = 0, journal_flushes = 0;
};
Counters Snapshot(const Bus& bus);
// Counter deltas; high-water marks are taken from `after`.
Counters Delta(const Counters& after, const Counters& before);
uint64_t Fingerprint(const Counters& c, uint64_t h);

// ---------------------------------------------------------------------------------
// Per-layer replays (replay.cc)
// ---------------------------------------------------------------------------------

// What the tapped pass saw on the medium.
struct FrameLog {
  ibus::HostId watch_host = ibus::kNoHost;  // frames received here are kept whole
  std::vector<ibus::CapturedFrame> watched;
  std::vector<SimTime> waits;  // queued_us, one per medium transmission
  uint64_t transmissions = 0;
  uint64_t control_transmissions = 0;  // heartbeat and NAK frames
};

struct ReplayInput {
  const Workload* w;
  const Plan* plan;
  std::vector<SimTime> due;
  std::vector<int64_t> latencies;
  const FrameLog* frames;
};

struct LayerMetric {
  double value;
  const char* unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

// Runs every replay and adds its metrics to `out`.
void RunReplays(const ReplayInput& in, LayerMetrics* out);

}  // namespace busbench

#endif  // BUSBENCH_BUSBENCH_H_
