// busbench driver: one workload, one seed, one process, one thread.
//
//   busbench --workload NAME --seed N --seconds S --mode measure|trace
//            [--scale F] [--repeats P] [--self-test] [--trace-out PATH]
//
// measure: runs the fixed-rate phase as kSubRuns sub-runs on sub-seeds of N, each
//   on a fresh topology, and repeats them until S wall seconds have passed (at
//   least two passes; --repeats fixes the number of passes). Then climbs the rate
//   ladder. Prints the end-to-end metrics.
// trace:   on the first sub-seed: three untraced runs (the CPU baseline), one traced
//   run (a span per simulator event plus spans around the bench-owned calls), one
//   run with a frame tap on the medium, a WAN pass for the router and ledger
//   layers (workloads other than wan_certified), then the per-layer replays.
//   Prints the per-layer metrics and writes the spans as a Chrome trace.
//
// --scale shrinks every message count (smoke tests); --self-test corrupts the
// delivery log so the oracle must fail.
//
// The load is an open loop in simulated time: each publish is a simulator event
// at its due time, and latency runs from that due time to the application upcall.
// The last line of stdout is one JSON object; the exit code is non-zero when any
// correctness or determinism check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "busbench/busbench.h"
#include "src/wire/wire.h"

namespace busbench {
namespace {

using ibus::kMillisecond;
using ibus::kSecond;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "measure";
  double scale = 1.0;
  int repeats = 0;  // passes over the sub-runs; 0: as many as fit in `seconds`
  bool self_test = false;
  std::string trace_out;
};

constexpr int kSubRuns = 8;
constexpr int kMaxRuns = 6 * kSubRuns;
constexpr uint64_t kChunkEvents = 5000;

// ---------------------------------------------------------------------------------
// One run: build, warm up, drive the measured window, check every delivery.
// ---------------------------------------------------------------------------------

struct RunSpec {
  int rate = 0;
  int warmup = 0;
  int measured = 0;
  SimTime drain_us = 0;
  uint64_t event_budget = 0;  // a step that needs more events is a collapse
  Tracer* tracer = nullptr;    // non-null: trace the window
  FrameLog* frames = nullptr;  // non-null: tap the medium during the window
  bool self_test = false;
};

struct RunResult {
  bool built = false;
  std::string error;
  double setup_s = 0;
  int64_t cpu_ns = 0;
  int64_t drive_wall_ns = 0;
  uint64_t deliveries = 0;  // application upcalls in the window
  uint64_t events = 0;      // simulator events in the window
  AllocCount allocs;
  Counters delta;
  SimTime window_us = 0;
  bool complete = false;
  bool aborted = false;
  SimTime max_lateness = 0;
  uint64_t publish_errors = 0;
  uint64_t expected_measured = 0;
  uint64_t failures = 0;
  std::string failure_summary;
  std::vector<int64_t> latencies;
  std::vector<SimTime> due;
  std::vector<SimTime> last_delivery;
  // Process CPU time of consecutive kChunkEvents-event slices of the window. The
  // slices are the same work in every repeat of a seed, so a per-slice minimum over
  // repeats filters out bursts of machine noise without reweighting the work.
  std::vector<int64_t> chunk_cpu_ns;
  uint64_t subscribe_calls = 0;
  int64_t subscribe_ns = 0;
  int64_t device_write_ns = 0;  // ledger device writes in the window
  uint64_t sim_fp = 0;    // everything the simulation decided
  uint64_t alloc_fp = 0;  // allocation counts of the window

  bool correct() const {
    return built && complete && !aborted && failures == 0 && max_lateness == 0 &&
           publish_errors == 0;
  }
};

// The open-loop generator: publishes message i at due[i], then schedules i+1.
struct Generator {
  Bus* bus;
  const Plan* plan;
  const std::vector<SimTime>* due;
  size_t next = 0;
  SimTime max_lateness = 0;
  uint64_t errors = 0;

  void Fire() {
    const size_t i = next++;
    const SimTime at = (*due)[i];
    max_lateness = std::max(max_lateness, bus->sim->Now() - at);
    Bytes payload = plan->filler;
    WriteHeader(&payload, 0, i, at);
    const std::string& subject = plan->subjects[plan->msg_subject[i]];
    Status s;
    if (g_tracer != nullptr) {
      g_tracer->Begin(kSlotPublish, i, WallNs());
      s = bus->publish(subject, std::move(payload));
      g_tracer->End(WallNs());
    } else {
      s = bus->publish(subject, std::move(payload));
    }
    if (!s.ok()) {
      ++errors;
    }
    if (next < due->size()) {
      bus->sim->ScheduleAt((*due)[next], [this] { Fire(); }, "bench.publish");
    }
  }
};

// Renames the open step span once the simulator reports the event's kind.
class KindObserver : public ibus::SimObserver {
 public:
  void OnEventDispatched(const char* kind, SimTime /*at*/) override {
    g_tracer->Retag(g_tracer->KindSlot(kind));
  }
};

// Wire-level observer for the tapped run (see FrameLog).
class FrameTap : public ibus::NetworkTap {
 public:
  explicit FrameTap(FrameLog* log) : log_(log) {}

  void OnFrame(const ibus::CapturedFrame& f) override {
    if (!f.duplicate && f.wire_us > 0 && seen_.insert(f.tx_id).second) {
      ++log_->transmissions;
      log_->waits.push_back(f.queued_us);
      auto frame = ibus::ParseFrame(f.payload);
      if (frame.ok() &&
          (frame->frame_type == ibus::kPktHeartbeat || frame->frame_type == ibus::kPktNak)) {
        ++log_->control_transmissions;
      }
    }
    const bool reached_socket = f.fate == ibus::FrameFate::kDelivered ||
                                f.fate == ibus::FrameFate::kQueuedDelay ||
                                f.fate == ibus::FrameFate::kDuplicated;
    if (f.dst_host == log_->watch_host && f.conn_id == 0 && reached_socket &&
        log_->watched.size() < kMaxWatched) {
      log_->watched.push_back(f);
    }
  }

 private:
  static constexpr size_t kMaxWatched = 20000;
  FrameLog* log_;
  std::unordered_set<uint64_t> seen_;
};

uint64_t Hash(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001B3ull; }

uint64_t SubSeed(uint64_t seed, int k) { return seed * kSubRuns + static_cast<uint64_t>(k); }

RunResult RunOnce(const Workload& w, const Plan& plan, uint64_t seed, const RunSpec& spec) {
  RunResult r;
  const int64_t t_start = WallNs();
  const int n = spec.warmup + spec.measured;
  Oracle oracle(plan, spec.warmup, spec.self_test);
  Bus bus;
  Status built = BuildBus(w, plan, seed, &oracle, spec.tracer != nullptr, &bus);
  if (!built.ok()) {
    r.error = built.ToString();
    return r;
  }
  r.built = true;
  r.subscribe_calls = bus.subscribe_calls;
  r.subscribe_ns = bus.subscribe_ns;
  // The schedule starts once the topology has settled.
  r.due = MakeSchedule(seed, spec.rate, n, bus.sim->Now() + 10 * kMillisecond);
  oracle.Start(r.due);

  Generator gen{&bus, &plan, &r.due};
  bus.sim->ScheduleAt(r.due[0], [&gen] { gen.Fire(); }, "bench.publish");
  const SimTime window_start = r.due[static_cast<size_t>(spec.warmup)];
  bus.sim->RunUntil(window_start - 1);
  r.setup_s = static_cast<double>(WallNs() - t_start) / 1e9;

  FrameTap tap(spec.frames);
  if (spec.frames != nullptr) {
    spec.frames->watch_host = bus.consumer_hosts.front();
    bus.net->AttachTap(&tap);
  }
  KindObserver observer;
  Tracer* tracer = spec.tracer;
  if (tracer != nullptr) {
    g_tracer = tracer;
    bus.sim->SetObserver(&observer);
  }
  const Counters before = Snapshot(bus);
  const int64_t device_ns_before = bus.device ? bus.device->write_ns() : 0;
  const uint64_t calls_before = oracle.calls();
  const SimTime last_due = r.due.back();
  const SimTime deadline = last_due + spec.drain_us;
  auto done = [&] {
    return bus.sim->Now() >= last_due && oracle.Complete() && bus.Settled();
  };

  const AllocCount a0 = AllocTotal();
  const int64_t cpu0 = CpuNs();
  const int64_t wall0 = WallNs();
  uint64_t events = 0;
  if (tracer != nullptr) {
    int64_t t = wall0;
    while (!done() && bus.sim->Now() < deadline) {
      tracer->Begin(kSlotStep, 0, t);
      const bool stepped = bus.sim->Step();
      t = WallNs();
      tracer->End(t);
      if (!stepped || ++events > spec.event_budget) {
        break;
      }
    }
  } else {
    int64_t chunk0 = cpu0;
    while (!done() && bus.sim->Now() < deadline) {
      if (!bus.sim->Step() || ++events > spec.event_budget) {
        break;
      }
      if (events % kChunkEvents == 0) {
        const int64_t now = CpuNs();
        r.chunk_cpu_ns.push_back(now - chunk0);
        chunk0 = now;
      }
    }
    r.chunk_cpu_ns.push_back(CpuNs() - chunk0);
  }
  r.drive_wall_ns = WallNs() - wall0;
  r.cpu_ns = CpuNs() - cpu0;
  const AllocCount a1 = AllocTotal();
  bus.sim->SetObserver(nullptr);
  g_tracer = nullptr;
  if (spec.frames != nullptr) {
    bus.net->DetachTap(&tap);
  }

  r.allocs = AllocCount{a1.count - a0.count, a1.bytes - a0.bytes};
  r.events = events;
  r.aborted = events > spec.event_budget;
  r.complete = done();
  r.window_us = bus.sim->Now() - window_start;
  r.deliveries = oracle.calls() - calls_before;
  r.delta = Delta(Snapshot(bus), before);
  r.device_write_ns = (bus.device ? bus.device->write_ns() : 0) - device_ns_before;
  r.max_lateness = gen.max_lateness;
  r.publish_errors = gen.errors;
  oracle.Finish();
  r.expected_measured = oracle.expected_measured();
  r.failures = oracle.failures();
  r.failure_summary = oracle.FailureSummary();
  r.latencies = oracle.latencies();
  r.last_delivery = oracle.last_delivery();

  uint64_t h = Fingerprint(r.delta, 0xCBF29CE484222325ull);
  h = Hash(h, r.events);
  h = Hash(h, r.deliveries);
  h = Hash(h, static_cast<uint64_t>(r.window_us));
  for (int64_t l : r.latencies) {
    h = Hash(h, static_cast<uint64_t>(l));
  }
  r.sim_fp = h;
  r.alloc_fp = Hash(Hash(h, r.allocs.count), r.allocs.bytes);
  return r;
}

// ---------------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------------

// Nearest-rank percentile of a sorted sample.
double Pct(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<size_t>(k, 1) - 1]);
}

double Quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Options& opt, bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics, uint64_t sim_fp) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"mode\": \"%s\", \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"sim_fingerprint\": \"%016llx\", "
              "\"telemetry\": %s, \"metrics\": {",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.mode.c_str(), correct ? "true" : "false",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(sim_fp), IBUS_TELEMETRY ? "true" : "false");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Scaled(int n, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(n * scale)));
}

RunSpec FixedSpec(const Workload& w, const Options& opt) {
  RunSpec s;
  s.rate = w.rate;
  s.warmup = Scaled(w.warmup / kSubRuns, opt.scale, 1);
  s.measured = Scaled(w.measured / kSubRuns, opt.scale, 10);
  s.drain_us = 10 * kSecond;
  s.event_budget = 3000ull * static_cast<uint64_t>(s.warmup + s.measured) *
                   static_cast<uint64_t>(w.consumers + 1);
  s.self_test = opt.self_test;
  return s;
}

bool Report(const char* what, const RunResult& r) {
  if (r.correct()) {
    return true;
  }
  std::fprintf(stderr,
               "busbench: %s failed: %s%s complete=%d aborted=%d lateness=%lld "
               "publish_errors=%llu %s\n",
               what, r.built ? "" : "build: ", r.error.c_str(), r.complete ? 1 : 0,
               r.aborted ? 1 : 0, static_cast<long long>(r.max_lateness),
               static_cast<unsigned long long>(r.publish_errors), r.failure_summary.c_str());
  return false;
}

// ---------------------------------------------------------------------------------
// measure mode
// ---------------------------------------------------------------------------------

// Highest ladder step that passes: p99 within the limit, every expected delivery
// inside the drain window, nothing lost, duplicated or reordered. The ladder stops
// at the first failing step; each step has a fixed message cap.
double Ladder(const Workload& w, const Plan& plan, const Options& opt) {
  double best = 0;
  for (int rate : w.ladder) {
    RunSpec s;
    s.rate = rate;
    s.measured = Scaled(std::clamp(rate * 30, 150, 4000), opt.scale, 20);
    s.warmup = std::max(1, s.measured / 20);
    s.drain_us = std::max<SimTime>(2 * kSecond, 10 * w.limit_us);
    s.event_budget = 300ull * static_cast<uint64_t>(s.warmup + s.measured) *
                     static_cast<uint64_t>(w.consumers + 1);
    RunResult r = RunOnce(w, plan, SubSeed(opt.seed, 0), s);
    const double p99 = Pct(r.latencies, 0.99);
    const bool pass = r.correct() && p99 <= static_cast<double>(w.limit_us);
    std::fprintf(stderr, "busbench: ladder %s %d msgs/s x%d: p99=%.0f us %s%s\n", w.name, rate,
                 s.measured, p99, pass ? "pass" : "FAIL ", pass ? "" : r.failure_summary.c_str());
    if (!pass) {
      break;
    }
    best = rate;
  }
  return best;
}

// One pass over kSubRuns sub-runs, each on its own sub-seed (inputs, schedule and
// network faults), makes up the workload's measured messages. Pooling independent
// sub-runs keeps one seed's timer phases or popularity draw from setting the tail.
// Further passes repeat the sub-runs while time remains, at least once, so every
// CPU slice has two samples; each repeat must reproduce its sub-run's
// fingerprints exactly.
int Measure(const Workload& w, const Options& opt) {
  const RunSpec spec = FixedSpec(w, opt);
  const int ladder_msgs = Scaled(4000, opt.scale, 20) * 21 / 20 + 1;
  struct SubRun {
    Plan plan;
    uint64_t sim_fp = 0;
    uint64_t alloc_fp = 0;
    std::vector<std::vector<int64_t>> chunks;  // per repeat
  };
  std::vector<SubRun> subs(kSubRuns);
  for (int k = 0; k < kSubRuns; ++k) {
    subs[static_cast<size_t>(k)].plan =
        MakePlan(w, SubSeed(opt.seed, k), std::max(spec.warmup + spec.measured, ladder_msgs));
  }
  const int64_t t0 = WallNs();
  std::vector<int64_t> latencies;
  std::vector<double> setup;
  AllocCount allocs;
  uint64_t deliveries = 0, expected = 0, lost = 0, attempted = 0, failed = 0;
  bool correct = true;
  for (int run = 0;; ++run) {
    const int k = run % kSubRuns;
    SubRun& sub = subs[static_cast<size_t>(k)];
    RunResult r = RunOnce(w, sub.plan, SubSeed(opt.seed, k), spec);
    correct = Report("fixed-rate run", r) && correct;
    attempted += r.expected_measured;
    failed += r.failures;
    setup.push_back(r.setup_s);
    sub.chunks.push_back(std::move(r.chunk_cpu_ns));
    if (run < kSubRuns) {
      sub.sim_fp = r.sim_fp;
      sub.alloc_fp = r.alloc_fp;
      latencies.insert(latencies.end(), r.latencies.begin(), r.latencies.end());
      allocs.count += r.allocs.count;
      allocs.bytes += r.allocs.bytes;
      deliveries += r.deliveries;
      expected += r.expected_measured;
      lost += r.failures;
    } else if (r.sim_fp != sub.sim_fp || r.alloc_fp != sub.alloc_fp) {
      std::fprintf(stderr, "busbench: determinism: sub-run %d differs on repeat\n", k);
      correct = false;
    }
    const int done = run + 1;
    const bool timed_out = WallNs() - t0 >= static_cast<int64_t>(opt.seconds * 1e9);
    if (!correct || (opt.repeats > 0 ? done >= opt.repeats * kSubRuns
                                     : done >= 2 * kSubRuns && (timed_out || done >= kMaxRuns))) {
      break;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (opt.scale == 1.0 && latencies.size() < 10000) {
    std::fprintf(stderr, "busbench: %zu latency samples cannot support p99.9\n",
                 latencies.size());
    correct = false;
  }
  // CPU per delivery: for every slice of every sub-run, the fastest of its
  // repeats (machine noise only ever adds time); summed over all slices.
  double cpu_ns = 0;
  size_t repeats = 0;
  for (const SubRun& sub : subs) {
    repeats += sub.chunks.size();
    for (size_t j = 0; !sub.chunks.empty() && j < sub.chunks.front().size(); ++j) {
      std::vector<double> slice;
      for (const std::vector<int64_t>& c : sub.chunks) {
        if (j < c.size()) {
          slice.push_back(static_cast<double>(c[j]));
        }
      }
      cpu_ns += *std::min_element(slice.begin(), slice.end());
    }
  }
  const double d = static_cast<double>(deliveries);
  std::fprintf(stderr,
               "busbench: %s seed=%llu runs=%zu cpu_ns/delivery=%.1f setup_s median=%.4f "
               "deliveries=%llu p99_us=%.0f\n",
               w.name, static_cast<unsigned long long>(opt.seed), repeats, Ratio(cpu_ns, d),
               Quantile(setup, 0.5), static_cast<unsigned long long>(deliveries),
               Pct(latencies, 0.99));
  const double max_rate = correct ? Ladder(w, subs.front().plan, opt) : 0;
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup, 0.5), "s"},
      {"cpu_ns_per_delivery", Ratio(cpu_ns, d), "ns"},
      {"allocs_per_delivery", Ratio(static_cast<double>(allocs.count), d), "count"},
      {"alloc_bytes_per_delivery", Ratio(static_cast<double>(allocs.bytes), d), "B"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_latency_p50_us", Pct(latencies, 0.50), "sim_us"},
      {"sim_latency_p999_us", Pct(latencies, 0.999), "sim_us"},
      {"sim_max_rate_msgs_per_s", max_rate, "msgs/sim_s"},
      {"delivered_ratio",
       Ratio(static_cast<double>(expected - std::min(lost, expected)),
             static_cast<double>(expected)),
       "ratio"},
  };
  uint64_t fp = 0xCBF29CE484222325ull;
  for (const SubRun& sub : subs) {
    fp = Hash(fp, sub.sim_fp);
  }
  PrintResult(opt, correct, attempted, failed, metrics, fp);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------------
// trace mode
// ---------------------------------------------------------------------------------

// Self time and allocations of every span named `name`.
struct SpanSelf {
  double ns = 0;
  double allocs = 0;
};
SpanSelf Self(const Tracer& t, std::string_view name) {
  for (int s = 0; s < t.slots(); ++s) {
    if (t.agg(s).name == name) {
      return {static_cast<double>(t.agg(s).self_ns), static_cast<double>(g_alloc[s].count)};
    }
  }
  return {};
}

// Only wan_certified has routers, a ledger and certified delivery. The other
// workloads measure those layers in a WAN pass: a traced run of their own first
// kWanPassMsgs messages (subjects and payloads) over the wan_certified topology,
// at the lower of the two fixed rates.
constexpr int kWanPassMsgs = 300;

RunResult WanPass(const Workload& w, const Plan& plan, uint64_t seed, const Options& opt,
                  Tracer* tracer) {
  const Workload& wan = *FindWorkload("wan_certified");
  RunSpec s;
  s.rate = std::min(w.rate, wan.rate);
  s.warmup = 1;
  s.measured = Scaled(kWanPassMsgs, opt.scale, 10);
  s.drain_us = 10 * kSecond;
  s.event_budget = 3000ull * static_cast<uint64_t>(s.warmup + s.measured) *
                   static_cast<uint64_t>(wan.consumers + 1);
  s.tracer = tracer;
  return RunOnce(wan, WanPassPlan(plan, s.warmup + s.measured), seed, s);
}

int Trace(const Workload& w, const Options& opt) {
  const RunSpec plain = FixedSpec(w, opt);
  const uint64_t seed = SubSeed(opt.seed, 0);
  const Plan plan = MakePlan(w, seed, plain.warmup + plain.measured);
  bool correct = true;

  const RunResult base = RunOnce(w, plan, seed, plain);
  correct = Report("untraced run", base) && correct;
  // The CPU baseline is the median of three untraced runs: the first run of a
  // process also pays for cold caches and heap growth.
  std::vector<double> base_cpu = {
      Ratio(static_cast<double>(base.cpu_ns), static_cast<double>(base.deliveries))};
  bool same_sim = true;
  for (int i = 0; i < 2; ++i) {
    const RunResult again = RunOnce(w, plan, seed, plain);
    correct = Report("untraced run", again) && correct;
    same_sim = same_sim && again.sim_fp == base.sim_fp;
    base_cpu.push_back(
        Ratio(static_cast<double>(again.cpu_ns), static_cast<double>(again.deliveries)));
  }

  Tracer tracer;
  RunSpec traced_spec = plain;
  traced_spec.tracer = &tracer;
  const RunResult traced = RunOnce(w, plan, seed, traced_spec);
  correct = Report("traced run", traced) && correct;

  FrameLog frames;
  RunSpec tap_spec = plain;
  tap_spec.frames = &frames;
  const RunResult tapped = RunOnce(w, plan, seed, tap_spec);
  correct = Report("tapped run", tapped) && correct;
  if (!same_sim || traced.sim_fp != base.sim_fp || tapped.sim_fp != base.sim_fp) {
    std::fprintf(stderr, "busbench: determinism: a repeat, tracing or tapping changed the "
                         "simulation\n");
    correct = false;
  }

  const double d = static_cast<double>(traced.deliveries);
  const Counters& c = base.delta;
  // Step spans not owned by another metric: timers, heartbeats, NAK scans, batch
  // flushes, journal writes, connection setup.
  double other_ns = 0, other_allocs = 0, spans_ns = 0;
  for (int s = 0; s < tracer.slots(); ++s) {
    const std::string& name = tracer.agg(s).name;
    spans_ns += static_cast<double>(tracer.agg(s).self_ns);
    if (name.rfind("sim.", 0) == 0 && name != "sim.net.datagram_deliver" &&
        name != "sim.net.conn_deliver" && name != "sim.bench.publish") {
      other_ns += static_cast<double>(tracer.agg(s).self_ns);
      other_allocs += static_cast<double>(g_alloc[s].count);
    }
  }
  const double drive_ns = static_cast<double>(traced.drive_wall_ns);
  const double unattributed = Ratio(std::fabs(drive_ns - spans_ns), drive_ns);
  if (unattributed > 0.01) {
    std::fprintf(stderr, "busbench: span self times cover only %.2f%% of the drive time\n",
                 100 * (1 - unattributed));
    correct = false;
  }
  const Tracer::Agg& publish = tracer.agg(kSlotPublish);
  const Tracer::Agg& handler = tracer.agg(kSlotHandler);
  const SpanSelf inbound = Self(tracer, "sim.net.datagram_deliver");
  std::sort(frames.waits.begin(), frames.waits.end());

  LayerMetrics m;
  m["sim.events_per_delivery"] = {Ratio(static_cast<double>(base.events), d), "count"};
  m["sim.frames_per_delivery"] = {Ratio(static_cast<double>(c.frames), d), "count"};
  m["sim.wire_bytes_per_delivery"] = {Ratio(static_cast<double>(c.wire_bytes), d), "B"};
  m["sim.control_frame_share"] = {Ratio(static_cast<double>(frames.control_transmissions),
                                       static_cast<double>(frames.transmissions)), "ratio"};
  m["sim.medium_wait_us_p99"] = {Pct(frames.waits, 0.99), "sim_us"};
  m["sim.drive_ns_per_delivery"] = {Ratio(drive_ns, d), "ns"};
  m["sim.other_events_self_ns"] = {Ratio(other_ns, d), "ns"};
  m["sim.other_events_self_allocs"] = {Ratio(other_allocs, d), "count"};
  m["bus.client_publish_ns"] = {Ratio(static_cast<double>(publish.total_ns),
                                     static_cast<double>(publish.count)), "ns"};
  m["bus.client_publish_allocs"] = {Ratio(static_cast<double>(g_alloc[kSlotPublish].count),
                                         static_cast<double>(publish.count)), "count"};
  m["bus.inbound_self_ns"] = {Ratio(inbound.ns, d), "ns"};
  m["bus.inbound_self_allocs"] = {Ratio(inbound.allocs, d), "count"};
  m["bus.subscribe_call_ns"] = {Ratio(static_cast<double>(traced.subscribe_ns),
                                     static_cast<double>(traced.subscribe_calls)), "ns"};
  m["bus.no_match_ratio"] = {Ratio(static_cast<double>(c.no_match),
                                  static_cast<double>(c.no_match + c.dispatched)), "ratio"};
  m["bus.deliveries_per_dispatch"] = {Ratio(static_cast<double>(c.daemon_deliveries),
                                           static_cast<double>(c.dispatched)), "count"};
  const double bus_msgs = static_cast<double>(c.sender_published);
  m["proto.packets_per_msg"] = {Ratio(static_cast<double>(c.packets), bus_msgs), "count"};
  m["proto.retransmits_per_msg"] = {Ratio(static_cast<double>(c.retransmits), bus_msgs), "count"};
  m["proto.naks_per_msg"] = {Ratio(static_cast<double>(c.naks_sent), bus_msgs), "count"};
  m["proto.heartbeats_per_sim_s"] = {Ratio(static_cast<double>(c.heartbeats),
                                          static_cast<double>(base.window_us) / 1e6), "1/sim_s"};
  m["proto.duplicate_drop_ratio"] = {Ratio(static_cast<double>(c.duplicates_dropped),
            static_cast<double>(c.duplicates_dropped + c.rx_delivered)), "ratio"};
  m["proto.gaps"] = {static_cast<double>(c.gaps), "count"};
  m["proto.ready_depth_hwm"] = {static_cast<double>(c.ready_hwm), "count"};
  m["proto.partials_depth_hwm"] = {static_cast<double>(c.partials_hwm), "count"};
  m["proto.retained_depth_hwm"] = {static_cast<double>(c.retained_hwm), "count"};
  m["telemetry.self_bytes_ratio"] = {Ratio(static_cast<double>(c.self_bytes),
                                          static_cast<double>(c.publish_bytes)), "ratio"};
  m["bench.handler_ns"] = {Ratio(static_cast<double>(handler.self_ns),
                                static_cast<double>(handler.count)), "ns"};
  m["bench.handler_allocs"] = {Ratio(static_cast<double>(g_alloc[kSlotHandler].count),
                                    static_cast<double>(handler.count)), "count"};
  m["bench.generator_self_ns"] = {Ratio(Self(tracer, "sim.bench.publish").ns, d), "ns"};
  m["bench.unattributed_ratio"] = {unattributed, "ratio"};
  m["bench.trace_overhead_ratio"] = {
      Ratio(Ratio(static_cast<double>(traced.cpu_ns), d), Quantile(base_cpu, 0.5)) - 1, "ratio"};

  for (int s = 0; s < tracer.slots(); ++s) {
    const Tracer::Agg& a = tracer.agg(s);
    std::fprintf(stderr, "busbench: span %-28s count=%-9llu self_ns/delivery=%9.1f "
                 "allocs/delivery=%7.3f\n",
                 a.name.c_str(), static_cast<unsigned long long>(a.count),
                 Ratio(static_cast<double>(a.self_ns), d),
                 Ratio(static_cast<double>(g_alloc[s].count), d));
  }
  if (!opt.trace_out.empty() && !tracer.WriteChrome(opt.trace_out)) {
    std::fprintf(stderr, "busbench: cannot write %s\n", opt.trace_out.c_str());
    correct = false;
  }

  // Router, ledger and certified metrics: from wan_certified's own traced run, or
  // from a WAN pass. The pass charges allocations to its own tracer's slots.
  Tracer pass_tracer;
  RunResult pass;
  if (!w.wan) {
    std::fill(std::begin(g_alloc), std::end(g_alloc), AllocCount());
    pass = WanPass(w, plan, seed, opt, &pass_tracer);
    correct = Report("WAN pass", pass) && correct;
  }
  const RunResult& lr = w.wan ? traced : pass;
  const Counters& lc = lr.delta;
  const SpanSelf conn = Self(w.wan ? tracer : pass_tracer, "sim.net.conn_deliver");
  const double cert_msgs = static_cast<double>(lc.cert_published);
  const double republished = static_cast<double>(lc.router_republished);
  const double flushes = static_cast<double>(lc.journal_flushes);
  m["bus.certified_acks_per_msg"] = {Ratio(static_cast<double>(lc.cert_acks), cert_msgs), "count"};
  m["bus.certified_retransmits_per_msg"] = {
      Ratio(static_cast<double>(lc.cert_retransmits), cert_msgs), "count"};
  m["router.forwards_per_msg"] = {Ratio(static_cast<double>(lc.router_forwarded), cert_msgs),
                                  "count"};
  m["router.suppressed_loop_per_msg"] = {
      Ratio(static_cast<double>(lc.router_suppressed), cert_msgs), "count"};
  m["router.republish_self_ns"] = {Ratio(conn.ns, republished), "ns"};
  m["router.republish_self_allocs"] = {Ratio(conn.allocs, republished), "count"};
  m["journal.appends_per_msg"] = {Ratio(static_cast<double>(lc.journal_appends), cert_msgs),
                                  "count"};
  m["journal.records_per_flush"] = {Ratio(static_cast<double>(lc.journal_appends), flushes),
                                    "count"};
  m["journal.device_write_self_ns"] = {Ratio(static_cast<double>(lr.device_write_ns), flushes),
                                       "ns"};

  ReplayInput in{&w, &plan, tapped.due, tapped.latencies, &frames};
  RunReplays(in, &m);

  std::vector<Metric> metrics;
  for (const auto& [name, metric] : m) {
    metrics.push_back({name, metric.value, metric.unit});
  }
  PrintResult(opt, correct, base.expected_measured + traced.expected_measured +
                                tapped.expected_measured + pass.expected_measured,
              base.failures + traced.failures + tapped.failures + pass.failures, metrics,
              base.sim_fp);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: busbench --workload NAME --seed N --seconds S --mode measure|trace\n"
               "                [--scale F] [--repeats R] [--self-test] [--trace-out PATH]\n"
               "workloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace busbench

int main(int argc, char** argv) {
  using busbench::Options;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(busbench::Usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--mode") {
      opt.mode = value();
    } else if (arg == "--scale") {
      opt.scale = std::atof(value().c_str());
    } else if (arg == "--repeats") {
      opt.repeats = std::atoi(value().c_str());
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else {
      return busbench::Usage();
    }
  }
  const busbench::Workload* w = busbench::FindWorkload(opt.workload);
  if (w == nullptr || opt.scale <= 0 || opt.scale > 1) {
    return busbench::Usage();
  }
  if (opt.mode == "measure") {
    return busbench::Measure(*w, opt);
  }
  if (opt.mode == "trace") {
    return busbench::Trace(*w, opt);
  }
  return busbench::Usage();
}
