// Shared harness for the appendix-figure reproductions: the paper's testbed topology
// (fifteen hosts on one lightly loaded 10 Mbit/s Ethernet, one publisher, up to
// fourteen consumers, one daemon per host) plus simple statistics helpers.
//
// Calibration: host_cpu_us_per_frame models the SunOS-4.1.1 UDP send path that capped
// the authors' throughput near 300 KB/s on a 10 Mbit medium (paper appendix). All
// numbers reported by these benches are *simulated* time, so results are exactly
// reproducible on any machine.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace ibus {
namespace bench {

// The 1993 testbed knob: ~4.3 ms of protocol-stack time per frame reproduces the
// ~300 KB/s raw-UDP ceiling the authors report ("it is difficult to drive more than
// 300 Kb/sec through Ethernet with a raw UDP socket").
constexpr double kSunOsCpuUsPerFrame = 4300;

// Seeded per-frame medium jitter for the latency benches. A perfectly quiet
// simulated Ethernet delivers every same-sized message in the exact same time, which
// collapses the sample distribution to a point (p50 == p90 == p99) and makes the
// percentile columns meaningless. A "lightly loaded" shared medium is not quiet;
// this uniform [0, 250]µs delay (drawn from the Network's seeded RNG, so still
// exactly reproducible) restores a real distribution without moving the means.
constexpr SimTime kBenchLanJitterUs = 250;

struct Testbed {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Network> net;
  SegmentId lan = 0;
  std::vector<HostId> hosts;
  std::vector<std::unique_ptr<BusDaemon>> daemons;
  std::vector<std::unique_ptr<BusClient>> clients;  // clients[0] = publisher
  BusConfig bus_config;

  BusClient* publisher() { return clients[0].get(); }
};

inline Testbed MakeTestbed(int n_hosts, bool batching, int n_clients = -1,
                           double cpu_us_per_frame = kSunOsCpuUsPerFrame,
                           SimTime lan_jitter_us = 0) {
  Testbed tb;
  tb.sim = std::make_unique<Simulator>();
  tb.net = std::make_unique<Network>(tb.sim.get());
  SegmentConfig seg;
  seg.host_cpu_us_per_frame = cpu_us_per_frame;
  tb.lan = tb.net->AddSegment(seg);
  if (lan_jitter_us > 0) {
    FaultPlan plan;
    plan.jitter_us = lan_jitter_us;
    tb.net->SetFaultPlan(tb.lan, plan);
  }
  tb.bus_config.reliable.batching_enabled = batching;
  // Don't flood the control plane during setup-heavy benches.
  tb.bus_config.announce_subscriptions = false;
  for (int i = 0; i < n_hosts; ++i) {
    tb.hosts.push_back(tb.net->AddHost("host" + std::to_string(i), tb.lan));
    auto daemon = BusDaemon::Start(tb.net.get(), tb.hosts.back(), tb.bus_config);
    tb.daemons.push_back(daemon.take());
  }
  if (n_clients < 0) {
    n_clients = n_hosts;
  }
  for (int i = 0; i < n_clients; ++i) {
    auto client = BusClient::Connect(tb.net.get(), tb.hosts[static_cast<size_t>(i)],
                                     "client" + std::to_string(i), tb.bus_config);
    tb.clients.push_back(client.take());
  }
  tb.sim->RunFor(50 * kMillisecond);
  return tb;
}

struct Stats {
  double mean = 0;
  double stddev = 0;
  double variance = 0;
  double ci99_half = 0;  // half-width of the 99% confidence interval
  size_t n = 0;
};

inline Stats Summarize(const std::vector<double>& xs) {
  Stats s;
  s.n = xs.size();
  if (xs.empty()) {
    return s;
  }
  double sum = 0;
  for (double x : xs) {
    sum += x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  double sq = 0;
  for (double x : xs) {
    sq += (x - s.mean) * (x - s.mean);
  }
  s.variance = xs.size() > 1 ? sq / static_cast<double>(xs.size() - 1) : 0;
  s.stddev = std::sqrt(s.variance);
  // z=2.576 for 99% (large-sample normal approximation, as in the paper's figures).
  s.ci99_half = 2.576 * s.stddev / std::sqrt(static_cast<double>(xs.size()));
  return s;
}

// Encodes the send timestamp at the head of a payload of `size` bytes (>= 8).
inline Bytes TimestampedPayload(SimTime now, size_t size) {
  Bytes b(std::max<size_t>(size, 8), 0xA5);
  for (int i = 0; i < 8; ++i) {
    b[static_cast<size_t>(i)] = static_cast<uint8_t>(now >> (8 * i));
  }
  return b;
}

inline SimTime DecodeTimestamp(const Bytes& b) {
  SimTime t = 0;
  for (int i = 7; i >= 0; --i) {
    t = (t << 8) | b[static_cast<size_t>(i)];
  }
  return t;
}

// The message sizes swept in Figures 5-8.
inline std::vector<size_t> FigureSizes() {
  return {64, 128, 256, 512, 1024, 2048, 4096, 5000, 8192, 10000};
}

// Exact (sort-based, linearly interpolated) percentile over raw samples. This is
// independent of the telemetry histograms on purpose: bench output stays exact and
// works identically under -DIB_TELEMETRY=OFF.
inline double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  double rank = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

// One machine-readable result row for scripts/bench.sh (its header documents the
// BENCH_<N>.json schema): latency
// percentiles are in microseconds of simulated time; msgs_per_sec may be 0 for
// latency-only benches.
struct BenchResult {
  std::string name;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double msgs_per_sec = 0;
  double bytes_per_sec = 0;  // nonzero only for byte-throughput benches (fig7)
};

inline BenchResult MakeLatencyResult(const std::string& name,
                                     const std::vector<double>& latencies_us,
                                     double msgs_per_sec = 0) {
  BenchResult r;
  r.name = name;
  r.p50_us = Percentile(latencies_us, 0.50);
  r.p90_us = Percentile(latencies_us, 0.90);
  r.p99_us = Percentile(latencies_us, 0.99);
  r.msgs_per_sec = msgs_per_sec;
  return r;
}

// Appends `results` as JSON lines to the file named by $BENCH_JSON (no-op when the
// variable is unset). scripts/bench.sh assembles the lines into BENCH_<N>.json.
inline void EmitBenchJson(const std::vector<BenchResult>& results) {
  const char* path = std::getenv("BENCH_JSON");
  if (path == nullptr || results.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    return;
  }
  for (const BenchResult& r : results) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"p50_us\": %.3f, \"p90_us\": %.3f, "
                 "\"p99_us\": %.3f, \"msgs_per_sec\": %.3f, \"bytes_per_sec\": %.3f}\n",
                 r.name.c_str(), r.p50_us, r.p90_us, r.p99_us, r.msgs_per_sec,
                 r.bytes_per_sec);
  }
  std::fclose(f);
}

}  // namespace bench
}  // namespace ibus

#endif  // BENCH_BENCH_UTIL_H_
