// The four busbench workloads: their seeded inputs, the delivery oracle, and the
// topologies they run on.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "busbench/busbench.h"
#include "src/common/rng.h"

namespace busbench {

using ibus::HostId;
using ibus::Message;

namespace {

uint64_t Mix(uint64_t seed, uint64_t tag) { return seed * 0x9E3779B97F4A7C15ull + tag; }

}  // namespace

// Why each workload exists is recorded in README.md; the numbers here are the
// workload definitions and change only together with the baseline.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      // The paper testbed: per-delivery fan-out cost, batching on.
      {"lan_fanout", 14, 64, 50, 2000, 40000,
       {5, 10, 20, 50, 100, 150, 200, 300, 400, 600, 800, 1200}, 150 * ibus::kMillisecond, true,
       250, 0.0, 0.0, false},
      // Fig 8 under realistic matching: 10k literal subscriptions per consumer.
      {"subject_storm", 14, 256, 150, 3000, 60000, {50, 100, 150, 200, 300},
       50 * ibus::kMillisecond, false, 250, 0.0, 0.0, false},
      // Router, journal, certified acks and the observability plane.
      {"wan_certified", 4, 512, 15, 1800, 36000, {5, 10, 15, 20, 25, 30, 40},
       250 * ibus::kMillisecond, false, 250, 0.0, 0.0, true},
      // Reassembly, NAK repair and duplicate drop on a lossy LAN.
      {"lossy_fragments", 5, 6000, 5, 400, 8000, {2, 5, 8, 10, 15, 20, 25},
       250 * ibus::kMillisecond, false, 500, 0.02, 0.01, false},
  };
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------------

bool PatternMatches(std::string_view pattern, std::string_view subject) {
  size_t p = 0;
  size_t s = 0;
  auto next = [](std::string_view str, size_t* pos) {
    size_t end = str.find('.', *pos);
    if (end == std::string_view::npos) {
      end = str.size();
    }
    std::string_view elem = str.substr(*pos, end - *pos);
    *pos = end + 1;
    return elem;
  };
  while (true) {
    const bool pattern_left = p <= pattern.size();
    const bool subject_left = s <= subject.size();
    if (!pattern_left) {
      return !subject_left;
    }
    std::string_view pe = next(pattern, &p);
    if (pe == ">") {
      return subject_left;
    }
    if (!subject_left) {
      return false;
    }
    std::string_view se = next(subject, &s);
    if (pe != "*" && pe != se) {
      return false;
    }
  }
}

namespace {

void SingleSubjectPlan(const Workload& w, const char* subject, const char* pattern, Plan* plan) {
  plan->subjects = {subject};
  plan->patterns.assign(static_cast<size_t>(w.consumers), {pattern});
  plan->expect.assign(static_cast<size_t>(w.consumers), 1);
}

// 20,000 subjects mkt.gGG.sSSS. Each consumer holds 10,000 literal subjects of the
// groups below 80 plus two mkt.*.sSSS (SSS < 160) and two mkt.gGG.> (GG < 80)
// patterns, so subjects in groups 80-99 with SSS >= 160 match no daemon at all.
void StormPlan(const Workload& w, uint64_t seed, Plan* plan) {
  constexpr int kGroups = 100, kPerGroup = 200, kSubscribableGroups = 80;
  constexpr int kLiterals = 10000;
  char buf[32];
  for (int g = 0; g < kGroups; ++g) {
    for (int s = 0; s < kPerGroup; ++s) {
      std::snprintf(buf, sizeof(buf), "mkt.g%02d.s%03d", g, s);
      plan->subjects.emplace_back(buf);
    }
  }
  const size_t n_subjects = plan->subjects.size();
  const size_t consumers = static_cast<size_t>(w.consumers);
  plan->expect.assign(n_subjects * consumers, 0);
  plan->patterns.resize(consumers);
  ibus::Rng rng(Mix(seed, 11));
  std::vector<uint32_t> pool(kSubscribableGroups * kPerGroup);
  for (size_t c = 0; c < consumers; ++c) {
    for (size_t i = 0; i < pool.size(); ++i) {
      pool[i] = static_cast<uint32_t>(i);
    }
    std::vector<std::string>& pats = plan->patterns[c];
    for (size_t i = 0; i < kLiterals; ++i) {
      size_t j = i + rng.NextBelow(pool.size() - i);
      std::swap(pool[i], pool[j]);
      pats.push_back(plan->subjects[pool[i]]);
      plan->expect[pool[i] * consumers + c]++;
    }
    std::vector<std::string> wild;
    while (wild.size() < 4) {
      if (wild.size() < 2) {
        std::snprintf(buf, sizeof(buf), "mkt.*.s%03d", static_cast<int>(rng.NextBelow(160)));
      } else {
        std::snprintf(buf, sizeof(buf), "mkt.g%02d.>",
                      static_cast<int>(rng.NextBelow(kSubscribableGroups)));
      }
      if (std::find(wild.begin(), wild.end(), buf) == wild.end()) {
        wild.emplace_back(buf);
      }
    }
    for (const std::string& pat : wild) {
      for (size_t s = 0; s < n_subjects; ++s) {
        if (PatternMatches(pat, plan->subjects[s])) {
          plan->expect[s * consumers + c]++;
        }
      }
      pats.push_back(pat);
    }
  }
}

// Zipf(0.8) popularity over a seeded permutation of the subjects: the hottest
// subject draws ~3% of the messages, so no single subject's fan-out dominates.
std::vector<uint32_t> ZipfSubjects(size_t n_subjects, uint64_t seed, int n_msgs) {
  ibus::Rng rng(Mix(seed, 12));
  std::vector<uint32_t> perm(n_subjects);
  for (size_t i = 0; i < n_subjects; ++i) {
    perm[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = n_subjects - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
  }
  std::vector<double> cdf(n_subjects);
  double sum = 0;
  for (size_t r = 0; r < n_subjects; ++r) {
    sum += std::pow(static_cast<double>(r + 1), -0.8);
    cdf[r] = sum;
  }
  std::vector<uint32_t> out(static_cast<size_t>(n_msgs));
  for (uint32_t& s : out) {
    double u = rng.NextDouble() * sum;
    size_t r = static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    s = perm[std::min(r, n_subjects - 1)];
  }
  return out;
}

}  // namespace

Plan MakePlan(const Workload& w, uint64_t seed, int n_msgs) {
  Plan plan;
  plan.consumers = w.consumers;
  const std::string name = w.name;
  if (name == "subject_storm") {
    StormPlan(w, seed, &plan);
    plan.msg_subject = ZipfSubjects(plan.subjects.size(), seed, n_msgs);
  } else {
    if (name == "wan_certified") {
      SingleSubjectPlan(w, "orders.new", "orders.>", &plan);
    } else if (name == "lossy_fragments") {
      SingleSubjectPlan(w, "lossy.frag", "lossy.frag", &plan);
    } else {
      SingleSubjectPlan(w, "fan.quote", "fan.quote", &plan);
    }
    plan.msg_subject.assign(static_cast<size_t>(n_msgs), 0);
  }
  ibus::Rng rng(Mix(seed, 13));
  plan.filler.resize(std::max(w.payload_bytes, kHeaderBytes));
  for (uint8_t& b : plan.filler) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return plan;
}

Plan WanPassPlan(const Plan& plan, int n_msgs) {
  const size_t consumers = static_cast<size_t>(FindWorkload("wan_certified")->consumers);
  const std::string& first = plan.subjects.front();
  const std::string pattern = first.substr(0, first.find('.')) + ".>";
  Plan pass;
  pass.consumers = static_cast<int>(consumers);
  pass.subjects = plan.subjects;
  pass.patterns.assign(consumers, {pattern});
  pass.expect.resize(pass.subjects.size() * consumers);
  for (size_t s = 0; s < pass.subjects.size(); ++s) {
    const uint8_t e = PatternMatches(pattern, pass.subjects[s]) ? 1 : 0;
    std::fill_n(pass.expect.begin() + static_cast<std::ptrdiff_t>(s * consumers), consumers, e);
  }
  pass.msg_subject.assign(plan.msg_subject.begin(), plan.msg_subject.begin() + n_msgs);
  pass.filler = plan.filler;
  return pass;
}

std::vector<SimTime> MakeSchedule(uint64_t seed, int rate, int n, SimTime start) {
  ibus::Rng rng(Mix(seed, 14 + static_cast<uint64_t>(rate)));
  const double period = 1e6 / rate;
  std::vector<SimTime> due(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    due[static_cast<size_t>(i)] = start + std::llround((i + rng.NextDouble()) * period);
  }
  return due;
}

void WriteHeader(Bytes* payload, uint32_t publisher, uint64_t seq, SimTime due) {
  uint8_t* p = payload->data();
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(publisher >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    p[4 + i] = static_cast<uint8_t>(seq >> (8 * i));
    p[12 + i] = static_cast<uint8_t>(static_cast<uint64_t>(due) >> (8 * i));
  }
}

namespace {

uint64_t ReadLe(const uint8_t* p, int n) {
  uint64_t v = 0;
  for (int i = n - 1; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------------

void Oracle::Start(std::vector<SimTime> due) {
  const Plan& plan = plan_;
  due_ = std::move(due);
  const size_t n = due_.size();
  const size_t consumers = static_cast<size_t>(plan.consumers);
  got_.assign(consumers, std::vector<uint8_t>(n, 0));
  last_seq_.assign(consumers, -1);
  seq_patterns_.assign(consumers, {});
  last_delivery_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t s = plan.msg_subject[i];
    for (size_t c = 0; c < consumers; ++c) {
      const uint64_t e = plan.expect[s * consumers + c];
      expected_total_ += e;
      if (static_cast<int>(i) >= first_measured_) {
        expected_measured_ += e;
      }
    }
  }
  latencies_.reserve(expected_measured_);
}

void Oracle::OnDeliver(int consumer, int pattern, const Message& m, SimTime now) {
  ++calls_;
  if (m.payload.size() < kHeaderBytes) {
    ++misrouted_;
    return;
  }
  const uint8_t* p = m.payload.data();
  const uint64_t publisher = ReadLe(p, 4);
  const uint64_t seq = ReadLe(p + 4, 8);
  const SimTime due = static_cast<SimTime>(ReadLe(p + 12, 8));
  if (publisher != 0 || seq >= due_.size() || due != due_[seq] ||
      m.subject != plan_.subjects[plan_.msg_subject[seq]] ||
      !PatternMatches(plan_.patterns[static_cast<size_t>(consumer)][static_cast<size_t>(pattern)],
                      m.subject)) {
    ++misrouted_;
    return;
  }
  Record(consumer, pattern, seq, now);
  if (self_test_ && calls_ == 1) {
    Record(consumer, pattern, seq, now);  // a corrupted log: one delivery seen twice
  }
}

void Oracle::Record(int consumer, int pattern, uint64_t seq, SimTime now) {
  const size_t c = static_cast<size_t>(consumer);
  const int64_t s = static_cast<int64_t>(seq);
  std::vector<int>& seen = seq_patterns_[c];
  if (s < last_seq_[c]) {
    ++misordered_;
    return;
  }
  if (s > last_seq_[c]) {
    last_seq_[c] = s;
    seen.clear();
  } else if (std::find(seen.begin(), seen.end(), pattern) != seen.end()) {
    ++duplicates_;
    return;
  }
  seen.push_back(pattern);
  const size_t subject = plan_.msg_subject[seq];
  uint8_t& got = got_[c][seq];
  if (got >= plan_.expect[subject * static_cast<size_t>(plan_.consumers) + c]) {
    ++duplicates_;
    return;
  }
  ++got;
  ++received_;
  last_delivery_[seq] = std::max(last_delivery_[seq], now);
  if (s >= first_measured_) {
    latencies_.push_back(now - due_[seq]);
  }
}

void Oracle::Finish() {
  const size_t consumers = static_cast<size_t>(plan_.consumers);
  for (size_t c = 0; c < consumers; ++c) {
    for (size_t i = 0; i < due_.size(); ++i) {
      const uint8_t e = plan_.expect[plan_.msg_subject[i] * consumers + c];
      if (got_[c][i] < e) {
        missing_ += e - got_[c][i];
        if (static_cast<int>(i) >= first_measured_) {
          latencies_.insert(latencies_.end(), e - got_[c][i],
                            std::numeric_limits<int64_t>::max());
        }
      }
    }
  }
  std::sort(latencies_.begin(), latencies_.end());
}

std::string Oracle::FailureSummary() const {
  return "missing=" + std::to_string(missing_) + " duplicated=" + std::to_string(duplicates_) +
         " out_of_order=" + std::to_string(misordered_) +
         " misrouted=" + std::to_string(misrouted_);
}

// ---------------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------------

ibus::Result<uint64_t> TimedStore::Append(const Bytes& record) {
  const int64_t t0 = WallNs();
  auto seq = inner_.Append(record);
  write_ns_ += WallNs() - t0;
  return seq;
}

Status TimedStore::Sync() {
  const int64_t t0 = WallNs();
  Status s = inner_.Sync();
  write_ns_ += WallNs() - t0;
  return s;
}

namespace {

void Deliver(const Sink& s, const Message& m) {
  if (g_tracer == nullptr) {
    s.oracle->OnDeliver(s.consumer, s.pattern, m, s.sim->Now());
    return;
  }
  g_tracer->Begin(kSlotHandler, m.payload.size() >= 12 ? ReadLe(m.payload.data() + 4, 8) : 0,
                  WallNs());
  s.oracle->OnDeliver(s.consumer, s.pattern, m, s.sim->Now());
  g_tracer->End(WallNs());
}

ibus::SegmentConfig LanSegment() {
  ibus::SegmentConfig seg;
  seg.host_cpu_us_per_frame = kSunOsCpuUsPerFrame;
  return seg;
}

ibus::SegmentId AddLan(const Workload& w, Bus* b) {
  ibus::SegmentId lan = b->net->AddSegment(LanSegment());
  ibus::FaultPlan faults;
  faults.drop_prob = w.drop_prob;
  faults.dup_prob = w.dup_prob;
  faults.jitter_us = w.jitter_us;
  b->net->SetFaultPlan(lan, faults);
  return lan;
}

Status StartDaemon(HostId host, const ibus::BusConfig& cfg, Bus* b) {
  auto d = ibus::BusDaemon::Start(b->net.get(), host, cfg);
  if (!d.ok()) {
    return d.status();
  }
  b->daemons.push_back(d.take());
  return ibus::OkStatus();
}

ibus::Result<ibus::BusClient*> AddClient(HostId host, const std::string& name,
                                         const ibus::BusConfig& cfg, Bus* b) {
  auto c = ibus::BusClient::Connect(b->net.get(), host, name, cfg);
  if (!c.ok()) {
    return c.status();
  }
  b->clients.push_back(c.take());
  return b->clients.back().get();
}

Sink* AddSink(Oracle* oracle, int consumer, int pattern, Bus* b) {
  b->sinks.push_back(Sink{oracle, b->sim.get(), consumer, pattern});
  return &b->sinks.back();
}

// One LAN: host 0 publishes, hosts 1..consumers subscribe.
Status BuildLan(const Workload& w, const Plan& plan, Oracle* oracle, bool time_subscribes,
                Bus* b) {
  ibus::SegmentId lan = AddLan(w, b);
  ibus::BusConfig cfg;
  cfg.reliable.batching_enabled = w.batching;
  cfg.announce_subscriptions = false;  // no router listens on these LANs
  for (int h = 0; h <= w.consumers; ++h) {
    HostId host = b->net->AddHost("host" + std::to_string(h), lan);
    IBUS_RETURN_IF_ERROR(StartDaemon(host, cfg, b));
    auto client = AddClient(host, h == 0 ? "publisher" : "consumer" + std::to_string(h), cfg, b);
    if (!client.ok()) {
      return client.status();
    }
    if (h > 0) {
      b->consumer_hosts.push_back(host);
    }
  }
  for (int c = 0; c < w.consumers; ++c) {
    const std::vector<std::string>& pats = plan.patterns[static_cast<size_t>(c)];
    ibus::BusClient* client = b->clients[static_cast<size_t>(c) + 1].get();
    for (size_t p = 0; p < pats.size(); ++p) {
      Sink* sink = AddSink(oracle, c, static_cast<int>(p), b);
      const int64_t t0 = time_subscribes ? WallNs() : 0;
      auto sub = client->Subscribe(pats[p], [sink](const Message& m) { Deliver(*sink, m); });
      if (time_subscribes) {
        b->subscribe_ns += WallNs() - t0;
        ++b->subscribe_calls;
      }
      if (!sub.ok()) {
        return sub.status();
      }
    }
  }
  ibus::BusClient* pub = b->clients[0].get();
  b->publish = [pub](const std::string& subject, Bytes payload) {
    return pub->Publish(subject, std::move(payload));
  };
  b->sim->RunFor(200 * ibus::kMillisecond);
  return ibus::OkStatus();
}

// Two 4-host LANs bridged by a router pair over the simulator's T1 WAN. LAN A:
// router, certified publisher, one certified subscriber, one idle daemon. LAN B:
// router and three certified subscribers.
Status BuildWan(const Workload& w, const Plan& plan, Oracle* oracle, bool time_subscribes,
                Bus* b) {
  ibus::SegmentId lan_a = AddLan(w, b);
  ibus::SegmentId lan_b = AddLan(w, b);
  ibus::BusConfig cfg;
  cfg.trace_publishes = true;  // default 1/64 sampling
  std::vector<HostId> a, bh;
  for (int i = 0; i < 4; ++i) {
    a.push_back(b->net->AddHost("a" + std::to_string(i), lan_a));
    bh.push_back(b->net->AddHost("b" + std::to_string(i), lan_b));
  }
  for (HostId h : a) {
    IBUS_RETURN_IF_ERROR(StartDaemon(h, cfg, b));
  }
  for (HostId h : bh) {
    IBUS_RETURN_IF_ERROR(StartDaemon(h, cfg, b));
  }
  auto pub_client = AddClient(a[1], "producer", cfg, b);
  if (!pub_client.ok()) {
    return pub_client.status();
  }
  const HostId consumer_hosts[] = {a[2], bh[1], bh[2], bh[3]};
  for (int c = 0; c < w.consumers; ++c) {
    b->consumer_hosts.push_back(consumer_hosts[c]);
    auto client = AddClient(consumer_hosts[c], "consumer" + std::to_string(c), cfg, b);
    if (!client.ok()) {
      return client.status();
    }
  }
  auto router_a = AddClient(a[0], "_router:A", cfg, b);
  auto router_b = AddClient(bh[0], "_router:B", cfg, b);
  if (!router_a.ok() || !router_b.ok()) {
    return router_a.ok() ? router_b.status() : router_a.status();
  }
  auto ra = ibus::InfoRouter::Listen(*router_a, "_router:A", kRouterPort);
  if (!ra.ok()) {
    return ra.status();
  }
  b->routers.push_back(ra.take());
  b->sim->RunFor(50 * ibus::kMillisecond);
  auto rb = ibus::InfoRouter::Connect(*router_b, "_router:B", a[0], kRouterPort);
  if (!rb.ok()) {
    return rb.status();
  }
  b->routers.push_back(rb.take());
  b->sim->RunFor(200 * ibus::kMillisecond);

  for (int c = 0; c < w.consumers; ++c) {
    Sink* sink = AddSink(oracle, c, 0, b);
    const int64_t t0 = time_subscribes ? WallNs() : 0;
    auto sub = ibus::CertifiedSubscriber::Create(
        b->clients[static_cast<size_t>(c) + 1].get(), plan.patterns[static_cast<size_t>(c)][0],
        "consumer" + std::to_string(c), [sink](const Message& m) { Deliver(*sink, m); });
    if (time_subscribes) {
      b->subscribe_ns += WallNs() - t0;
      ++b->subscribe_calls;
    }
    if (!sub.ok()) {
      return sub.status();
    }
    b->cert_subs.push_back(sub.take());
  }
  b->device = std::make_unique<TimedStore>();
  b->journal_metrics = std::make_unique<ibus::telemetry::MetricsRegistry>();
  ibus::journal::JournalConfig jc;
  jc.flush_deadline_us = kLedgerFlushDeadlineUs;
  jc.sim = b->sim.get();
  jc.metrics = b->journal_metrics.get();
  auto ledger = ibus::journal::Journal::Open(b->device.get(), jc);
  if (!ledger.ok()) {
    return ledger.status();
  }
  b->ledger = ledger.take();
  ibus::CertifiedConfig cc;
  cc.required_acks = w.consumers;
  auto pub = ibus::CertifiedPublisher::Create(*pub_client, b->ledger.get(), "orders-ledger", cc);
  if (!pub.ok()) {
    return pub.status();
  }
  b->cert_pub = pub.take();
  ibus::CertifiedPublisher* p = b->cert_pub.get();
  b->publish = [p](const std::string& subject, Bytes payload) {
    return p->Publish(subject, std::move(payload));
  };
  // Subscription adverts and the ack-subject mirror must cross the WAN first.
  b->sim->RunFor(1 * ibus::kSecond);
  return ibus::OkStatus();
}

}  // namespace

Status BuildBus(const Workload& w, const Plan& plan, uint64_t seed, Oracle* oracle,
                bool time_subscribes, Bus* b) {
  b->sim = std::make_unique<ibus::Simulator>();
  b->net = std::make_unique<ibus::Network>(b->sim.get(), Mix(seed, 15));
  return w.wan ? BuildWan(w, plan, oracle, time_subscribes, b)
               : BuildLan(w, plan, oracle, time_subscribes, b);
}

// ---------------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------------

Counters Snapshot(const Bus& b) {
  Counters c;
  c.frames = b.net->stats().frames_sent;
  c.wire_bytes = b.net->stats().bytes_on_wire;
  const std::string hwm = ".hwm";
  for (const auto& d : b.daemons) {
    const ibus::ReliableSenderStats ss = d->sender_stats();
    const ibus::ReliableReceiverStats rs = d->receiver_stats();
    const ibus::DaemonStats ds = d->stats();
    const ibus::telemetry::MetricsRegistry& m = *d->metrics();
    c.sender_published += ss.published;
    c.packets += ss.packets_sent;
    c.retransmits += ss.retransmits;
    c.heartbeats += ss.heartbeats_sent;
    c.naks_sent += rs.naks_sent;
    c.rx_delivered += rs.delivered;
    c.duplicates_dropped += rs.duplicates_dropped;
    c.gaps += rs.gaps;
    c.dispatched += ds.dispatched_messages;
    c.daemon_deliveries += ds.deliveries;
    c.no_match += ds.no_match;
    c.publish_bytes += m.CounterValue(ibus::kMetricPublishBytes);
    c.self_bytes += m.CounterValue(ibus::kMetricSelfBytes);
    c.ready_hwm = std::max(c.ready_hwm, m.GaugeValue(ibus::kMetricReceiverReadyDepth + hwm));
    c.partials_hwm =
        std::max(c.partials_hwm, m.GaugeValue(ibus::kMetricReceiverPartialsDepth + hwm));
    c.retained_hwm =
        std::max(c.retained_hwm, m.GaugeValue(ibus::kMetricSenderRetainedDepth + hwm));
  }
  for (const auto& r : b.routers) {
    c.router_forwarded += r->stats().forwarded;
    c.router_republished += r->stats().republished;
    c.router_suppressed += r->stats().suppressed_loop;
  }
  if (b.cert_pub != nullptr) {
    c.cert_published = b.cert_pub->stats().published;
    c.cert_retransmits = b.cert_pub->stats().retransmits;
    c.cert_retired = b.cert_pub->stats().retired;
  }
  for (const auto& s : b.cert_subs) {
    c.cert_acks += s->stats().acks_sent;
  }
  if (b.ledger != nullptr) {
    c.journal_appends = b.ledger->stats().appends;
    c.journal_flushes = b.ledger->stats().flushes;
  }
  return c;
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters d = a;
  d.frames -= b.frames;
  d.wire_bytes -= b.wire_bytes;
  d.sender_published -= b.sender_published;
  d.packets -= b.packets;
  d.retransmits -= b.retransmits;
  d.naks_sent -= b.naks_sent;
  d.heartbeats -= b.heartbeats;
  d.rx_delivered -= b.rx_delivered;
  d.duplicates_dropped -= b.duplicates_dropped;
  d.gaps -= b.gaps;
  d.dispatched -= b.dispatched;
  d.daemon_deliveries -= b.daemon_deliveries;
  d.no_match -= b.no_match;
  d.publish_bytes -= b.publish_bytes;
  d.self_bytes -= b.self_bytes;
  d.router_forwarded -= b.router_forwarded;
  d.router_republished -= b.router_republished;
  d.router_suppressed -= b.router_suppressed;
  d.cert_published -= b.cert_published;
  d.cert_retransmits -= b.cert_retransmits;
  d.cert_retired -= b.cert_retired;
  d.cert_acks -= b.cert_acks;
  d.journal_appends -= b.journal_appends;
  d.journal_flushes -= b.journal_flushes;
  return d;
}

uint64_t Fingerprint(const Counters& c, uint64_t h) {
  const uint64_t fields[] = {
      c.frames, c.wire_bytes, c.sender_published, c.packets, c.retransmits, c.naks_sent,
      c.heartbeats, c.rx_delivered, c.duplicates_dropped, c.gaps, c.dispatched,
      c.daemon_deliveries, c.no_match, c.publish_bytes, c.self_bytes,
      static_cast<uint64_t>(c.ready_hwm), static_cast<uint64_t>(c.partials_hwm),
      static_cast<uint64_t>(c.retained_hwm), c.router_forwarded, c.router_republished,
      c.router_suppressed,
      c.cert_published, c.cert_retransmits, c.cert_retired, c.cert_acks, c.journal_appends,
      c.journal_flushes};
  for (uint64_t f : fields) {
    h = (h ^ f) * 0x100000001B3ull;
  }
  return h;
}

}  // namespace busbench
