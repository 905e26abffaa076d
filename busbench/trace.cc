// Allocation hook, clocks and the span tracer of the busbench driver.
//
// The replaceable global operator new/delete below live in the busbench binary
// only; the library and the repo's tests keep the stock allocator. Each
// allocation is charged to the innermost open span (g_owner), so the benchmark's
// allocations per delivery split into parts that each have an owner.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>  // buslint: allow(raw-new-delete) -- header name, not an allocation site

#include "busbench/busbench.h"

namespace busbench {

AllocCount g_alloc[kMaxSlots];
int g_owner = 0;
Tracer* g_tracer = nullptr;

AllocCount AllocTotal() {
  AllocCount t;
  for (const AllocCount& a : g_alloc) {
    t.count += a.count;
    t.bytes += a.bytes;
  }
  return t;
}

int64_t WallNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace busbench

// The hook definitions: the raw new/delete tokens are the functions' names, not
// allocation sites. GCC pairs free() against the replaced operator new[] at call
// sites it inlines and warns, although both forms route through malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {  // buslint: allow(raw-new-delete) -- counting-hook definition
  busbench::AllocCount& a = busbench::g_alloc[busbench::g_owner];
  ++a.count;
  a.bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }  // buslint: allow(raw-new-delete) -- array form of the counting hook

void operator delete(void* p) noexcept { std::free(p); }    // buslint: allow(raw-new-delete) -- counting-hook pair
void operator delete[](void* p) noexcept { std::free(p); }  // buslint: allow(raw-new-delete) -- counting-hook pair
void operator delete(void* p, std::size_t) noexcept { std::free(p); }    // buslint: allow(raw-new-delete) -- sized form
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }  // buslint: allow(raw-new-delete) -- sized form

namespace busbench {

Tracer::Tracer() {
  aggs_.reserve(kMaxSlots);
  aggs_.push_back(Agg{"(none)"});
  aggs_.push_back(Agg{"sim.step"});
  aggs_.push_back(Agg{"bus.client_publish"});
  aggs_.push_back(Agg{"app.handler"});
  stack_.reserve(32);
  raw_.reserve(kMaxRawSpans);
  origin_ = WallNs();
}

int Tracer::Slot(std::string_view name) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  if (aggs_.size() >= static_cast<size_t>(kMaxSlots)) {
    std::fprintf(stderr, "busbench: more than %d span names\n", kMaxSlots);
    std::exit(2);
  }
  aggs_.push_back(Agg{std::string(name)});
  return static_cast<int>(aggs_.size() - 1);
}

int Tracer::KindSlot(const char* kind) {
  for (const auto& [ptr, slot] : kinds_) {
    if (ptr == kind) {
      return slot;
    }
  }
  int slot = Slot(std::string("sim.") + kind);
  kinds_.emplace_back(kind, slot);
  return slot;
}

void Tracer::Begin(int slot, uint64_t msg, int64_t at_ns) {
  stack_.push_back(Open{slot, at_ns, 0, msg, g_owner});
  g_owner = slot;
}

void Tracer::Retag(int slot) {
  Open& top = stack_.back();
  AllocCount& from = g_alloc[top.slot];
  g_alloc[slot].count += from.count;
  g_alloc[slot].bytes += from.bytes;
  from = AllocCount();
  top.slot = slot;
  g_owner = slot;
}

void Tracer::End(int64_t at_ns) {
  Open top = stack_.back();
  stack_.pop_back();
  const int64_t dur = at_ns - top.start;
  Agg& a = aggs_[static_cast<size_t>(top.slot)];
  a.count++;
  a.total_ns += dur;
  a.self_ns += dur - top.child_ns;
  int parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent = stack_.back().slot;
  }
  g_owner = top.saved_owner;
  if (raw_.size() < kMaxRawSpans) {
    raw_.push_back(Raw{top.slot, parent, top.start - origin_, dur, top.msg});
  }
}

bool Tracer::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < raw_.size(); ++i) {
    const Raw& r = raw_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"parent\":\"%s\",\"msg\":%llu}}",
                 i == 0 ? "" : ",\n", aggs_[static_cast<size_t>(r.slot)].name.c_str(),
                 static_cast<double>(r.start) / 1000.0, static_cast<double>(r.dur) / 1000.0,
                 aggs_[static_cast<size_t>(r.parent)].name.c_str(),
                 static_cast<unsigned long long>(r.msg));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace busbench
