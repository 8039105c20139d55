#include "trace.hpp"

#include <algorithm>

namespace cb {

Tracer* g_tracer = nullptr;

const char* span_name(SpanName n) {
  static const char* const kNames[] = {
      "fig9.exchange",   "rsr.call_inline", "rsr.call_tail",
      "rsr.post",        "rsr.create_join", "mn.handoff",
      "mn.spawn_join",   "mn.pingpong",     "chant.send",
      "chant.recv",      "chant.call",      "chant.post",
      "chant.create",    "chant.join",      "lwt.mutex_lock",
      "lwt.cv_wait",     "lwt.spawn",       "lwt.join",
      "nx.isend",        "nx.wait",
  };
  static_assert(sizeof kNames / sizeof kNames[0] ==
                static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(n)];
}

void Tracer::reset() {
  std::fill(ring_.begin(), ring_.end(), SpanRec{});
  next_.store(1, std::memory_order_relaxed);
}

std::vector<SpanRec> Tracer::snapshot() const {
  std::vector<SpanRec> out;
  for (const SpanRec& s : ring_) {
    if (s.id != 0) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.id < b.id; });
  return out;
}

std::uint64_t self_time(const SpanRec& s, std::vector<SpanRec> children) {
  std::sort(children.begin(), children.end(),
            [](const SpanRec& a, const SpanRec& b) {
              return a.start_ns < b.start_ns;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = s.start_ns;  // end of the union so far
  for (const SpanRec& c : children) {
    const std::uint64_t lo = std::max(c.start_ns, reach);
    const std::uint64_t hi = std::min(c.end_ns, s.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return s.end_ns - s.start_ns - covered;
}

bool write_spans(const char* path, const std::vector<SpanRec>& spans) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  for (const SpanRec& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"bytes\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), span_name(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.aux);
  }
  return std::fclose(f) == 0;
}

}  // namespace cb
