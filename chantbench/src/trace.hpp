// trace.hpp — in-memory spans around the benchmark's calls into the
// runtime.
//
// A span records name, start, end, the span that caused it and an op id
// shared by every span of one operation (also across fibers: the echo
// fiber's receive and reply of an mn_sync ping carry the client's op
// id). Spans
// land in a fixed ring, so memory stays bounded however long a round
// runs; the most recent kCapacity spans survive. With tracing off
// (g_tracer null) a Span costs one branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace cb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Every span name the workloads record. The first part names the layer
/// whose public call the span brackets; root spans name the workload op.
enum class SpanName : std::uint16_t {
  Fig9Exchange,
  RsrCallInline,
  RsrCallTail,
  RsrPost,
  RsrCreateJoin,
  MnHandoff,
  MnSpawnJoin,
  MnPingPong,
  ChantSend,
  ChantRecv,
  ChantCall,
  ChantPost,
  ChantCreate,
  ChantJoin,
  LwtMutexLock,
  LwtCvWait,
  LwtSpawn,
  LwtJoin,
  NxIsend,
  NxWait,
  kCount,
};

const char* span_name(SpanName n);

struct SpanRec {
  std::uint64_t id = 0;      ///< 0 = empty slot
  std::uint64_t parent = 0;  ///< 0 = root span
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanName name{};
  std::uint32_t aux = 0;  ///< payload bytes, where the call moves any
};

class Tracer {
 public:
  static constexpr std::size_t kCapacity = 1 << 17;

  Tracer() : ring_(kCapacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t open() { return next_.fetch_add(1, std::memory_order_relaxed); }
  void close(const SpanRec& s) { ring_[s.id % kCapacity] = s; }
  /// Forgets every span (between rounds, while no span is open).
  void reset();
  /// The surviving spans, oldest first. Call only when no span is open.
  std::vector<SpanRec> snapshot() const;

 private:
  std::vector<SpanRec> ring_;
  std::atomic<std::uint64_t> next_{1};
};

/// The tracer of the current traced round; null when tracing is off.
extern Tracer* g_tracer;

/// RAII span. Children pass the parent's id().
class Span {
 public:
  Span(SpanName name, std::uint64_t op, std::uint64_t parent = 0,
       std::uint32_t aux = 0)
      : t_(g_tracer) {
    if (t_ != nullptr) {
      rec_.id = t_->open();
      rec_.parent = parent;
      rec_.op = op;
      rec_.name = name;
      rec_.aux = aux;
      rec_.start_ns = now_ns();
    }
  }
  ~Span() {
    if (t_ != nullptr) {
      rec_.end_ns = now_ns();
      t_->close(rec_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const noexcept { return rec_.id; }

 private:
  Tracer* t_;
  SpanRec rec_;
};

/// A span's self time: its duration minus the part of [start, end) that
/// the given child spans cover (overlapping children count once).
std::uint64_t self_time(const SpanRec& s, std::vector<SpanRec> children);

/// Writes spans as JSON lines; false if the file cannot be written.
bool write_spans(const char* path, const std::vector<SpanRec>& spans);

}  // namespace cb
