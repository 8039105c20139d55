// bench.hpp — what every chantbench workload shares: options, the
// per-round result, layer-counter snapshots, the timed-window
// rendezvous and OS-thread placement.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "chant/chant.hpp"
#include "gen.hpp"
#include "trace.hpp"

namespace cb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Rounds per run: each builds its world afresh (one set-up sample)
  /// and measures seconds / rounds. Fixed for the command line; the
  /// self-test runs single rounds.
  int rounds = 15;
  /// > 0: the sender corrupts one byte of every Nth payload, to show
  /// that verification catches it (the run must then fail).
  std::uint64_t corrupt_every = 0;
};

/// Flips one byte of `buf` when op `n` is due for corruption.
inline void maybe_corrupt(const Options& o, std::uint64_t n, std::uint8_t* buf,
                          std::size_t len) {
  if (o.corrupt_every != 0 && len != 0 && n % o.corrupt_every == 0) {
    buf[len / 2] ^= 0x5A;
  }
}

/// Layer counters as plain integers, so snapshots subtract and add.
enum Counter : int {
  kFullSwitches,
  kPartialPollTests,
  kWqPollTests,
  kIdleSpins,
  kWaitingSamples,
  kWaitingSum,
  kSteals,
  kInjections,
  kParks,
  kSends,
  kDelivered,
  kMsgtestCalls,
  kMsgtestFailed,
  kTestanyCalls,
  kPostedMatch,
  kUnexpectedEager,
  kUnexpectedRndv,
  kBytesCopied,
  kTempAllocs,
  kWildcardScans,
  kPoolAcquires,
  kPoolFresh,
  kRetries,
  kNumCounters,
};

struct Counts {
  std::array<std::uint64_t, kNumCounters> v{};

  void add(const lwt::SchedulerStats& s);
  void add(const nx::Counters& c);
  /// Scheduler, endpoint, buffer-pool and RSR counters of one process.
  void add(chant::Runtime& rt);
  Counts& operator+=(const Counts& o) {
    for (int i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
    return *this;
  }
  friend Counts operator-(Counts a, const Counts& b) {
    for (int i = 0; i < kNumCounters; ++i) a.v[i] -= b.v[i];
    return a;
  }
};

/// Process CPU time and context switches (getrusage, all threads).
struct OsUsage {
  double cpu_s = 0;
  long vol_csw = 0;
  long invol_csw = 0;
  static OsUsage now();
  friend OsUsage operator-(OsUsage a, const OsUsage& b) {
    a.cpu_s -= b.cpu_s;
    a.vol_csw -= b.vol_csw;
    a.invol_csw -= b.invol_csw;
    return a;
  }
};

/// What each timed fiber hands back when it finishes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t payload_bytes = 0;  ///< verified payload delivered
  std::uint64_t calls = 0;          ///< RSR calls (base of per-call ratios)
  std::vector<std::uint32_t> lat_ns;

  /// Counts one timed operation: its latency and verified payload bytes
  /// when it passed its checks, a failure otherwise.
  void count(bool ok, std::uint64_t latency_ns, std::uint64_t bytes) {
    ++attempted;
    if (!ok) {
      ++failed;
      return;
    }
    payload_bytes += bytes;
    lat_ns.push_back(latency_ns > 0xFFFFFFFFull
                         ? 0xFFFFFFFFu
                         : static_cast<std::uint32_t>(latency_ns));
  }
};

/// One timed round: a fresh world, a warm-up, then a measured window.
struct Round {
  bool traced = false;
  double setup_s = 0;   ///< world construction to all timed fibers created
  double window_s = 0;  ///< first timed op to the last op's completion
  Tally tally;
  Counts counts;  ///< window deltas summed over processes
  OsUsage os;     ///< window delta
  std::uint64_t leaked_handles = 0;
  std::vector<std::string> check_failures;
  std::vector<SpanRec> spans;  ///< traced rounds only

  std::mutex mu;  ///< guards the merges below (called from fibers)
  void merge(Tally&& t);
  void merge_counts(const Counts& delta);
  void fail_check(std::string what);
};

/// Cross-process rendezvous that opens and closes a round's timed
/// window. The transports are thread-hosted, so every simulated process
/// lives in this OS process and the rendezvous is plain atomics; waiting
/// fibers yield, so servers and peers keep running meanwhile.
class Window {
 public:
  /// `parties`: process mains; `fibers`: timed fibers over all processes.
  Window(int parties, int fibers, double seconds, std::uint64_t t_construct);

  /// A timed fiber, warm-up done: returns once the window is open.
  void fiber_ready();
  /// A process main, its timed fibers created: when the last main gets
  /// here, set-up is over. Waits until every timed fiber is ready, takes
  /// its process's start counters (returned), and the last main opens
  /// the window.
  Counts open(const std::function<Counts()>& snapshot);
  /// A process main after joining its timed fibers: contributes its
  /// counter delta; the last main closes the window.
  void close(const Counts& delta, Round& r);

  bool is_open() const { return open_.load(std::memory_order_acquire); }
  std::uint64_t deadline_ns() const { return deadline_ns_; }
  bool expired() const { return now_ns() >= deadline_ns_; }

 private:
  const int parties_;
  const int fibers_;
  const std::uint64_t duration_ns_;
  const std::uint64_t t_construct_;
  std::atomic<int> arrived_{0};
  std::atomic<int> ready_{0};
  std::atomic<int> opened_{0};
  std::atomic<int> closed_{0};
  std::atomic<bool> open_{false};
  std::uint64_t deadline_ns_ = 0;
  std::uint64_t t_setup_done_ = 0;
  std::uint64_t t_open_ = 0;
  OsUsage os_open_;
};

/// CPUs the benchmark places its OS threads on: distinct CPUs from the
/// end of the allowed set when it holds at least `n`, else none.
std::vector<int> placement_cpus(int n);
/// Pins the calling OS thread to `cpu`.
void pin_self(int cpu);
std::string placement_string(const std::vector<int>& cpus, const char* who);

/// A workload's fixed configuration, recorded in the provenance stamp.
struct Stamp {
  std::string transport;
  std::string policy;
  unsigned workers = 1;
  std::string placement;
};

/// Runs one round of the named workload.
using RoundFn = void (*)(const Options&, const RefBlock&, Round&);
void fig9_round(const Options& o, const RefBlock& ref, Round& r);
void rsr_mix_round(const Options& o, const RefBlock& ref, Round& r);
void mn_sync_round(const Options& o, const RefBlock& ref, Round& r);
Stamp fig9_stamp();
Stamp rsr_mix_stamp();
Stamp mn_sync_stamp();
/// Digest of the first n inputs per stream that a workload draws from
/// `seed` (op kinds, sizes, offsets, arguments); the self-test checks
/// that the inputs depend on the seed and nothing else.
std::uint64_t fig9_inputs(std::uint64_t seed, int n);
std::uint64_t rsr_mix_inputs(std::uint64_t seed, int n);
std::uint64_t mn_sync_inputs(std::uint64_t seed, int n);

/// Adds the handles one process still holds at the end of a round
/// (calls and receives left outstanding); any leak fails the round.
void check_handles(Round& r, std::uint64_t outstanding, const char* who);

/// Checks every process's nx conservation law over a whole round:
/// messages sent == messages delivered.
void check_conservation(nx::Machine& m, Round& r);

}  // namespace cb
