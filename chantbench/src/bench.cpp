#include "bench.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>

namespace cb {

void Counts::add(const lwt::SchedulerStats& s) {
  v[kFullSwitches] += s.full_switches;
  v[kPartialPollTests] += s.partial_poll_tests;
  v[kWqPollTests] += s.wq_poll_tests;
  v[kIdleSpins] += s.idle_spins;
  v[kWaitingSamples] += s.waiting_samples;
  v[kWaitingSum] += s.waiting_sum;
  v[kSteals] += s.steals;
  v[kInjections] += s.injections;
  v[kParks] += s.parks;
}

void Counts::add(const nx::Counters& c) {
  v[kSends] += c.sends.load();
  v[kDelivered] += c.delivered.load();
  v[kMsgtestCalls] += c.msgtest_calls.load();
  v[kMsgtestFailed] += c.msgtest_failed.load();
  v[kTestanyCalls] += c.testany_calls.load();
  v[kPostedMatch] += c.posted_match.load();
  v[kUnexpectedEager] += c.unexpected_eager.load();
  v[kUnexpectedRndv] += c.unexpected_rndv.load();
  v[kBytesCopied] += c.bytes_copied.load();
  v[kTempAllocs] += c.temp_allocs.load();
  v[kWildcardScans] += c.wildcard_scans.load();
}

void Counts::add(chant::Runtime& rt) {
  add(rt.sched_stats());
  add(rt.net_counters());
  v[kPoolAcquires] += rt.buffer_pool().stats().acquires;
  v[kPoolFresh] += rt.buffer_pool().stats().fresh;
  v[kRetries] += rt.rsr_stats().retries_sent;
}

OsUsage OsUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  OsUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.vol_csw = ru.ru_nvcsw;
  u.invol_csw = ru.ru_nivcsw;
  return u;
}

void Round::merge(Tally&& t) {
  std::lock_guard<std::mutex> g(mu);
  tally.attempted += t.attempted;
  tally.failed += t.failed;
  tally.payload_bytes += t.payload_bytes;
  tally.calls += t.calls;
  tally.lat_ns.insert(tally.lat_ns.end(), t.lat_ns.begin(), t.lat_ns.end());
}

void Round::merge_counts(const Counts& delta) {
  std::lock_guard<std::mutex> g(mu);
  counts += delta;
}

void Round::fail_check(std::string what) {
  std::lock_guard<std::mutex> g(mu);
  if (check_failures.size() < 4) {  // the rest only count
    std::fprintf(stderr, "chantbench: check failed: %s\n", what.c_str());
  }
  check_failures.push_back(std::move(what));
}

Window::Window(int parties, int fibers, double seconds,
               std::uint64_t t_construct)
    : parties_(parties),
      fibers_(fibers),
      duration_ns_(static_cast<std::uint64_t>(seconds * 1e9)),
      t_construct_(t_construct) {}

void Window::fiber_ready() {
  ready_.fetch_add(1, std::memory_order_acq_rel);
  while (!is_open()) lwt::yield();
}

Counts Window::open(const std::function<Counts()>& snapshot) {
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    t_setup_done_ = now_ns();
  }
  while (ready_.load(std::memory_order_acquire) < fibers_) lwt::yield();
  const Counts start = snapshot();
  if (opened_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    os_open_ = OsUsage::now();
    t_open_ = now_ns();
    deadline_ns_ = t_open_ + duration_ns_;
    open_.store(true, std::memory_order_release);
  }
  return start;
}

void Window::close(const Counts& delta, Round& r) {
  while (!is_open()) lwt::yield();
  r.merge_counts(delta);
  if (closed_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    const std::uint64_t t_close = now_ns();
    r.os = OsUsage::now() - os_open_;
    r.window_s = static_cast<double>(t_close - t_open_) * 1e-9;
    r.setup_s = static_cast<double>(t_setup_done_ - t_construct_) * 1e-9;
  }
}

std::vector<int> placement_cpus(int n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) allowed.push_back(c);
  }
  if (static_cast<int>(allowed.size()) < n) return {};
  return std::vector<int>(allowed.end() - n, allowed.end());
}

void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::string placement_string(const std::vector<int>& cpus, const char* who) {
  if (cpus.empty()) return "unpinned";
  std::string s;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i != 0) s += ',';
    s += who + std::to_string(i) + ":cpu" + std::to_string(cpus[i]);
  }
  return s;
}

void check_handles(Round& r, std::uint64_t outstanding, const char* who) {
  {
    std::lock_guard<std::mutex> g(r.mu);
    r.leaked_handles += outstanding;
  }
  if (outstanding != 0) {
    r.fail_check(std::string(who) + ": " + std::to_string(outstanding) +
                 " handles left outstanding");
  }
}

void check_conservation(nx::Machine& m, Round& r) {
  std::uint64_t sends = 0, delivered = 0;
  for (int pe = 0; pe < m.pes(); ++pe) {
    for (int p = 0; p < m.processes_per_pe(); ++p) {
      sends += m.endpoint(pe, p).counters().sends.load();
      delivered += m.endpoint(pe, p).counters().delivered.load();
    }
  }
  if (sends != delivered) {
    r.fail_check("nx conservation: " + std::to_string(sends) + " sends vs " +
                 std::to_string(delivered) + " delivered");
  }
}

}  // namespace cb
