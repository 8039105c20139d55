// chantbench — one workload run: Options::rounds rounds, each a fresh
// world, a warm-up and a timed window; prints one JSON record on stdout
// with the provenance stamp and every round's metrics. chantbench/run.py
// builds this program, runs it and reduces the rounds to the reported
// medians.
//
//   chantbench --workload NAME --seed N --seconds S [--trace 0|1]
//              [--spans-out PATH] [--corrupt-every N]
//
// With --trace 1 odd rounds record spans (even rounds stay untraced, so
// the run also yields the tracing overhead) and the last traced round's
// spans are written to --spans-out. Exits 1 when any output check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "bench.hpp"
#include "stats.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef CHANTBENCH_BUILD_TYPE
#define CHANTBENCH_BUILD_TYPE "unknown"
#endif

namespace cb {
namespace {

struct Workload {
  const char* name;
  RoundFn round;
  Stamp (*stamp)();
};

const Workload kWorkloads[] = {
    {"fig9_p2p", &fig9_round, &fig9_stamp},
    {"rsr_mix", &rsr_mix_round, &rsr_mix_stamp},
    {"mn_sync", &mn_sync_round, &mn_sync_stamp},
};

/// Appends `item` to a comma-separated JSON list body.
void append(std::string& list, const std::string& item) {
  if (!list.empty()) list += ',';
  list += item;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The CPU brand string, read with cpuid (no file outside the checkout).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

using Metrics = std::map<std::string, double>;

double median_of(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 5000);
}

/// Span-derived layer metrics of a traced round (µs medians).
void span_metrics(const Round& r, Metrics& m) {
  std::map<std::string, std::vector<std::uint64_t>> d;
  std::map<std::uint64_t, std::vector<SpanRec>> children;
  for (const SpanRec& s : r.spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  for (const SpanRec& s : r.spans) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    switch (s.name) {
      case SpanName::ChantSend:
        d["chant.send_busy_us"].push_back(dur);
        break;
      case SpanName::ChantRecv:
        d["chant.recv_wait_us"].push_back(dur);
        break;
      case SpanName::ChantCall:
        d[s.aux <= 1024 ? "chant.call_inline_rtt_us"
                        : "chant.call_tail_rtt_us"]
            .push_back(dur);
        break;
      case SpanName::ChantPost:
        d["chant.post_us"].push_back(dur);
        break;
      case SpanName::RsrCreateJoin:
        d["chant.remote_create_join_us"].push_back(dur);
        break;
      case SpanName::LwtMutexLock:
        d["lwt.lock_wait_us"].push_back(dur);
        break;
      case SpanName::MnSpawnJoin:
        d["lwt.spawn_join_us"].push_back(dur);
        break;
      default:
        break;
    }
    // nx.isend spans come from mn_sync's ping-pongs, which run over the
    // shmring wire.
    if (s.name == SpanName::NxIsend) {
      if (s.aux <= 4096) d["transport.send_small_us"].push_back(dur);
      if (s.aux > 32768) d["transport.send_chunked_us"].push_back(dur);
    }
    if (s.parent == 0 && s.name < SpanName::ChantSend) {
      const auto it = children.find(s.id);
      d["bench.op_self_us"].push_back(
          it == children.end() ? dur : self_time(s, it->second));
    }
  }
  for (auto& [name, v] : d) m[name] = median_of(std::move(v)) * 1e-3;
}

double per(std::uint64_t n, std::uint64_t base) {
  return base == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(base);
}

Metrics round_metrics(Round& r, bool* p99_supported) {
  Metrics m;
  std::vector<std::uint32_t>& lat = r.tally.lat_ns;
  std::sort(lat.begin(), lat.end());
  const std::uint64_t ok = lat.size();
  const std::uint32_t top = highest_supported_percentile(ok);
  *p99_supported = top >= 9900;
  const double w = r.window_s;
  m["ops_per_s"] = w > 0 ? static_cast<double>(ok) / w : 0;
  m["op_p50_us"] = ok ? percentile_sorted(lat, 5000) * 1e-3 : 0;
  m["op_p99_us"] = ok ? percentile_sorted(lat, 9900) * 1e-3 : 0;
  m["op_p999_us"] = top >= 9990 ? percentile_sorted(lat, 9990) * 1e-3 : 0;
  m["goodput_MBps"] =
      w > 0 ? static_cast<double>(r.tally.payload_bytes) / w * 1e-6 : 0;
  m["cpu_us_per_op"] = ok ? r.os.cpu_s * 1e6 / static_cast<double>(ok) : 0;
  m["setup_s"] = r.setup_s;
  m["failed_ops_ratio"] = per(r.tally.failed, r.tally.attempted);

  const auto& c = r.counts.v;
  m["lwt.full_switches_per_op"] = per(c[kFullSwitches], ok);
  m["lwt.partial_poll_tests_per_op"] = per(c[kPartialPollTests], ok);
  m["lwt.avg_waiting_threads"] = per(c[kWaitingSum], c[kWaitingSamples]);
  m["lwt.wq_poll_tests_per_op"] = per(c[kWqPollTests], ok);
  m["lwt.idle_spins_per_op"] = per(c[kIdleSpins], ok);
  m["lwt.parks_per_op"] = per(c[kParks], ok);
  m["lwt.steals_per_op"] = per(c[kSteals], ok);
  m["lwt.injections_per_op"] = per(c[kInjections], ok);
  m["nx.msgtest_calls_per_op"] = per(c[kMsgtestCalls], ok);
  m["nx.msgtest_useful_ratio"] =
      per(c[kMsgtestCalls] - c[kMsgtestFailed], c[kMsgtestCalls]);
  m["nx.posted_match_ratio"] = per(c[kPostedMatch], c[kDelivered]);
  m["nx.unexpected_eager_per_op"] = per(c[kUnexpectedEager], ok);
  m["nx.unexpected_rndv_per_op"] = per(c[kUnexpectedRndv], ok);
  m["nx.wildcard_scans_per_op"] = per(c[kWildcardScans], ok);
  m["nx.bytes_copied_per_op"] = per(c[kBytesCopied], ok);
  m["nx.temp_allocs_per_op"] = per(c[kTempAllocs], ok);
  m["os.vol_csw_per_op"] = per(static_cast<std::uint64_t>(r.os.vol_csw), ok);
  m["os.invol_csw_per_op"] =
      per(static_cast<std::uint64_t>(r.os.invol_csw), ok);
  m["chant.pool_fresh_per_call"] = per(c[kPoolFresh], c[kPoolAcquires]);
  m["chant.retries_per_call"] = per(c[kRetries], r.tally.calls);
  m["chant.leaked_handles"] = static_cast<double>(r.leaked_handles);
  if (r.traced) span_metrics(r, m);
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: chantbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--spans-out PATH] "
               "[--corrupt-every N]\n");
  return 2;
}

}  // namespace
}  // namespace cb

int main(int argc, char** argv) {
  using namespace cb;
  Options o;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans-out") {
      spans_out = v;
    } else if (k == "--corrupt-every") {
      o.corrupt_every = std::strtoull(v, nullptr, 10);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0) {
    return usage();
  }
  const Workload* wl = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (o.workload == cand.name) wl = &cand;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "chantbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return usage();
  }

  const RefBlock ref(o.seed);
  const Stamp st = wl->stamp();
  Tracer tracer;
  std::string rounds_json;
  bool correct = true;
  std::vector<SpanRec> last_spans;
  for (int i = 0; i < o.rounds; ++i) {
    Round r;
    r.traced = o.trace && i % 2 == 1;
    if (r.traced) {
      tracer.reset();
      g_tracer = &tracer;
    }
    wl->round(o, ref, r);
    g_tracer = nullptr;
    if (r.traced) r.spans = tracer.snapshot();
    bool p99_ok = false;
    const Metrics m = round_metrics(r, &p99_ok);
    if (!p99_ok) r.check_failures.push_back("too few samples for p99");
    if (r.tally.failed != 0 || !r.check_failures.empty()) correct = false;
    if (r.traced) last_spans = std::move(r.spans);

    std::string checks;
    for (const std::string& f : r.check_failures) append(checks, json_str(f));
    std::string mj;
    char num[64];
    for (const auto& [name, val] : m) {
      std::snprintf(num, sizeof num, "%.9g", val);
      append(mj, json_str(name) + ":" + num);
    }
    // Failed whole-run checks count as failed operations too.
    const std::uint64_t failed = r.tally.failed + r.check_failures.size();
    append(rounds_json,
           std::string("{\"traced\":") + (r.traced ? "true" : "false") +
               ",\"attempted\":" + std::to_string(r.tally.attempted) +
               ",\"failed\":" + std::to_string(failed) + ",\"checks\":[" +
               checks + "],\"metrics\":{" + mj + "}}");
  }
  if (!spans_out.empty() && !write_spans(spans_out.c_str(), last_spans)) {
    std::fprintf(stderr, "chantbench: cannot write %s\n", spans_out.c_str());
    correct = false;
  }

  const std::string prov =
      "{\"workload\":" + json_str(o.workload) +
      ",\"seed\":" + std::to_string(o.seed) +
      ",\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"cpu_model\":" + json_str(cpu_model()) +
      ",\"build_type\":" + json_str(CHANTBENCH_BUILD_TYPE) +
      ",\"compiler\":" + json_str(__VERSION__) +
      ",\"transport\":" + json_str(st.transport) +
      ",\"policy\":" + json_str(st.policy) +
      ",\"workers\":" + std::to_string(st.workers) +
      ",\"placement\":" + json_str(st.placement) +
      ",\"rounds\":" + std::to_string(o.rounds) +
      ",\"seconds\":" + std::to_string(o.seconds) + "}";
  std::printf("{\"provenance\":%s,\"correct\":%s,\"rounds\":[%s]}\n",
              prov.c_str(), correct ? "true" : "false", rounds_json.c_str());
  return correct ? 0 : 1;
}
