// chantbench self-test: the percentile rule, span self time, seed
// determinism of the workload inputs, that every workload's output
// checks pass on a clean round and catch corrupted payloads, and that a
// handle left outstanding fails the round. Exits non-zero if any
// expectation fails.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench.hpp"
#include "nx/machine.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

void percentile_rule() {
  using namespace cb;
  // p99 of 1000 samples sits at rank 990: exactly 10 samples beyond it.
  expect(percentile_rank(1000, 9900) == 990, "p99 rank of 1000");
  expect(percentile_supported(1000, 9900), "1000 samples support p99");
  expect(!percentile_supported(999, 9900), "999 samples do not support p99");
  expect(percentile_supported(10000, 9990), "10000 samples support p99.9");
  expect(!percentile_supported(9999, 9990), "9999 do not support p99.9");
  expect(highest_supported_percentile(1000) == 9900, "highest of 1000");
  expect(highest_supported_percentile(100000) == 9999, "highest of 1e5");
  expect(highest_supported_percentile(20) == 5000, "highest of 20");
  expect(highest_supported_percentile(10) == 0, "10 samples: none");
  std::vector<int> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile_sorted(v, 5000) == 500.0, "median of 1..1000");
  expect(percentile_sorted(v, 9900) == 990.0, "p99 of 1..1000");
  expect(percentile_sorted(std::vector<int>{7}, 5000) == 7.0, "median of 1");
}

cb::SpanRec span(std::uint64_t start, std::uint64_t end) {
  cb::SpanRec s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void self_time() {
  using cb::self_time;
  const cb::SpanRec parent = span(100, 200);
  expect(self_time(parent, {}) == 100, "no children: whole span");
  expect(self_time(parent, {span(110, 130), span(150, 160)}) == 70,
         "disjoint children subtract");
  expect(self_time(parent, {span(150, 180), span(110, 160)}) == 30,
         "overlapping children count once");
  expect(self_time(parent, {span(90, 120), span(190, 230)}) == 70,
         "children clipped to the parent");
  expect(self_time(parent, {span(100, 200)}) == 0, "fully covered");
  expect(self_time(parent, {span(120, 180), span(130, 140)}) == 40,
         "nested child inside another");
}

void seed_determinism() {
  using Fn = std::uint64_t (*)(std::uint64_t, int);
  const Fn fns[] = {&cb::fig9_inputs, &cb::rsr_mix_inputs,
                    &cb::mn_sync_inputs};
  for (Fn f : fns) {
    expect(f(7, 500) == f(7, 500), "same seed, same inputs");
    expect(f(7, 500) != f(8, 500), "other seed, other inputs");
  }
  cb::Rng a(3, 1, 2), b(3, 1, 2), c(3, 2, 1);
  bool same = true, differ = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.next();
    same = same && x == b.next();
    differ = differ || x != c.next();
  }
  expect(same, "one stream key, one sequence");
  expect(differ, "stream keys separate sequences");
  cb::Rng r(11);
  bool in_range = true;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t n = r.log_uniform(64, 256 * 1024);
    in_range = in_range && n >= 64 && n <= 256 * 1024;
  }
  expect(in_range, "log-uniform sizes stay in range");
}

void checks_catch_corruption() {
  const cb::RoundFn fns[] = {&cb::fig9_round, &cb::rsr_mix_round,
                             &cb::mn_sync_round};
  const cb::RefBlock ref(5);
  for (cb::RoundFn f : fns) {
    cb::Options o;
    o.seed = 5;
    o.seconds = 0.2;
    o.rounds = 1;
    cb::Round clean;
    f(o, ref, clean);
    expect(clean.tally.attempted > 0 && clean.tally.failed == 0 &&
               clean.check_failures.empty(),
           "a clean round passes its checks");
    o.corrupt_every = 500;
    cb::Round bad;
    f(o, ref, bad);
    expect(bad.tally.failed + bad.check_failures.size() > 0,
           "corrupted payloads are caught");
  }
}

// The gauges the workloads read at the end of a round see a receive
// left posted, and check_handles fails the round for it.
void leaked_handles_fail_the_round() {
  std::uint8_t buf[16];
  {
    chant::World::Config cfg;
    cfg.pes = 1;
    cfg.rt.start_server = false;
    chant::World w(cfg);
    cb::Round leaky, clean;
    w.run([&](chant::Runtime& rt) {
      const int h = rt.irecv(99, buf, sizeof buf, rt.self());
      cb::check_handles(leaky, rt.outstanding_calls() + rt.outstanding_recvs(),
                        "selftest");
      expect(rt.cancel_irecv(h).ok(), "cancel the leaked chant receive");
      cb::check_handles(clean, rt.outstanding_calls() + rt.outstanding_recvs(),
                        "selftest");
    });
    expect(leaky.leaked_handles == 1 && leaky.check_failures.size() == 1,
           "a posted chant receive fails the round");
    expect(clean.leaked_handles == 0 && clean.check_failures.empty(),
           "no outstanding chant handles pass");
  }
  nx::Machine::Config mc;
  mc.pes = 1;
  mc.processes_per_pe = 2;
  nx::Machine m(mc);
  nx::Endpoint& ep = m.endpoint(0, 0);
  const nx::Handle h = ep.irecv(0, 1, 99, ~0, buf, sizeof buf);
  cb::Round leaky;
  cb::check_handles(leaky, ep.posted_count(), "selftest");
  expect(leaky.check_failures.size() == 1, "a posted nx receive fails");
  expect(ep.cancel_recv(h), "cancel the leaked nx receive");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  seed_determinism();
  checks_catch_corruption();
  leaked_handles_fail_the_round();
  if (g_failures != 0) return EXIT_FAILURE;
  std::puts("chantbench selftest: ok");
  return EXIT_SUCCESS;
}
