// fig9_p2p — the paper's Fig. 9 loop: 2 PEs x 12 chanter threads, each
// running {compute(alpha); send; compute(beta); recv} against its twin
// on the other PE, alpha = beta = 100 so communication dominates. PS
// polling, one worker, no server thread: lwt switching / PS polling and
// nx matching do almost all the work.
//
// Op = one send+recv exchange of one thread; its latency is the time
// spent inside send and recv (compute excluded).
#include <cstring>

#include "bench.hpp"
#include "harness/workload.hpp"

namespace cb {
namespace {

constexpr int kThreads = 12;
constexpr int kWarmup = 200;  // exchanges per thread before the window
constexpr std::uint64_t kAlpha = 100;
constexpr std::uint64_t kBeta = 100;
constexpr std::size_t kMinMsg = 8;
constexpr std::size_t kMaxMsg = 8 * 1024;  // below the 16 KiB eager limit
constexpr int kTag = 1;
// The pe0 twin ends the loop: its last message carries one marker byte
// past the seeded payload, so both twins stop after the same exchange.
constexpr std::uint8_t kLastMarker = 0xEE;

struct Shared {
  const Options* o;
  const RefBlock* ref;
  Window* win;
  Round* r;
};

// Both twins derive a thread's message sequence from the same stream.
Rng sender_stream(std::uint64_t seed, int pe, int thread) {
  return Rng(seed, 0xF19, static_cast<std::uint64_t>(pe * 4096 + thread));
}

void* chanter(void* p) {
  const Shared& sh = *static_cast<Shared*>(p);
  chant::Runtime& rt = *chant::Runtime::current();
  const int me = rt.pe();
  const int t = rt.self().thread;
  const chant::Gid twin{1 - me, 0, t};
  Rng mine = sender_stream(sh.o->seed, me, t);
  Rng theirs = sender_stream(sh.o->seed, 1 - me, t);
  std::vector<std::uint8_t> sbuf(kMaxMsg + 1);
  std::vector<std::uint8_t> rbuf(kMaxMsg + 1);
  Tally tally;
  bool timed = false;
  bool last = false;
  for (std::uint64_t it = 0; !last; ++it) {
    if (it == kWarmup) {
      sh.win->fiber_ready();
      timed = true;
    }
    const std::uint64_t op = (static_cast<std::uint64_t>(me) << 56) |
                             (static_cast<std::uint64_t>(t) << 32) | it;
    Span root(SpanName::Fig9Exchange, op);
    harness::consume(harness::compute(kAlpha));

    const std::size_t slen = mine.log_uniform(kMinMsg, kMaxMsg);
    const std::uint8_t* src = sh.ref->data() + RefBlock::offset(mine, slen);
    std::size_t wire_len = slen;
    if (me == 0 && timed && sh.win->expired()) last = true;
    if (last || sh.o->corrupt_every != 0) {
      std::memcpy(sbuf.data(), src, slen);
      maybe_corrupt(*sh.o, it, sbuf.data(), slen);
      if (last) sbuf[wire_len++] = kLastMarker;
      src = sbuf.data();
    }
    const std::uint64_t t0 = now_ns();
    {
      Span s(SpanName::ChantSend, op, root.id(), wire_len);
      rt.send(kTag, src, wire_len, twin);
    }
    const std::uint64_t t1 = now_ns();

    harness::consume(harness::compute(kBeta));

    const std::size_t rlen = theirs.log_uniform(kMinMsg, kMaxMsg);
    const std::uint8_t* want = sh.ref->data() + RefBlock::offset(theirs, rlen);
    const std::uint64_t t2 = now_ns();
    chant::MsgInfo mi;
    {
      Span s(SpanName::ChantRecv, op, root.id(), rlen);
      mi = rt.recv(kTag, rbuf.data(), rbuf.size(), twin);
    }
    const std::uint64_t t3 = now_ns();

    bool ok = mi.status.ok() && mi.len >= rlen && mi.len <= rlen + 1 &&
              std::memcmp(rbuf.data(), want, rlen) == 0;
    if (ok && mi.len == rlen + 1) {
      ok = me == 1 && rbuf[rlen] == kLastMarker;
      last = true;
    }
    if (timed) {
      tally.count(ok, (t1 - t0) + (t3 - t2), rlen);
    } else if (!ok) {
      sh.r->fail_check("fig9_p2p: bad message during warm-up");
    }
  }
  sh.r->merge(std::move(tally));
  return nullptr;
}

chant::World::Config config() {
  chant::World::Config cfg;
  cfg.pes = 2;
  cfg.transport_spec = nx::TransportSpec::inproc();
  cfg.rt.policy = chant::PollPolicy::SchedulerPollsPS;
  cfg.rt.workers = 1;
  cfg.rt.start_server = false;
  return cfg;
}

}  // namespace

Stamp fig9_stamp() {
  const chant::World::Config cfg = config();
  return {cfg.transport_spec.to_string(), chant::to_string(cfg.rt.policy),
          cfg.rt.workers, placement_string(placement_cpus(cfg.pes), "pe")};
}

std::uint64_t fig9_inputs(std::uint64_t seed, int n) {
  Digest d;
  for (int pe = 0; pe < 2; ++pe) {
    for (int t = chant::kFirstUserLid; t < chant::kFirstUserLid + kThreads;
         ++t) {
      Rng r = sender_stream(seed, pe, t);
      for (int i = 0; i < n; ++i) {
        const std::size_t len = r.log_uniform(kMinMsg, kMaxMsg);
        d.add(len);
        d.add(RefBlock::offset(r, len));
      }
    }
  }
  return d.h;
}

void fig9_round(const Options& o, const RefBlock& ref, Round& r) {
  const chant::World::Config cfg = config();
  const std::vector<int> cpus = placement_cpus(cfg.pes);
  Window win(cfg.pes, cfg.pes * kThreads, o.seconds / o.rounds, now_ns());
  chant::World w(cfg);
  Shared sh{&o, &ref, &win, &r};
  w.run([&](chant::Runtime& rt) {
    if (!cpus.empty()) pin_self(cpus[static_cast<std::size_t>(rt.pe())]);
    std::vector<chant::Gid> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.push_back(rt.create(&chanter, &sh, PTHREAD_CHANTER_LOCAL,
                             PTHREAD_CHANTER_LOCAL));
    }
    const auto snap = [&rt] {
      Counts c;
      c.add(rt);
      return c;
    };
    const Counts start = win.open(snap);
    for (const chant::Gid& g : ts) rt.join(g);
    win.close(snap() - start, r);
    check_handles(r, rt.outstanding_calls() + rt.outstanding_recvs(),
                  "fig9_p2p");
  });
  check_conservation(w.machine(), r);
}

}  // namespace cb
