// rsr_mix — the RSR plane: 2 PEs, WQ polling, one worker; every PE
// serves and runs 4 closed-loop client fibers against the other PE's
// server. Seeded mix per op:
//   70% echo call of 16 B..1 KiB  (reply inline, kInlineReply = 1 KiB)
//   15% echo call of 2..8 KiB     (reply tail path)
//   10% post (one-way; the server verifies and counts, the counts are
//       checked at the end)
//    5% remote create + join (the return value is checked)
// Posts and thread ops run beside calls so a gain for calls that costs
// the others shows. Op latency = issue to completion.
#include <cstring>

#include "bench.hpp"

namespace cb {
namespace {

constexpr int kClients = 4;
constexpr int kWarmup = 400;  // ops per client before the window
constexpr std::size_t kPostHdr = sizeof(std::uint64_t);

enum class Kind { CallInline, CallTail, Post, CreateJoin };

struct RsrOp {
  Kind kind;
  std::size_t len = 0;
  std::size_t off = 0;
  std::uint64_t arg = 0;
};

RsrOp draw(Rng& rng) {
  RsrOp op{};
  const std::uint64_t u = rng.below(100);
  if (u < 70) {
    op.kind = Kind::CallInline;
    op.len = rng.log_uniform(16, 1024);
  } else if (u < 85) {
    op.kind = Kind::CallTail;
    op.len = rng.log_uniform(2048, 8192);
  } else if (u < 95) {
    op.kind = Kind::Post;
    op.len = rng.log_uniform(16, 1024);
  } else {
    op.kind = Kind::CreateJoin;
    op.arg = rng.next() & 0xFFFFFFFFu;
  }
  if (op.len != 0) op.off = RefBlock::offset(rng, op.len);
  return op;
}

Rng client_rng(std::uint64_t seed, int pe, int thread) {
  return Rng(seed, 0x55A, static_cast<std::uint64_t>(pe * 4096 + thread));
}

// Server-side state. Handlers are plain function pointers, so what they
// touch is file-scope; one round runs at a time.
const RefBlock* g_ref = nullptr;
std::atomic<std::uint64_t> g_posts_seen[2];
std::atomic<std::uint64_t> g_posts_bad{0};
int g_h_echo = -1;
int g_h_post = -1;
int g_h_count = -1;

void echo_handler(chant::Runtime&, chant::Runtime::RsrContext&,
                  const void* arg, std::size_t len,
                  std::vector<std::uint8_t>& reply) {
  const auto* p = static_cast<const std::uint8_t*>(arg);
  reply.assign(p, p + len);
}

// A post carries [offset][payload]; the server checks the payload
// against the reference slice.
void post_handler(chant::Runtime& rt, chant::Runtime::RsrContext&,
                  const void* arg, std::size_t len,
                  std::vector<std::uint8_t>&) {
  std::uint64_t off = 0;
  bool ok = len >= kPostHdr;
  if (ok) {
    std::memcpy(&off, arg, kPostHdr);
    ok = off + (len - kPostHdr) <= RefBlock::kBytes &&
         std::memcmp(static_cast<const std::uint8_t*>(arg) + kPostHdr,
                     g_ref->data() + off, len - kPostHdr) == 0;
  }
  if (!ok) g_posts_bad.fetch_add(1);
  g_posts_seen[rt.pe()].fetch_add(1);
}

void count_handler(chant::Runtime& rt, chant::Runtime::RsrContext&,
                   const void*, std::size_t,
                   std::vector<std::uint8_t>& reply) {
  const std::uint64_t n = g_posts_seen[rt.pe()].load();
  reply.resize(sizeof n);
  std::memcpy(reply.data(), &n, sizeof n);
}

void* doubler(void* arg) {
  return reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(arg) * 2 +
                                 1);
}

struct Shared {
  const Options* o;
  const RefBlock* ref;
  Window* win;
  Round* r;
  std::atomic<std::uint64_t> posts_sent[2];
};

void* client(void* p) {
  Shared& sh = *static_cast<Shared*>(p);
  chant::Runtime& rt = *chant::Runtime::current();
  const int me = rt.pe();
  const int peer = 1 - me;
  const int t = rt.self().thread;
  Rng rng = client_rng(sh.o->seed, me, t);
  std::vector<std::uint8_t> sbuf(kPostHdr + 8192);
  Tally tally;
  bool timed = false;
  for (std::uint64_t it = 0;; ++it) {
    if (it == kWarmup) {
      sh.win->fiber_ready();
      timed = true;
    }
    if (timed && sh.win->expired()) break;
    const RsrOp op = draw(rng);
    const std::uint64_t opid = (static_cast<std::uint64_t>(me) << 56) |
                               (static_cast<std::uint64_t>(t) << 32) | it;
    const std::uint8_t* want = sh.ref->data() + op.off;
    bool ok = false;
    std::uint64_t bytes = 0;
    const std::uint64_t t0 = now_ns();
    switch (op.kind) {
      case Kind::CallInline:
      case Kind::CallTail: {
        const std::uint8_t* src = want;
        if (sh.o->corrupt_every != 0) {
          std::memcpy(sbuf.data(), want, op.len);
          maybe_corrupt(*sh.o, it, sbuf.data(), op.len);
          src = sbuf.data();
        }
        Span root(op.kind == Kind::CallInline ? SpanName::RsrCallInline
                                              : SpanName::RsrCallTail,
                  opid);
        std::vector<std::uint8_t> reply;
        {
          Span s(SpanName::ChantCall, opid, root.id(),
                 static_cast<std::uint32_t>(op.len));
          reply = rt.call(peer, 0, g_h_echo, src, op.len);
        }
        ok = reply.size() == op.len &&
             std::memcmp(reply.data(), want, op.len) == 0;
        bytes = 2 * op.len;
        ++tally.calls;
        break;
      }
      case Kind::Post: {
        const std::uint64_t off = op.off;
        std::memcpy(sbuf.data(), &off, kPostHdr);
        std::memcpy(sbuf.data() + kPostHdr, want, op.len);
        maybe_corrupt(*sh.o, it, sbuf.data() + kPostHdr, op.len);
        Span root(SpanName::RsrPost, opid);
        {
          Span s(SpanName::ChantPost, opid, root.id(),
                 static_cast<std::uint32_t>(op.len));
          rt.post(peer, 0, g_h_post, sbuf.data(), kPostHdr + op.len);
        }
        sh.posts_sent[me].fetch_add(1);
        ok = true;  // the server verifies; mismatches fail the round
        bytes = op.len;
        break;
      }
      case Kind::CreateJoin: {
        Span root(SpanName::RsrCreateJoin, opid);
        chant::Gid g{-1, -1, -1};
        {
          Span s(SpanName::ChantCreate, opid, root.id());
          g = rt.create(&doubler, reinterpret_cast<void*>(op.arg), peer, 0);
        }
        int err = -1;
        void* rv = nullptr;
        {
          Span s(SpanName::ChantJoin, opid, root.id());
          rv = rt.join(g, &err);
        }
        ok = err == 0 &&
             reinterpret_cast<std::uintptr_t>(rv) == op.arg * 2 + 1;
        break;
      }
    }
    const std::uint64_t t1 = now_ns();
    if (timed) {
      tally.count(ok, t1 - t0, bytes);
    } else if (!ok) {
      sh.r->fail_check("rsr_mix: bad reply during warm-up");
    }
  }
  sh.r->merge(std::move(tally));
  return nullptr;
}

chant::World::Config config() {
  chant::World::Config cfg;
  cfg.pes = 2;
  cfg.transport_spec = nx::TransportSpec::inproc();
  cfg.rt.policy = chant::PollPolicy::SchedulerPollsWQ;
  cfg.rt.workers = 1;
  return cfg;
}

}  // namespace

Stamp rsr_mix_stamp() {
  const chant::World::Config cfg = config();
  return {cfg.transport_spec.to_string(), chant::to_string(cfg.rt.policy),
          cfg.rt.workers, placement_string(placement_cpus(cfg.pes), "pe")};
}

std::uint64_t rsr_mix_inputs(std::uint64_t seed, int n) {
  Digest d;
  for (int pe = 0; pe < 2; ++pe) {
    for (int t = chant::kFirstUserLid; t < chant::kFirstUserLid + kClients;
         ++t) {
      Rng r = client_rng(seed, pe, t);
      for (int i = 0; i < n; ++i) {
        const RsrOp op = draw(r);
        d.add(static_cast<std::uint64_t>(op.kind));
        d.add(op.len);
        d.add(op.off);
        d.add(op.arg);
      }
    }
  }
  return d.h;
}

void rsr_mix_round(const Options& o, const RefBlock& ref, Round& r) {
  const chant::World::Config cfg = config();
  const std::vector<int> cpus = placement_cpus(cfg.pes);
  g_ref = &ref;
  g_posts_seen[0] = 0;
  g_posts_seen[1] = 0;
  g_posts_bad = 0;
  Window win(cfg.pes, cfg.pes * kClients, o.seconds / o.rounds, now_ns());
  chant::World w(cfg);
  g_h_echo = w.register_handler(&echo_handler);
  g_h_post = w.register_handler(&post_handler);
  g_h_count = w.register_handler(&count_handler);
  Shared sh{&o, &ref, &win, &r, {}};
  w.run([&](chant::Runtime& rt) {
    if (!cpus.empty()) pin_self(cpus[static_cast<std::size_t>(rt.pe())]);
    std::vector<chant::Gid> ts;
    for (int i = 0; i < kClients; ++i) {
      ts.push_back(rt.create(&client, &sh, PTHREAD_CHANTER_LOCAL,
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
    // Requests from one process are served in order, so this reply
    // counts every post this process made.
    const std::vector<std::uint8_t> reply =
        rt.call(1 - rt.pe(), 0, g_h_count, nullptr, 0);
    std::uint64_t seen = 0;
    if (reply.size() == sizeof seen) std::memcpy(&seen, reply.data(), 8);
    const std::uint64_t sent = sh.posts_sent[rt.pe()].load();
    if (seen != sent) {
      r.fail_check("rsr_mix: pe" + std::to_string(rt.pe()) + " posted " +
                   std::to_string(sent) + ", peer saw " +
                   std::to_string(seen));
    }
    check_handles(r, rt.outstanding_calls() + rt.outstanding_recvs(),
                  "rsr_mix");
  });
  if (g_posts_bad.load() != 0) {
    r.fail_check("rsr_mix: " + std::to_string(g_posts_bad.load()) +
                 " posts failed verification");
  }
  check_conservation(w.machine(), r);
}

}  // namespace cb
