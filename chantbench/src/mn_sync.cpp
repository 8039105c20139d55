// mn_sync — the M:N pool: one process on an lwt::Scheduler with three
// workers. Four client fibers draw a seeded mix per op:
//   65% Mutex/CondVar bounded-queue handoff to the client's consumer
//       fiber (a payload of 16 B..1 KiB, verified by the consumer)
//   20% spawn + join of a short fiber (its return value is checked)
//   15% nx Endpoint ping-pong with the client's echo fiber, 16 B..64 KiB
//       over thread-hosted shmring: the sizes cross the 32 KiB ring
//       chunk, so the wire codec, ring copies and reassembly run too
// Chant p2p/RSR stay out: their bookkeeping is not multi-worker safe
// (DESIGN.md §10.4). This is the workload where the pool's wait lock,
// steal, inject and park paths and lwt/sync do the work. Waits are
// scheduler-polled (msgtest pumps the rings), so the chant doorbell
// idle hook is not on this path.
//
// Op = one handoff (push start to pop, timed by the consumer), one
// spawn+join or one round trip.
#include <cstring>

#include "bench.hpp"
#include "harness/workload.hpp"
#include "lwt/sync.hpp"
#include "nx/machine.hpp"

namespace cb {
namespace {

constexpr int kClients = 4;
constexpr unsigned kWorkers = 3;
constexpr int kWarmup = 1000;  // ops per client before the window
constexpr std::size_t kQueueCap = 8;
constexpr std::size_t kMaxItem = 1024;
constexpr std::size_t kMaxPing = 64 * 1024;

enum class Kind { Handoff, SpawnJoin, PingPong };

struct MnOp {
  Kind kind;
  std::size_t len = 0;
  std::size_t off = 0;
  std::uint64_t arg = 0;
};

MnOp draw(Rng& rng) {
  MnOp op{};
  const std::uint64_t u = rng.below(100);
  if (u < 65) {
    op.kind = Kind::Handoff;
    op.len = rng.log_uniform(16, kMaxItem);
  } else if (u < 85) {
    op.kind = Kind::SpawnJoin;
    op.arg = rng.next() & 0xFFFFFFFFu;
  } else {
    op.kind = Kind::PingPong;
    op.len = rng.log_uniform(16, kMaxPing);
  }
  if (op.len != 0) op.off = RefBlock::offset(rng, op.len);
  return op;
}

Rng client_rng(std::uint64_t seed, int c) {
  return Rng(seed, 0x3A5, static_cast<std::uint64_t>(c));
}

/// Op id of client c's op number `it`. The consumer and echo fibers
/// replay their client's stream, so they tag their spans with the id of
/// the op they serve.
std::uint64_t op_id(int c, std::uint64_t it) {
  return (static_cast<std::uint64_t>(c) << 56) | it;
}

/// The number of the next op of `kind` in a stream whose next draw is
/// op number `it`; advances the stream past it.
std::uint64_t next_of(Rng& rng, std::uint64_t it, Kind kind, MnOp* op) {
  for (;; ++it) {
    *op = draw(rng);
    if (op->kind == kind) return it;
  }
}

struct Item {
  std::uint64_t t_push = 0;
  std::uint32_t len = 0;
  bool timed = false;
  bool stop = false;
  std::uint8_t data[kMaxItem];
};

/// Bounded queue of one client/consumer pair.
struct Queue {
  lwt::Mutex mu;
  lwt::CondVar not_empty;
  lwt::CondVar not_full;
  Item slots[kQueueCap];
  std::size_t head = 0;
  std::size_t count = 0;
};

void lock(Queue& q, std::uint64_t op, std::uint64_t parent) {
  Span s(SpanName::LwtMutexLock, op, parent);
  q.mu.lock();
}

void wait_on(lwt::CondVar& cv, Queue& q, std::uint64_t op,
             std::uint64_t parent) {
  Span s(SpanName::LwtCvWait, op, parent);
  cv.wait(q.mu);
}

/// A posted nx request that the scheduler's waiting queue tests.
struct NxWait {
  nx::Endpoint* ep;
  nx::Handle h;
  nx::MsgHeader hdr{};
  bool done = false;
};

bool nx_test(void* p) {
  auto* w = static_cast<NxWait*>(p);
  if (!w->done && w->ep->msgtest(w->h, &w->hdr)) w->done = true;
  return w->done;
}

void nx_wait(NxWait& w, std::uint64_t op, std::uint64_t parent) {
  Span s(SpanName::NxWait, op, parent);
  if (!nx_test(&w)) lwt::Scheduler::current()->poll_block_wq({&nx_test, &w});
}

void nx_send(nx::Endpoint& ep, int dst_proc, int tag, const void* buf,
             std::size_t len, std::uint64_t op, std::uint64_t parent) {
  Span s(SpanName::NxIsend, op, parent, static_cast<std::uint32_t>(len));
  NxWait w{&ep, ep.isend(0, dst_proc, tag, buf, len)};
  nx_wait(w, op, s.id());
}

void* short_fiber(void* arg) {
  const auto a = reinterpret_cast<std::uintptr_t>(arg);
  harness::consume(harness::compute(a & 63));
  return reinterpret_cast<void*>(a * 2 + 1);
}

struct Shared {
  const Options* o;
  const RefBlock* ref;
  Window* win;
  Round* r;
  nx::Endpoint* ep0;  // clients
  nx::Endpoint* ep1;  // echo fibers
  Queue queues[kClients];
};

struct FiberArg {
  Shared* sh;
  int c;
};

void* consumer(void* p) {
  const FiberArg& fa = *static_cast<FiberArg*>(p);
  Shared& sh = *fa.sh;
  Queue& q = sh.queues[fa.c];
  Rng mirror = client_rng(sh.o->seed, fa.c);
  Tally tally;
  std::vector<std::uint8_t> buf(kMaxItem);
  for (std::uint64_t it = 0;; ++it) {
    MnOp want{};
    it = next_of(mirror, it, Kind::Handoff, &want);
    const std::uint64_t opid = op_id(fa.c, it);
    lock(q, opid, 0);
    while (q.count == 0) wait_on(q.not_empty, q, opid, 0);
    const Item& slot = q.slots[q.head];
    const bool stop = slot.stop;
    const bool timed = slot.timed;
    const std::uint64_t t_push = slot.t_push;
    const std::uint32_t len = slot.len;
    if (!stop) std::memcpy(buf.data(), slot.data, len <= kMaxItem ? len : 0);
    q.head = (q.head + 1) % kQueueCap;
    --q.count;
    q.not_full.signal();
    q.mu.unlock();
    if (stop) break;
    const std::uint64_t t1 = now_ns();
    const bool ok = len == want.len &&
                    std::memcmp(buf.data(), sh.ref->data() + want.off, len) == 0;
    if (timed) {
      tally.count(ok, t1 - t_push, len);
    } else if (!ok) {
      sh.r->fail_check("mn_sync: bad handoff during warm-up");
    }
  }
  sh.r->merge(std::move(tally));
  return nullptr;
}

void* echo(void* p) {
  const FiberArg& fa = *static_cast<FiberArg*>(p);
  Shared& sh = *fa.sh;
  Rng mirror = client_rng(sh.o->seed, fa.c);
  std::vector<std::uint8_t> buf(kMaxPing);
  for (std::uint64_t it = 0;; ++it) {
    MnOp ping{};
    it = next_of(mirror, it, Kind::PingPong, &ping);
    const std::uint64_t opid = op_id(fa.c, it);
    NxWait w{sh.ep1, sh.ep1->irecv(0, 0, fa.c, ~0, buf.data(), buf.size())};
    nx_wait(w, opid, 0);
    if (w.hdr.len == 0) break;  // the client's stop message
    nx_send(*sh.ep1, 0, fa.c, buf.data(), w.hdr.len, opid, 0);
  }
  return nullptr;
}

void push(Shared& sh, int c, const Item& src, std::uint64_t opid,
          std::uint64_t parent) {
  Queue& q = sh.queues[c];
  lock(q, opid, parent);
  while (q.count == kQueueCap) wait_on(q.not_full, q, opid, parent);
  Item& slot = q.slots[(q.head + q.count) % kQueueCap];
  slot.t_push = src.t_push;
  slot.len = src.len;
  slot.timed = src.timed;
  slot.stop = src.stop;
  std::memcpy(slot.data, src.data, src.len);
  ++q.count;
  q.not_empty.signal();
  q.mu.unlock();
}

void* client(void* p) {
  const FiberArg& fa = *static_cast<FiberArg*>(p);
  Shared& sh = *fa.sh;
  lwt::Scheduler& sched = *lwt::Scheduler::current();
  Rng rng = client_rng(sh.o->seed, fa.c);
  Tally tally;
  Item item;
  std::vector<std::uint8_t> pong(kMaxPing);
  bool timed = false;
  std::uint64_t it = 0;
  for (;; ++it) {
    if (it == kWarmup) {
      sh.win->fiber_ready();
      timed = true;
    }
    if (timed && sh.win->expired()) break;
    const MnOp op = draw(rng);
    const std::uint64_t opid = op_id(fa.c, it);
    const std::uint8_t* want = sh.ref->data() + op.off;
    switch (op.kind) {
      case Kind::Handoff: {
        Span root(SpanName::MnHandoff, opid);
        item.len = static_cast<std::uint32_t>(op.len);
        item.timed = timed;
        std::memcpy(item.data, want, op.len);
        maybe_corrupt(*sh.o, it, item.data, op.len);
        item.t_push = now_ns();
        push(sh, fa.c, item, opid, root.id());
        continue;  // the consumer verifies and times it
      }
      case Kind::SpawnJoin: {
        const std::uint64_t t0 = now_ns();
        void* rv = nullptr;
        {
          Span root(SpanName::MnSpawnJoin, opid);
          lwt::Tcb* t = nullptr;
          {
            Span s(SpanName::LwtSpawn, opid, root.id());
            t = sched.spawn(&short_fiber, reinterpret_cast<void*>(op.arg));
          }
          Span s(SpanName::LwtJoin, opid, root.id());
          rv = sched.join(t);
        }
        const std::uint64_t t1 = now_ns();
        const bool ok =
            reinterpret_cast<std::uintptr_t>(rv) == op.arg * 2 + 1;
        if (timed) {
          tally.count(ok, t1 - t0, 0);
        } else if (!ok) {
          sh.r->fail_check("mn_sync: bad join value during warm-up");
        }
        break;
      }
      case Kind::PingPong: {
        const std::uint64_t t0 = now_ns();
        bool ok = false;
        {
          Span root(SpanName::MnPingPong, opid);
          NxWait w{sh.ep0, sh.ep0->irecv(0, 1, fa.c, ~0, pong.data(),
                                         pong.size())};
          const std::uint8_t* src = want;
          std::vector<std::uint8_t> bad;
          if (sh.o->corrupt_every != 0) {
            bad.assign(want, want + op.len);
            maybe_corrupt(*sh.o, it, bad.data(), op.len);
            src = bad.data();
          }
          nx_send(*sh.ep0, 1, fa.c, src, op.len, opid, root.id());
          nx_wait(w, opid, root.id());
          ok = w.hdr.len == op.len &&
               std::memcmp(pong.data(), want, op.len) == 0;
        }
        const std::uint64_t t1 = now_ns();
        if (timed) {
          tally.count(ok, t1 - t0, 2 * op.len);
        } else if (!ok) {
          sh.r->fail_check("mn_sync: bad echo during warm-up");
        }
        break;
      }
    }
  }
  // The stop messages go where the consumer and the echo fiber expect
  // the next handoff and ping, and carry those ops' ids: ops the client
  // never issues, so no span of a real op shares them.
  MnOp unused{};
  Rng rest = rng;
  item.stop = true;
  item.len = 0;
  push(sh, fa.c, item, op_id(fa.c, next_of(rest, it, Kind::Handoff, &unused)),
       0);
  rest = rng;
  nx_send(*sh.ep0, 1, fa.c, nullptr, 0,
          op_id(fa.c, next_of(rest, it, Kind::PingPong, &unused)), 0);
  sh.r->merge(std::move(tally));
  return nullptr;
}

void* mn_main(void* p) {
  Shared& sh = *static_cast<Shared*>(p);
  lwt::Scheduler& sched = *lwt::Scheduler::current();
  FiberArg args[kClients];
  std::vector<lwt::Tcb*> clients, others;
  for (int c = 0; c < kClients; ++c) {
    args[c] = {&sh, c};
    others.push_back(sched.spawn(&consumer, &args[c]));
    others.push_back(sched.spawn(&echo, &args[c]));
    clients.push_back(sched.spawn(&client, &args[c]));
  }
  const auto snap = [&] {
    Counts k;
    k.add(sched.stats());
    k.add(sh.ep0->counters());
    k.add(sh.ep1->counters());
    return k;
  };
  const Counts start = sh.win->open(snap);
  for (lwt::Tcb* t : clients) sched.join(t);
  for (lwt::Tcb* t : others) sched.join(t);
  sh.win->close(snap() - start, *sh.r);
  return nullptr;
}

nx::Machine::Config machine_config() {
  nx::Machine::Config mc;
  mc.pes = 1;
  mc.processes_per_pe = 2;
  mc.transport_spec = nx::TransportSpec::shmring();
  return mc;
}

}  // namespace

Stamp mn_sync_stamp() {
  // Workers are left to the OS: pinning them to distinct CPUs widened
  // the run-to-run spread here (chantbench/README.md, "Thread placement").
  return {machine_config().transport_spec.to_string(),
          "Scheduler polls (WQ), nx waits", kWorkers,
          placement_string({}, "worker")};
}

std::uint64_t mn_sync_inputs(std::uint64_t seed, int n) {
  Digest d;
  for (int c = 0; c < kClients; ++c) {
    Rng r = client_rng(seed, c);
    for (int i = 0; i < n; ++i) {
      const MnOp op = draw(r);
      d.add(static_cast<std::uint64_t>(op.kind));
      d.add(op.len);
      d.add(op.off);
      d.add(op.arg);
    }
  }
  return d.h;
}

void mn_sync_round(const Options& o, const RefBlock& ref, Round& r) {
  Window win(1, kClients, o.seconds / o.rounds, now_ns());
  nx::Machine m(machine_config());
  lwt::Scheduler sched;
  sched.set_workers(kWorkers);
  auto sh = std::make_unique<Shared>();
  sh->o = &o;
  sh->ref = &ref;
  sh->win = &win;
  sh->r = &r;
  sh->ep0 = &m.endpoint(0, 0);
  sh->ep1 = &m.endpoint(0, 1);
  sched.run_main(&mn_main, sh.get());
  check_handles(r, sh->ep0->posted_count() + sh->ep1->posted_count(),
                "mn_sync");
  check_conservation(m, r);
}

}  // namespace cb
