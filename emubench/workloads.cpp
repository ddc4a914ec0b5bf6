// The benchmark's workloads, assembled from the emulator's public pieces.
//
// Each round builds a fresh MorelloTestbed, its compartments and a far-end
// peer the benchmark owns (the stock PeerHost discards what it receives),
// moves a fixed seeded payload, checks every byte on the receiving side and
// reads each layer's public counters. The measured phase of a round runs
// from the first payload byte any stream queued to the last byte every
// stream delivered; set-up covers the testbed, compartments, peers and
// connection establishment before it.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "apps/ff_ops.hpp"
#include "apps/uring_proto.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "fstack/uring.hpp"
#include "machine/context.hpp"
#include "nic/shared_bus.hpp"
#include "scenarios/baseline.hpp"
#include "scenarios/experiment.hpp"
#include "scenarios/scenario1.hpp"
#include "scenarios/scenario2.hpp"
#include "trace.hpp"

namespace emubench {

WrapperCounters& counters() {
  static WrapperCounters c;
  return c;
}

namespace {

using namespace cherinet;
using trace::Name;
using trace::now_ns;

constexpr std::size_t kChunk = 1448;       // one payload chunk = one MSS
constexpr std::size_t kRxBuf = 64 * 1024;  // receive buffer per app
constexpr std::uint16_t kPort = 5201;
constexpr sim::Ns kHeartbeat{500'000};     // peer idle heartbeat (virtual)
constexpr sim::Ns kAppHeartbeat{1'000'000};  // app idle heartbeat (virtual)
constexpr sim::Ns kPace{20'000};           // paper's S2 probe interval
constexpr std::uint32_t kSqSlots = 64;
constexpr std::uint32_t kCqSlots = 128;

// Inputs of one round of each workload.
constexpr std::uint64_t kBulkBytes = 3u << 20;   // per stream and direction
constexpr std::size_t kProbeWrites = 10000;      // measured writes per probe
// Zero-copy TX moves short flows that each fit the default 512 KiB send
// buffer: longer ones hit two faults of the ring TX pipeline (see README).
constexpr int kRingTxFlows = 8;
constexpr std::uint64_t kRingFlowBytes = 256u << 10;
constexpr std::uint64_t kRingRxBytes = 2u << 20;

bool tracing() { return trace::Tracer::get().on(); }

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

sim::Ns capped(const std::optional<sim::Ns>& d, sim::Ns now, sim::Ns h) {
  const sim::Ns cap = now + h;
  return d && *d < cap ? *d : cap;
}

std::uint64_t chunks_of(std::uint64_t bytes) {
  return (bytes + kChunk - 1) / kChunk;
}

// ---------------------------------------------------------------- timing
// wrappers around the calls the benchmark makes into the sim and fstack
// layers (spans and counters only while tracing).

bool timed_wait(sim::Participant& p, std::uint64_t token,
                std::optional<sim::Ns> deadline) {
  if (!tracing()) return p.wait(token, deadline);
  trace::Span s(Name::kArbiterWait);
  const bool r = p.wait(token, deadline);
  counters().arbiter_waits.fetch_add(1, std::memory_order_relaxed);
  counters().arbiter_wait_ns.fetch_add(s.elapsed(), std::memory_order_relaxed);
  return r;
}

bool run_once(scen::FullStackInstance& inst) {
  if (!tracing()) return inst.run_once();
  trace::Span s(Name::kRunOnce);
  const bool r = inst.run_once();
  auto& c = counters();
  c.run_once_calls.fetch_add(1, std::memory_order_relaxed);
  c.run_once_busy_ns.fetch_add(s.elapsed(), std::memory_order_relaxed);
  if (r) c.run_once_useful.fetch_add(1, std::memory_order_relaxed);
  return r;
}

/// Timing decorator around every app -> stack call (the apps layer's
/// boundary). Installed only in traced runs.
class TracedOps final : public apps::FfOps {
 public:
  explicit TracedOps(apps::FfOps& in) : in_(in) {}

  int socket_stream() override {
    return call(Name::kFfSocket, [&] { return in_.socket_stream(); });
  }
  int bind(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return call(Name::kFfBind, [&] { return in_.bind(fd, ip, port); });
  }
  int listen(int fd, int backlog) override {
    return call(Name::kFfListen, [&] { return in_.listen(fd, backlog); });
  }
  int accept(int fd) override {
    return call(Name::kFfAccept, [&] { return in_.accept(fd); });
  }
  int connect(int fd, fstack::Ipv4Addr ip, std::uint16_t port) override {
    return call(Name::kFfConnect, [&] { return in_.connect(fd, ip, port); });
  }
  std::int64_t write(int fd, const machine::CapView& buf,
                     std::size_t n) override {
    return call(Name::kFfWrite, [&] { return in_.write(fd, buf, n); });
  }
  std::int64_t read(int fd, const machine::CapView& buf,
                    std::size_t n) override {
    return call(Name::kFfRead, [&] { return in_.read(fd, buf, n); });
  }
  std::int64_t writev(int fd, std::span<const fstack::FfIovec> iov) override {
    return call(Name::kFfWritev, [&] { return in_.writev(fd, iov); });
  }
  std::int64_t readv(int fd, std::span<const fstack::FfIovec> iov) override {
    return call(Name::kFfReadv, [&] { return in_.readv(fd, iov); });
  }
  int accept_batch(int fd, std::span<int> out) override {
    return call(Name::kFfAcceptBatch,
                [&] { return in_.accept_batch(fd, out); });
  }
  int zc_alloc(std::size_t len, fstack::FfZcBuf* out) override {
    return call(Name::kFfZc, [&] { return in_.zc_alloc(len, out); });
  }
  std::int64_t zc_send(int fd, fstack::FfZcBuf& zc, std::size_t len,
                       const fstack::FfSockAddrIn& to) override {
    return call(Name::kFfZc, [&] { return in_.zc_send(fd, zc, len, to); });
  }
  int zc_abort(fstack::FfZcBuf& zc) override {
    return call(Name::kFfZc, [&] { return in_.zc_abort(zc); });
  }
  std::int64_t zc_recv(int fd, std::span<fstack::FfZcRxBuf> out) override {
    return call(Name::kFfZc, [&] { return in_.zc_recv(fd, out); });
  }
  std::int64_t zc_recycle_batch(std::span<fstack::FfZcRxBuf> zcs) override {
    return call(Name::kFfZc, [&] { return in_.zc_recycle_batch(zcs); });
  }
  int uring_attach(const machine::CapView& mem, std::uint32_t sq,
                   std::uint32_t cq) override {
    return call(Name::kFfUring, [&] { return in_.uring_attach(mem, sq, cq); });
  }
  int uring_detach(int id) override {
    return call(Name::kFfUring, [&] { return in_.uring_detach(id); });
  }
  int uring_doorbell(int id) override {
    return call(Name::kFfUring, [&] { return in_.uring_doorbell(id); });
  }
  int epoll_wait_multishot(int epfd, const machine::CapView& ring,
                           std::uint32_t capacity) override {
    return call(Name::kFfEpoll, [&] {
      return in_.epoll_wait_multishot(epfd, ring, capacity);
    });
  }
  int epoll_cancel_multishot(int epfd) override {
    return call(Name::kFfEpoll,
                [&] { return in_.epoll_cancel_multishot(epfd); });
  }
  int set_class(int fd, std::uint32_t cls) override {
    return call(Name::kFfOther, [&] { return in_.set_class(fd, cls); });
  }
  int close(int fd) override {
    return call(Name::kFfClose, [&] { return in_.close(fd); });
  }
  int epoll_create() override {
    return call(Name::kFfEpoll, [&] { return in_.epoll_create(); });
  }
  int epoll_ctl(int epfd, fstack::EpollOp op, int fd, std::uint32_t events,
                std::uint64_t data) override {
    return call(Name::kFfEpoll, [&] {
      return in_.epoll_ctl(epfd, op, fd, events, data);
    });
  }
  int epoll_wait(int epfd, std::span<fstack::FfEpollEvent> out) override {
    return call(Name::kFfEpoll, [&] { return in_.epoll_wait(epfd, out); });
  }

 private:
  template <typename F>
  auto call(Name n, F&& f) -> decltype(f()) {
    trace::Span s(n);
    const auto r = f();
    auto& c = counters();
    c.ffops_calls.fetch_add(1, std::memory_order_relaxed);
    c.ffops_busy_ns.fetch_add(s.elapsed(), std::memory_order_relaxed);
    if (r == -EAGAIN) {
      c.ffops_would_block.fetch_add(1, std::memory_order_relaxed);
    } else if (r >= 0) {
      c.ffops_useful.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  }

  apps::FfOps& in_;
};

/// The app's view of the stack: the binding itself, or the timing
/// decorator around it in a traced run.
struct AppOps {
  explicit AppOps(apps::FfOps& in) {
    if (tracing()) traced = std::make_unique<TracedOps>(in);
    ops = traced ? traced.get() : &in;
  }
  std::unique_ptr<TracedOps> traced;
  apps::FfOps* ops;
};

// ---------------------------------------------------------------- round
// infrastructure

/// Failures raised on simulation threads, collected for the round.
class Errors {
 public:
  void add(std::string e) {
    std::lock_guard lk(mu_);
    v_.push_back(std::move(e));
  }
  [[nodiscard]] bool any() const {
    std::lock_guard lk(mu_);
    return !v_.empty();
  }
  [[nodiscard]] std::vector<std::string> take() {
    std::lock_guard lk(mu_);
    return std::move(v_);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> v_;
};

/// The measured phase of a round: from the first payload byte any of its
/// streams queued to the last byte every stream delivered, on both clocks.
class Phase {
 public:
  Phase(sim::VirtualClock& clock, int streams)
      : clock_(clock), remaining_(streams) {}

  void first_byte() {
    std::call_once(begun_, [this] {
      rss_ = peak_rss_mib();
      host0_ = now_ns();
      cpu0_ = process_cpu_s();
      v0_ = clock_.now();
    });
  }
  void last_byte() {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      host1_ = now_ns();
      cpu1_ = process_cpu_s();
      v1_ = clock_.now();
    }
  }
  // Read after every thread of the round has joined.
  [[nodiscard]] bool complete() const { return remaining_.load() == 0; }
  [[nodiscard]] double host0_s() const { return host0_ / 1e9; }
  [[nodiscard]] double host1_s() const { return host1_ / 1e9; }
  [[nodiscard]] double host_s() const { return (host1_ - host0_) / 1e9; }
  [[nodiscard]] double cpu_s() const { return cpu1_ - cpu0_; }
  [[nodiscard]] double virtual_ns() const {
    return static_cast<double>((v1_ - v0_).count());
  }
  [[nodiscard]] double rss_mib() const { return rss_; }

 private:
  sim::VirtualClock& clock_;
  std::once_flag begun_;
  std::atomic<int> remaining_;
  double rss_ = 0.0;
  std::uint64_t host0_ = 0, host1_ = 0;
  double cpu0_ = 0.0, cpu1_ = 0.0;
  sim::Ns v0_{0}, v1_{0};
};

enum class Side : std::uint8_t { kStack, kApp, kPeer };

/// Wrap a thread body: name its trace log, contain exceptions (a failed
/// body stops the round), and charge its thread CPU time and compartment
/// context switches to the scenarios / machine counters.
std::function<void()> body(std::string name, Side side, Errors& errs,
                           std::atomic<bool>& stop, sim::TimeArbiter& arb,
                           std::function<void()> fn) {
  return [name = std::move(name), side, &errs, &stop, &arb,
          fn = std::move(fn)] {
    trace::Tracer::get().name_thread(name);
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t sw0 = machine::ExecutionContext::switch_count();
    {
      trace::Span s(Name::kBody);
      try {
        fn();
      } catch (const std::exception& e) {
        errs.add(name + ": " + e.what());
        stop.store(true, std::memory_order_release);
        arb.kick();
      }
    }
    if (!tracing()) return;
    auto& c = counters();
    const std::uint64_t cpu = thread_cpu_ns() - cpu0;
    if (side == Side::kStack) c.stack_cpu_ns.fetch_add(cpu);
    if (side == Side::kApp) c.app_cpu_ns.fetch_add(cpu);
    c.context_switches.fetch_add(machine::ExecutionContext::switch_count() -
                                 sw0);
  };
}

/// The emulated testbed of one round. The testbed keeps its PCI bus
/// private, so the Morello side of each wire is re-attached to an
/// identical bus the benchmark can read.
struct Rig {
  Rig()
      : bus(scen::TestbedOptions{}.phys.bus_rx_bits_per_sec,
            scen::TestbedOptions{}.phys.bus_tx_bits_per_sec) {
    for (int i = 0; i < 2; ++i) tb.wire(i).set_bus(0, &bus);
  }
  nic::SharedBus bus;
  scen::MorelloTestbed tb;
  std::atomic<bool> stop{false};
  Errors errs;
};

/// The far-end host of one wire, built from the same public pieces as
/// scen::PeerHost but driving benchmark-owned apps that keep and check
/// every byte they receive.
class Peer {
 public:
  Peer(Rig& rig, int port)
      : rig_(rig), name_("peer" + std::to_string(port)) {
    auto& as = rig.tb.intravisor().address_space();
    card_ = std::make_unique<nic::E82576Device>(
        &as.mem(), &rig.tb.clock(),
        std::array<nic::MacAddr, 2>{nic::MacAddr::local(200),
                                    nic::MacAddr::local(201)});
    card_->connect(0, &rig.tb.wire(port), 1);
    heap_ = std::make_unique<machine::CompartmentHeap>(
        &as.mem(),
        as.carve(32u << 20, cheri::PermSet::data_rw(), name_ + "-heap"));
    inst_ = std::make_unique<scen::FullStackInstance>(
        *card_, 0, *heap_, rig.tb.clock(), rig.tb.peer_cfg(port));
    ops_ = std::make_unique<apps::DirectFfOps>(&inst_->stack());
  }
  ~Peer() {
    rig_.stop.store(true, std::memory_order_release);
    rig_.tb.arbiter().kick();
    join();
  }
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  [[nodiscard]] apps::FfOps& ops() { return *ops_; }
  [[nodiscard]] fstack::FfStack& stack() { return inst_->stack(); }
  [[nodiscard]] machine::CapView alloc(std::size_t n) {
    return heap_->alloc_view(n);
  }

  /// Run the peer's main loop: the stack, then `step` (its apps).
  void start(std::function<bool()> step) {
    thread_ = std::thread(body(
        name_, Side::kPeer, rig_.errs, rig_.stop, rig_.tb.arbiter(),
        [this, step = std::move(step)] {
          sim::Participant part(rig_.tb.arbiter(), name_);
          auto& clock = rig_.tb.clock();
          while (!rig_.stop.load(std::memory_order_acquire)) {
            const std::uint64_t token = part.prepare();
            bool progress = run_once(*inst_);
            progress |= step();
            if (progress) continue;
            timed_wait(part, token,
                       capped(inst_->next_deadline(), clock.now(),
                              kHeartbeat));
          }
        }));
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  Rig& rig_;
  std::string name_;
  std::unique_ptr<nic::E82576Device> card_;
  std::unique_ptr<machine::CompartmentHeap> heap_;
  std::unique_ptr<scen::FullStackInstance> inst_;
  std::unique_ptr<apps::DirectFfOps> ops_;
  std::thread thread_;
};

// ---------------------------------------------------------------- apps

/// Closed-loop v1 sender: connects, then ff_writes the seeded stream one
/// chunk per call (the next call only after the previous one returned)
/// until `total` bytes are queued, then closes. With `time_writes` it keeps
/// the host time of every call that queued bytes.
class Sender {
 public:
  Sender(apps::FfOps& ops, fstack::Ipv4Addr dst, std::uint16_t port,
         std::uint64_t total, machine::CapView buf, std::uint64_t key,
         Phase* phase, bool time_writes)
      : ops_(ops),
        total_(total),
        buf_(buf),
        key_(key),
        phase_(phase),
        time_writes_(time_writes) {
    fd_ = ops_.socket_stream();
    ops_.connect(fd_, dst, port);
  }

  bool step() {
    if (done_.load(std::memory_order_relaxed)) return false;
    bool progress = false;
    std::byte tmp[kChunk];
    while (sent_ < total_) {
      const std::size_t n = std::min<std::uint64_t>(kChunk, total_ - sent_);
      if (filled_ != sent_) {
        fill_pattern(key_, sent_, {tmp, n});
        buf_.write(0, {tmp, n});
        filled_ = sent_;
      }
      trace::set_op(sent_ / kChunk);
      const std::uint64_t t0 = time_writes_ ? now_ns() : 0;
      const std::int64_t r = ops_.write(fd_, buf_, n);
      if (r <= 0) return progress;
      if (time_writes_) op_ns_.push_back(static_cast<double>(now_ns() - t0));
      if (sent_ == 0 && phase_ != nullptr) phase_->first_byte();
      sent_ += static_cast<std::uint64_t>(r);
      progress = true;
    }
    ops_.close(fd_);
    done_.store(true, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::vector<double>& op_ns() { return op_ns_; }

 private:
  apps::FfOps& ops_;
  std::uint64_t total_;
  machine::CapView buf_;
  std::uint64_t key_;
  Phase* phase_;
  bool time_writes_;
  int fd_ = -1;
  std::uint64_t sent_ = 0;
  std::uint64_t filled_ = ~std::uint64_t{0};
  std::atomic<bool> done_{false};
  std::vector<double> op_ns_;
};

/// v1 receiver: listens, accepts one connection, reads until EOF and
/// checks every byte against the stream's pattern. `expect` > 0 marks the
/// phase's last byte when that many bytes arrived; 0 marks it at EOF.
class Receiver {
 public:
  Receiver(apps::FfOps& ops, std::uint16_t port, machine::CapView buf,
           std::uint64_t key, std::uint64_t expect, Phase* phase)
      : ops_(ops),
        buf_(buf),
        tmp_(buf.size()),
        check_(key),
        expect_(expect),
        phase_(phase) {
    lfd_ = ops_.socket_stream();
    ops_.bind(lfd_, fstack::Ipv4Addr{}, port);
    ops_.listen(lfd_, 4);
    ep_ = ops_.epoll_create();
    ops_.epoll_ctl(ep_, fstack::EpollOp::kAdd, lfd_, fstack::kEpollIn,
                   static_cast<std::uint64_t>(lfd_));
  }

  bool step() {
    if (done()) return false;
    bool progress = false;
    fstack::FfEpollEvent evs[8];
    const int n = ops_.epoll_wait(ep_, evs);
    for (int i = 0; i < n && !done(); ++i) {
      const int fd = static_cast<int>(evs[i].data);
      if (fd == lfd_ && cfd_ < 0) {
        cfd_ = ops_.accept(lfd_);
        if (cfd_ < 0) continue;
        ops_.epoll_ctl(ep_, fstack::EpollOp::kAdd, cfd_,
                       fstack::kEpollIn | fstack::kEpollHup,
                       static_cast<std::uint64_t>(cfd_));
        progress = true;
        progress |= drain();
      } else if (fd == cfd_) {
        progress |= drain();
      }
    }
    return progress;
  }

  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const StreamCheck& check() const { return check_; }

 private:
  bool drain() {
    bool progress = false;
    while (true) {
      const std::int64_t r = ops_.read(cfd_, buf_, buf_.size());
      if (r > 0) {
        const auto n = static_cast<std::size_t>(r);
        buf_.read(0, {tmp_.data(), n});
        check_.feed({tmp_.data(), n});
        if (expect_ > 0 && !marked_ && check_.received() >= expect_) {
          marked_ = true;
          if (phase_ != nullptr) phase_->last_byte();
        }
        progress = true;
        continue;
      }
      if (r == 0) {
        if (expect_ == 0 && phase_ != nullptr) phase_->last_byte();
        ops_.close(cfd_);
        ops_.close(ep_);
        ops_.close(lfd_);
        done_.store(true, std::memory_order_release);
        return true;
      }
      return progress;
    }
  }

  apps::FfOps& ops_;
  machine::CapView buf_;
  std::vector<std::byte> tmp_;
  StreamCheck check_;
  std::uint64_t expect_;
  Phase* phase_;
  int lfd_ = -1;
  int ep_ = -1;
  int cfd_ = -1;
  bool marked_ = false;
  std::atomic<bool> done_{false};
};

// ---------------------------------------------------------------- probes

/// Fig. 4 probe for an endpoint that owns its stack (Baseline, Scenario
/// 1): measured ff_write calls interleaved with main-loop iterations,
/// timed through the endpoint's own clock_gettime path as in the paper.
void probe_direct(scen::FullStackInstance& inst, apps::FfOps& ops,
                  iv::MuslLibc& libc, Rig& rig, fstack::Ipv4Addr dst,
                  machine::CapView buf, std::uint64_t key, Phase& phase,
                  const std::string& name, std::vector<double>& samples,
                  std::uint64_t& sent) {
  auto& clock = rig.tb.clock();
  const int fd = ops.socket_stream();
  ops.connect(fd, dst, kPort);
  sim::Participant part(rig.tb.arbiter(), name);
  std::byte tmp[kChunk];
  std::uint64_t filled = ~std::uint64_t{0};
  while (samples.size() < kProbeWrites && !rig.stop.load()) {
    const std::uint64_t token = part.prepare();
    if (filled != sent) {
      fill_pattern(key, sent, tmp);
      buf.write(0, tmp);
      filled = sent;
    }
    trace::set_op(samples.size());
    const std::uint64_t t0 = libc.clock_gettime_mono_raw_ns();
    const std::int64_t r = ops.write(fd, buf, kChunk);
    const std::uint64_t t1 = libc.clock_gettime_mono_raw_ns();
    bool progress = false;
    if (r > 0) {
      if (sent == 0) phase.first_byte();
      samples.push_back(static_cast<double>(t1 - t0));
      sent += static_cast<std::uint64_t>(r);
      progress = true;
    }
    progress |= run_once(inst);
    if (!progress) {
      timed_wait(part, token,
                 capped(inst.next_deadline(), clock.now(), kAppHeartbeat));
    }
  }
  ops.close(fd);
  // Keep the stack running until the round stops: the far end still needs
  // every queued byte, and its FIN needs an ACK (left unanswered, the peer
  // would retransmit it on a clean wire).
  while (!rig.stop.load()) {
    const std::uint64_t token = part.prepare();
    if (!run_once(inst)) {
      timed_wait(part, token,
                 capped(inst.next_deadline(), clock.now(), kAppHeartbeat));
    }
  }
}

/// Fig. 5 probe in a Scenario 2 app compartment. Each write is issued only
/// once the 20 us pace has elapsed on the virtual clock: a kick that ends
/// Participant::wait early re-parks until the deadline.
void probe_proxy(apps::FfOps& ops, iv::MuslLibc& libc, Rig& rig,
                 machine::CapView buf, std::uint64_t key, Phase& phase,
                 const Receiver& far, std::vector<double>& samples,
                 std::uint64_t& sent) {
  auto& clock = rig.tb.clock();
  const int fd = ops.socket_stream();
  ops.connect(fd, scen::MorelloTestbed::peer_ip(0), kPort);
  sim::Participant part(rig.tb.arbiter(), "cVM2-probe");
  std::byte tmp[kChunk];
  std::uint64_t filled = ~std::uint64_t{0};
  int spins = 0;
  while (samples.size() < kProbeWrites && !rig.stop.load()) {
    const std::uint64_t token = part.prepare();
    if (filled != sent) {
      fill_pattern(key, sent, tmp);
      buf.write(0, tmp);
      filled = sent;
    }
    trace::set_op(samples.size());
    const std::uint64_t t0 = libc.clock_gettime_mono_raw_ns();
    const std::int64_t r = ops.write(fd, buf, kChunk);
    const std::uint64_t t1 = libc.clock_gettime_mono_raw_ns();
    if (r > 0) {
      if (sent == 0) phase.first_byte();
      samples.push_back(static_cast<double>(t1 - t0));
      sent += static_cast<std::uint64_t>(r);
      spins = 0;
      const sim::Ns due = clock.now() + kPace;
      while (!rig.stop.load()) {
        const std::uint64_t t = part.prepare();
        if (clock.now() >= due) break;
        timed_wait(part, t, due);
      }
    } else if (++spins < 64) {
      continue;  // the loop has not had host CPU yet: retry at once
    } else {
      spins = 0;  // genuine flow control (or the handshake): step time
      timed_wait(part, token, clock.now() + sim::Ns{200});
    }
  }
  ops.close(fd);
  while (!far.done() && !rig.stop.load()) {
    const std::uint64_t token = part.prepare();
    if (far.done()) break;
    timed_wait(part, token, clock.now() + kAppHeartbeat);
  }
}

// ---------------------------------------------------------------- rings

/// What the ring apps count, and the host time of every turn that moved
/// work (pushed SQEs or reaped CQEs): the ring's analogue of one ff_write.
struct RingCounts {
  std::uint64_t sqes = 0, cqes = 0, doorbells = 0, useful = 0;
  std::vector<double> turn_ns;
  void publish() const {
    auto& c = counters();
    c.ring_sqes.fetch_add(sqes);
    c.ring_cqes.fetch_add(cqes);
    c.ring_doorbells.fetch_add(doorbells);
    c.ring_useful_sqes.fetch_add(useful);
  }
};

/// Zero-copy TX through the ring (OP_ZC_ALLOC / OP_ZC_SEND via the shared
/// UringZcTxProto), driven like the library's own ring apps: re-poll while
/// completions arrive, park when a turn reaped nothing. One ring carries
/// kRingTxFlows connections in turn (the next one starts once the stack has
/// accepted the last byte of the previous one); the app composes each
/// flow's seeded payload straight into the granted data rooms.
void ring_tx(apps::FfOps& ops, iv::CVM& app, Rig& rig,
             sim::Participant& part, std::uint64_t seed, std::uint64_t round,
             Phase& phase, RingCounts& rc) {
  auto& clock = rig.tb.clock();
  const machine::CapView mem =
      app.alloc(fstack::FfUring::bytes_for(kSqSlots, kCqSlots));
  fstack::FfUring ring(mem, kSqSlots, kCqSlots);
  const int id = ops.uring_attach(mem, kSqSlots, kCqSlots);
  if (id < 0) throw std::runtime_error("uring_attach failed (TX)");
  std::vector<std::byte> tmp(kChunk);
  fstack::FfUringDoorbellPolicy bell;
  for (int k = 0; k < kRingTxFlows && !rig.stop.load(); ++k) {
    const int fd = ops.socket_stream();
    ops.connect(fd, scen::MorelloTestbed::peer_ip(0),
                static_cast<std::uint16_t>(kPort + k));
    const int ep = ops.epoll_create();
    ops.epoll_ctl(ep, fstack::EpollOp::kAdd, fd, fstack::kEpollOut, 1);
    while (!rig.stop.load()) {
      const std::uint64_t token = part.prepare();
      fstack::FfEpollEvent ev[1];
      if (ops.epoll_wait(ep, ev) > 0 && (ev[0].events & fstack::kEpollOut)) {
        break;
      }
      timed_wait(part, token, clock.now() + kAppHeartbeat);
    }
    phase.first_byte();
    const std::uint64_t key = stream_key(seed, round, 1 + k);
    std::uint64_t filled = 0;
    apps::UringZcTxProto proto(
        &ring, fd, kChunk,
        [&](const machine::CapView& room, std::size_t len) {
          tmp.resize(len);
          fill_pattern(key, filled, tmp);
          room.write(0, tmp);
          filled += len;
        });
    while (proto.acked() < kRingFlowBytes && !proto.failed() &&
           !rig.stop.load()) {
      trace::Span turn(Name::kRingTurn);
      const std::uint64_t t0 = now_ns();
      const std::uint64_t token = part.prepare();
      const std::uint32_t pushed = proto.pump(kRingFlowBytes);
      rc.sqes += pushed;
      bool progress = pushed > 0;
      fstack::FfUringCqe cq[16];
      const std::size_t n = ring.cq_pop(cq);
      for (std::size_t i = 0; i < n; ++i) {
        const fstack::FfUringCqe& c = cq[i];
        rc.cqes++;
        progress = true;
        // A grant or an accepted send is useful; -EAGAIN and -ENOBUFS
        // answers are not.
        if ((c.op == fstack::UringOp::kZcAlloc ||
             c.op == fstack::UringOp::kZcSend) &&
            c.result > 0) {
          rc.useful++;
        }
        proto.on_cqe(c);
      }
      if (progress) rc.turn_ns.push_back(static_cast<double>(now_ns() - t0));
      if (bell.should_ring(ring, progress)) {
        ops.uring_doorbell(id);
        rc.doorbells++;
      }
      if (!progress) timed_wait(part, token, clock.now() + kAppHeartbeat);
    }
    if (proto.failed()) throw std::runtime_error("zc TX pipeline failed");
    ops.close(ep);
    ops.close(fd);
  }
  ops.uring_detach(id);
}

/// Zero-copy RX through the ring: OP_ACCEPT_MULTISHOT, OP_EPOLL_ARM,
/// OP_ZC_RECV bursts and OP_RECYCLE token batches. Every loan is read
/// through its capability and checked before it is recycled.
void ring_rx(apps::FfOps& ops, iv::CVM& app, Rig& rig,
             sim::Participant& part, int lfd, Phase& phase,
             StreamCheck& check, RingCounts& rc) {
  constexpr std::uint64_t kUdAccept = 1;
  constexpr std::uint64_t kUdEpoll = 2;
  auto& clock = rig.tb.clock();
  const int ep = ops.epoll_create();
  const machine::CapView mem =
      app.alloc(fstack::FfUring::bytes_for(kSqSlots, kCqSlots));
  fstack::FfUring ring(mem, kSqSlots, kCqSlots);
  const int id = ops.uring_attach(mem, kSqSlots, kCqSlots);
  if (id < 0) throw std::runtime_error("uring_attach failed (RX)");
  if (apps::push_accept_arm(ring, lfd, kUdAccept)) rc.sqes++;
  if (apps::push_epoll_arm(ring, ep, kUdEpoll)) rc.sqes++;
  fstack::FfUringRecycler recycler(&ring,
                                   apps::classic_recycle_fallback(&ops));

  struct Handler {
    apps::FfOps& ops;
    int ep;
    Phase& phase;
    StreamCheck& check;
    fstack::FfUringRecycler& recycler;
    RingCounts& rc;
    std::vector<std::byte> tmp = std::vector<std::byte>(64 * 1024);
    int cfd = -1;
    bool hot = false, eof = false, inflight = false, loaned = false;
    bool marked = false;

    void on_accept(int fd, const fstack::FfSockAddrIn&) {
      if (cfd >= 0) return;
      cfd = fd;
      ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                    static_cast<std::uint64_t>(cfd));
      hot = true;
    }
    void on_readiness(std::uint32_t mask, std::uint64_t) {
      if ((mask & (fstack::kEpollIn | fstack::kEpollHup)) != 0) hot = true;
    }
    void on_loan(const fstack::FfUringCqe& cqe) {
      const auto len = static_cast<std::size_t>(cqe.result);
      if (tmp.size() < len) tmp.resize(len);
      cqe.cap.read(0, {tmp.data(), len});
      check.feed({tmp.data(), len});
      if (!marked && check.received() >= kRingRxBytes) {
        marked = true;
        phase.last_byte();
      }
      loaned |= len > 0;
      recycler.add(cqe.aux0);
    }
    void on_eof(std::uint64_t) { eof = true; }
    void on_drained(std::uint64_t) { hot = false; }
    void on_coalescing(std::uint64_t) {}
    void on_burst_end(std::uint64_t) {
      inflight = false;
      if (loaned) rc.useful++;
      loaned = false;
    }
  } h{ops, ep, phase, check, recycler, rc};

  fstack::FfUringDoorbellPolicy bell;
  while ((!h.eof || h.inflight) && !rig.stop.load()) {
    trace::Span turn(Name::kRingTurn);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t token = part.prepare();
    bool progress = false;
    fstack::FfUringCqe cq[16];
    const std::size_t n = ring.cq_pop(cq);
    for (std::size_t i = 0; i < n; ++i) {
      rc.cqes++;
      progress = true;
      apps::dispatch_rx_cqe(cq[i], h);
    }
    bool pushed = false;
    if (h.cfd >= 0 && h.hot && !h.inflight && !h.eof &&
        apps::push_zc_recv(ring, h.cfd, fstack::FfUringSqe::kMaxCaps, 0)) {
      rc.sqes++;
      h.inflight = true;
      pushed = true;
    }
    if (progress || pushed) {
      rc.turn_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    if (bell.should_ring(ring, progress)) {
      ops.uring_doorbell(id);
      rc.doorbells++;
    }
    if (!progress) timed_wait(part, token, clock.now() + kAppHeartbeat);
  }
  // Return every outstanding loan and let the stack consume the entries.
  // Completions still arriving meanwhile go through the handler too, so a
  // late loan is checked and recycled like any other.
  for (int spins = 0; spins < 10000 && !rig.stop.load(); ++spins) {
    recycler.flush();
    if (ring.sq_pending() == 0) break;
    const std::uint64_t token = part.prepare();
    fstack::FfUringCqe cq[16];
    const std::size_t n = ring.cq_pop(cq);
    for (std::size_t i = 0; i < n; ++i) {
      rc.cqes++;
      apps::dispatch_rx_cqe(cq[i], h);
    }
    if (n == 0) timed_wait(part, token, clock.now() + kAppHeartbeat);
  }
  recycler.flush_sync();
  rc.sqes += recycler.ring_pushes();
  ops.uring_detach(id);
  if (h.cfd >= 0) ops.close(h.cfd);
  ops.close(ep);
  ops.close(lfd);
}

// ---------------------------------------------------------------- round
// bookkeeping

/// Wait (the main thread only waits) until `done`, a thread failed, or the
/// round overran its host-time budget.
void wait_for(Rig& rig, const std::function<bool()>& done) {
  const auto limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(100);
  while (!done()) {
    if (rig.errs.any()) break;
    if (std::chrono::steady_clock::now() > limit) {
      rig.errs.add("round did not finish within 100 s of host time");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  rig.stop.store(true, std::memory_order_release);
  rig.tb.arbiter().kick();
}

/// Stream verdict into the round: a mismatch fails the output check, a
/// short delivery fails the chunks that never arrived.
void account_stream(RoundResult& out, const std::string& what,
                    const StreamCheck& c, std::uint64_t sent,
                    std::uint64_t planned) {
  const std::uint64_t got = std::min(c.received(), sent);
  const std::uint64_t whole = got >= planned ? chunks_of(planned)
                                             : got / kChunk;
  out.attempted += chunks_of(planned);
  out.failed += chunks_of(planned) - whole;
  const std::string e = check_stream(c, sent);
  if (!e.empty()) out.errors.push_back(what + ": " + e);
}

/// Counters of the Morello-side stack instances and the emulated machine.
void read_layers(RoundResult& out, Rig& rig,
                 const std::vector<fstack::FfStack*>& morello,
                 const std::vector<fstack::FfStack*>& peers,
                 std::uint64_t direct_syscalls) {
  auto& L = out.layer;
  for (fstack::FfStack* st : morello) {
    L["fstack.tx_frames"] += st->stats().tx_frames;
    L["fstack.rx_frames"] += st->stats().rx_frames;
    L["fstack.tx.copied_bytes"] += st->tx_stats().copied_bytes;
    L["fstack.tx.zc_bytes"] += st->tx_stats().zc_bytes;
    L["fstack.tx.stack_checksum_bytes"] += st->tx_stats().stack_checksum_bytes;
    L["fstack.rx.copied_bytes"] += st->rx_stats().copied_bytes;
    L["fstack.rx.loaned_bytes"] += st->rx_stats().loaned_bytes;
    L["fstack.api.uring_drains"] += st->api_stats().uring_drains;
    L["fstack.api.uring_sqe_errors"] += st->api_stats().uring_sqe_errors;
    L["fstack.api.validation_sweeps"] += st->api_stats().validation_sweeps;
    L["fstack.api.zc_rx_loans"] += st->api_stats().zc_rx_loans;
    L["fstack.api.zc_rx_recycles"] += st->api_stats().zc_rx_recycles;
    const updk::EthStats es = st->dev().stats();
    L["updk.tx_bursts"] += es.tx_bursts;
    L["updk.opackets"] += es.opackets;
    L["updk.tx_segs"] += es.tx_segs;
    L["updk.ipackets"] += es.ipackets;
    L["updk.imissed"] += es.imissed;
  }
  for (fstack::FfStack* st : morello) {
    L["fstack.tcp.rexmits"] += st->tcp_recovery_stats().rexmits;
  }
  for (fstack::FfStack* st : peers) {
    L["fstack.tcp.rexmits"] += st->tcp_recovery_stats().rexmits;
  }
  for (int w = 0; w < 2; ++w) {
    for (int side = 0; side < 2; ++side) {
      const nic::Wire::Stats ws = rig.tb.wire(w).stats(side);
      L["nic.wire.tx_frames"] += ws.tx_frames;
      L["nic.wire.tx_bytes"] += ws.tx_bytes;
      L["nic.wire.dropped"] += ws.dropped;
    }
    L["nic.dev.rx_no_desc"] += rig.tb.card().port(w).stats().rx_no_desc;
  }
  L["nic.bus.bytes"] += rig.bus.rx_bytes() + rig.bus.tx_bytes();

  auto& iv = rig.tb.intravisor();
  std::uint64_t tramp = 0;
  std::uint64_t syscalls = 0;
  for (std::size_t i = 0; i < iv.cvm_count(); ++i) {
    tramp += iv.cvm(i).trampoline().crossings();
    syscalls += iv.cvm(i).libc().syscall_count();
  }
  const std::uint64_t entries = iv.entries().crossings();
  L["intravisor.trampoline.crossings"] += tramp;
  L["intravisor.sealed_entry.crossings"] += entries;
  L["intravisor.syscalls"] += syscalls;
  L["host.umtx.sleeps"] += iv.host().umtx().sleeps();
  // Modeled: crossing counts priced by the Morello CostModel, the same
  // prices the library's censuses use.
  const sim::CostModel price = sim::CostModel::morello();
  const double tramp_ns =
      static_cast<double>(price.trampoline_crossing().count());
  L["sim.modeled_crossing_ns"] +=
      static_cast<double>(tramp) * tramp_ns +
      static_cast<double>(entries) *
          (tramp_ns + static_cast<double>(price.domain_switch_extra.count())) +
      static_cast<double>(direct_syscalls) *
          static_cast<double>(price.direct_syscall.count());
}

void read_service(RoundResult& out, scen::Scenario2Service& svc) {
  out.layer["intravisor.mutex.fast"] += svc.mutex().fast_acquires();
  out.layer["intravisor.mutex.contended"] += svc.mutex().contended_acquires();
  out.layer["scenarios.proxied_calls"] += svc.proxied_calls();
}

/// Clean-wire invariants of every workload.
void check_clean_wire(RoundResult& out) {
  if (out.layer["fstack.tcp.rexmits"] != 0) {
    out.errors.push_back("retransmissions on a clean wire: " +
                         std::to_string(out.layer["fstack.tcp.rexmits"]));
  }
  if (out.layer["nic.wire.dropped"] != 0) {
    out.errors.push_back("frames dropped on a clean wire: " +
                         std::to_string(out.layer["nic.wire.dropped"]));
  }
}

void check_phase_goodput(RoundResult& out, Rig& rig, const Phase& p,
                         std::uint64_t bytes, const std::string& what) {
  if (!p.complete()) {
    out.errors.push_back(what + ": phase did not complete");
    return;
  }
  const double mbps = static_cast<double>(bytes) * 8e3 / p.virtual_ns();
  const std::string e = check_goodput(mbps, port_ceiling_mbps(rig.tb.options().phys));
  if (!e.empty()) out.errors.push_back(what + ": " + e);
}

/// S2 samples each pay at least one sealed-entry crossing, whose
/// domain-switch spin runs inside the timed window.
void check_s2_floor(RoundResult& out, const std::vector<double>& ns) {
  const double floor = static_cast<double>(
      sim::CostModel::morello().domain_switch_extra.count());
  const auto below =
      std::count_if(ns.begin(), ns.end(), [&](double v) { return v < floor; });
  if (below > 0) {
    out.errors.push_back(std::to_string(below) +
                         " S2 write samples below the sealed-entry floor of " +
                         std::to_string(floor) + " ns");
  }
}

/// Set-up, measured host time and modeled span of a round from its phases
/// in the order they ran: set-up is everything before the first phase plus
/// the gaps between phases (the next streams' connection set-up).
bool account_phases(RoundResult& out, double t0,
                    const std::vector<const Phase*>& phases) {
  for (const Phase* p : phases) {
    if (!p->complete()) {
      out.errors.push_back("a measured phase did not complete");
      return false;
    }
  }
  out.setup_s = phases.front()->host0_s() - t0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out.setup_s += phases[i]->host0_s() - phases[i - 1]->host1_s();
    out.measured_s += phases[i]->host_s();
    out.cpu_s += phases[i]->cpu_s();
    out.virtual_ns += phases[i]->virtual_ns();
  }
  out.peak_rss_mib = phases.front()->rss_mib();
  return true;
}

}  // namespace

// ===========================================================================
// bulk_s2: Table II Scenario 2 contended, Morello sends then receives.
// ===========================================================================

RoundResult run_bulk_s2(std::uint64_t seed, std::uint64_t round) {
  RoundResult out;
  const double t0 = now_ns() / 1e9;
  Rig rig;
  auto& tb = rig.tb;
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  arb.expect_participants(4);  // peer, stack loop, two apps

  Phase send(clock, 2);
  Phase recv(clock, 2);
  Peer peer(rig, 0);
  std::vector<std::unique_ptr<Receiver>> peer_rx;
  for (int j = 0; j < 2; ++j) {
    peer_rx.push_back(std::make_unique<Receiver>(
        peer.ops(), static_cast<std::uint16_t>(kPort + j),
        peer.alloc(kRxBuf), stream_key(seed, round, j), kBulkBytes, &send));
  }

  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  scen::FullStackInstance inst(tb.card(), 0, cvm1.heap(), clock,
                               tb.morello_cfg(0));
  scen::Scenario2Service svc(iv, cvm1, inst);

  struct App {
    iv::CVM* cvm = nullptr;
    std::unique_ptr<apps::FfOps> proxy;
    std::unique_ptr<AppOps> ops;
    std::unique_ptr<Sender> tx;
    std::unique_ptr<Receiver> rx;
  };
  std::array<App, 2> app;
  for (int j = 0; j < 2; ++j) {
    App& a = app[static_cast<std::size_t>(j)];
    a.cvm = &iv.create_cvm("cVM" + std::to_string(2 + j), 16u << 20);
    a.proxy = svc.make_proxy_ops(*a.cvm);
    a.ops = std::make_unique<AppOps>(*a.proxy);
    const machine::CapView buf = a.cvm->alloc(kRxBuf + kChunk);
    const auto port = static_cast<std::uint16_t>(kPort + j);
    a.rx = std::make_unique<Receiver>(*a.ops->ops, port,
                                      buf.window(kChunk, kRxBuf),
                                      stream_key(seed, round, 2 + j),
                                      kBulkBytes, &recv);
    a.tx = std::make_unique<Sender>(
        *a.ops->ops, scen::MorelloTestbed::peer_ip(0), port, kBulkBytes,
        buf.window(0, kChunk), stream_key(seed, round, j), &send, true);
  }

  // The peer receives both streams, then sends two back: at most two
  // connections are open at a time.
  std::vector<std::unique_ptr<Sender>> peer_tx;
  const machine::CapView peer_buf = peer.alloc(2 * kChunk);
  peer.start([&] {
    bool progress = false;
    for (auto& r : peer_rx) progress |= r->step();
    if (peer_tx.empty() &&
        std::all_of(peer_rx.begin(), peer_rx.end(),
                    [](const auto& r) { return r->done(); })) {
      for (int j = 0; j < 2; ++j) {
        peer_tx.push_back(std::make_unique<Sender>(
            peer.ops(), scen::MorelloTestbed::morello_ip(0),
            static_cast<std::uint16_t>(kPort + j), kBulkBytes,
            peer_buf.window(j * kChunk, kChunk),
            stream_key(seed, round, 2 + j), &recv, false));
      }
      progress = true;
    }
    for (auto& s : peer_tx) progress |= s->step();
    return progress;
  });
  cvm1.start(body("cVM1", Side::kStack, rig.errs, rig.stop, arb,
                  [&] { svc.run_loop(rig.stop, arb); }));
  for (App& a : app) {
    a.cvm->start(body(a.cvm->name(), Side::kApp, rig.errs, rig.stop, arb,
                      [&a, &rig, &clock, &arb] {
                        sim::Participant part(arb, a.cvm->name());
                        while (!rig.stop.load(std::memory_order_acquire)) {
                          const std::uint64_t token = part.prepare();
                          const bool progress =
                              a.tx->done() ? a.rx->step() : a.tx->step();
                          if (progress) continue;
                          timed_wait(part, token,
                                     clock.now() + kAppHeartbeat);
                        }
                      }));
  }
  wait_for(rig, [&] {
    return app[0].rx->done() && app[1].rx->done();
  });
  for (App& a : app) a.cvm->join();
  cvm1.join();
  peer.join();

  out.errors = rig.errs.take();
  for (int j = 0; j < 2; ++j) {
    App& a = app[static_cast<std::size_t>(j)];
    account_stream(out, "cVM" + std::to_string(2 + j) + " -> peer",
                   peer_rx[j]->check(), a.tx->sent(), kBulkBytes);
    account_stream(out, "peer -> cVM" + std::to_string(2 + j),
                   a.rx->check(),
                   j < static_cast<int>(peer_tx.size()) ? peer_tx[j]->sent()
                                                        : 0,
                   kBulkBytes);
    out.op_ns.insert(out.op_ns.end(), a.tx->op_ns().begin(),
                     a.tx->op_ns().end());
  }
  if (!account_phases(out, t0, {&send, &recv})) return out;
  out.payload_bytes = 4 * kBulkBytes;
  read_layers(out, rig, {&inst.stack()}, {&peer.stack()}, 0);
  read_service(out, svc);
  check_clean_wire(out);
  check_phase_goodput(out, rig, send, 2 * kBulkBytes, "Morello sends");
  check_phase_goodput(out, rig, recv, 2 * kBulkBytes, "Morello receives");
  check_s2_floor(out, out.op_ns);
  return out;
}

// ===========================================================================
// probe_*: the Fig. 4/5 ff_write(1448 B) probe, one leg per workload.
// ===========================================================================

RoundResult run_probe_base(std::uint64_t seed, std::uint64_t round) {
  RoundResult out;
  const double t0 = now_ns() / 1e9;
  Rig rig;
  auto& tb = rig.tb;
  tb.arbiter().expect_participants(2);
  Phase phase(tb.clock(), 1);
  Peer peer(rig, 0);
  Receiver rx(peer.ops(), kPort, peer.alloc(kRxBuf),
              stream_key(seed, round, 0), 0, &phase);
  scen::BaselineProcess bp(tb.intravisor(), tb.card(), 0, tb.morello_cfg(0),
                           "proc0");
  AppOps ops(bp.ops());
  const machine::CapView buf = bp.alloc(kChunk);
  std::uint64_t sent = 0;
  peer.start([&] { return rx.step(); });
  std::thread probe(body("baseline", Side::kApp, rig.errs, rig.stop,
                         tb.arbiter(), [&] {
                           probe_direct(bp.instance(), *ops.ops, bp.libc(),
                                        rig, scen::MorelloTestbed::peer_ip(0),
                                        buf, stream_key(seed, round, 0),
                                        phase, "baseline-probe", out.op_ns,
                                        sent);
                         }));
  wait_for(rig, [&] { return rx.done(); });
  probe.join();
  peer.join();
  out.errors = rig.errs.take();
  account_stream(out, "baseline -> peer", rx.check(), sent, sent);
  out.attempted = out.op_ns.size();
  if (!account_phases(out, t0, {&phase})) return out;
  out.payload_bytes = sent;
  read_layers(out, rig, {&bp.instance().stack()}, {&peer.stack()},
              bp.libc().syscall_count());
  check_clean_wire(out);
  return out;
}

RoundResult run_probe_s1(std::uint64_t seed, std::uint64_t round) {
  RoundResult out;
  const double t0 = now_ns() / 1e9;
  Rig rig;
  auto& tb = rig.tb;
  tb.arbiter().expect_participants(4);
  Phase phase(tb.clock(), 2);
  struct Side1 {
    std::unique_ptr<Peer> peer;
    std::unique_ptr<Receiver> rx;
    std::unique_ptr<scen::Scenario1Cvm> cvm;
    std::unique_ptr<AppOps> ops;
    std::vector<double> samples;
    std::uint64_t sent = 0;
  };
  std::array<Side1, 2> sides;
  for (int i = 0; i < 2; ++i) {
    Side1& s = sides[static_cast<std::size_t>(i)];
    s.peer = std::make_unique<Peer>(rig, i);
    s.rx = std::make_unique<Receiver>(s.peer->ops(), kPort,
                                      s.peer->alloc(kRxBuf),
                                      stream_key(seed, round, i), 0, &phase);
    s.cvm = std::make_unique<scen::Scenario1Cvm>(
        tb.intravisor(), tb.card(), i, tb.morello_cfg(i),
        "cVM" + std::to_string(i + 1));
    s.ops = std::make_unique<AppOps>(s.cvm->ops());
  }
  for (int i = 0; i < 2; ++i) {
    Side1& s = sides[static_cast<std::size_t>(i)];
    s.peer->start([&s] { return s.rx->step(); });
    const machine::CapView buf = s.cvm->alloc(kChunk);
    s.cvm->cvm().start(body(
        s.cvm->cvm().name(), Side::kApp, rig.errs, rig.stop, tb.arbiter(),
        [&s, &rig, buf, i, seed, round, &phase] {
          probe_direct(s.cvm->instance(), *s.ops->ops, s.cvm->libc(), rig,
                       scen::MorelloTestbed::peer_ip(i), buf,
                       stream_key(seed, round, i), phase,
                       s.cvm->cvm().name() + "-probe", s.samples, s.sent);
        }));
  }
  wait_for(rig, [&] { return sides[0].rx->done() && sides[1].rx->done(); });
  std::vector<fstack::FfStack*> morello, peers;
  std::uint64_t bytes = 0;
  for (Side1& s : sides) {
    s.cvm->cvm().join();
    s.peer->join();
  }
  out.errors = rig.errs.take();
  for (int i = 0; i < 2; ++i) {
    Side1& s = sides[static_cast<std::size_t>(i)];
    account_stream(out, "cVM" + std::to_string(i + 1) + " -> peer",
                   s.rx->check(), s.sent, s.sent);
    out.op_ns.insert(out.op_ns.end(), s.samples.begin(), s.samples.end());
    bytes += s.sent;
    morello.push_back(&s.cvm->instance().stack());
    peers.push_back(&s.peer->stack());
  }
  out.attempted = out.op_ns.size();
  if (!account_phases(out, t0, {&phase})) return out;
  out.payload_bytes = bytes;
  read_layers(out, rig, morello, peers, 0);
  check_clean_wire(out);
  return out;
}

RoundResult run_probe_s2(std::uint64_t seed, std::uint64_t round) {
  RoundResult out;
  const double t0 = now_ns() / 1e9;
  Rig rig;
  auto& tb = rig.tb;
  auto& iv = tb.intravisor();
  auto& arb = tb.arbiter();
  arb.expect_participants(3);  // peer, stack loop, probe
  Phase phase(tb.clock(), 1);
  Peer peer(rig, 0);
  Receiver rx(peer.ops(), kPort, peer.alloc(kRxBuf),
              stream_key(seed, round, 0), 0, &phase);
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  scen::FullStackInstance inst(tb.card(), 0, cvm1.heap(), tb.clock(),
                               tb.morello_cfg(0));
  scen::Scenario2Service svc(iv, cvm1, inst);
  iv::CVM& app = iv.create_cvm("cVM2", 16u << 20);
  const std::unique_ptr<apps::FfOps> proxy = svc.make_proxy_ops(app);
  AppOps ops(*proxy);
  const machine::CapView buf = app.alloc(kChunk);
  std::uint64_t sent = 0;
  peer.start([&] { return rx.step(); });
  cvm1.start(body("cVM1", Side::kStack, rig.errs, rig.stop, arb,
                  [&] { svc.run_loop(rig.stop, arb); }));
  app.start(body("cVM2", Side::kApp, rig.errs, rig.stop, arb, [&] {
    probe_proxy(*ops.ops, app.libc(), rig, buf, stream_key(seed, round, 0),
                phase, rx, out.op_ns, sent);
  }));
  wait_for(rig, [&] { return rx.done(); });
  app.join();
  cvm1.join();
  peer.join();
  out.errors = rig.errs.take();
  account_stream(out, "cVM2 -> peer", rx.check(), sent, sent);
  out.attempted = out.op_ns.size();
  if (!account_phases(out, t0, {&phase})) return out;
  out.payload_bytes = sent;
  read_layers(out, rig, {&inst.stack()}, {&peer.stack()}, 0);
  read_service(out, svc);
  check_clean_wire(out);
  check_s2_floor(out, out.op_ns);
  return out;
}

// ===========================================================================
// ring_zc: Scenario 2 uncontended, payload out through the zero-copy TX
// ring pipeline, then in through the ring RX pipeline.
// ===========================================================================

RoundResult run_ring_zc(std::uint64_t seed, std::uint64_t round) {
  RoundResult out;
  const double t0 = now_ns() / 1e9;
  Rig rig;
  auto& tb = rig.tb;
  auto& iv = tb.intravisor();
  auto& arb = tb.arbiter();
  arb.expect_participants(3);  // peer, stack loop, app
  // One TX phase: from the first byte of flow 0 to the last byte of every
  // flow (flows overlap on the wire: the next starts while the previous
  // one drains).
  Phase tx_phase(tb.clock(), kRingTxFlows);
  Peer peer(rig, 0);
  std::vector<std::unique_ptr<Receiver>> peer_rx;
  for (int k = 0; k < kRingTxFlows; ++k) {
    peer_rx.push_back(std::make_unique<Receiver>(
        peer.ops(), static_cast<std::uint16_t>(kPort + k), peer.alloc(kRxBuf),
        stream_key(seed, round, 1 + k), kRingFlowBytes, &tx_phase));
  }
  Phase rx_phase(tb.clock(), 1);
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  scen::FullStackInstance inst(tb.card(), 0, cvm1.heap(), tb.clock(),
                               tb.morello_cfg(0));
  scen::Scenario2Service svc(iv, cvm1, inst);
  iv::CVM& app = iv.create_cvm("cVM2", 16u << 20);
  const std::unique_ptr<apps::FfOps> proxy = svc.make_proxy_ops(app);
  AppOps ops(*proxy);
  // The RX leg's listener exists before the peer ever connects.
  constexpr auto kRxPort = static_cast<std::uint16_t>(kPort + kRingTxFlows);
  const int lfd = ops.ops->socket_stream();
  ops.ops->bind(lfd, fstack::Ipv4Addr{}, kRxPort);
  ops.ops->listen(lfd, 4);

  // The peer takes the TX flows one at a time, then sends the RX stream.
  std::unique_ptr<Sender> peer_tx;
  const machine::CapView peer_buf = peer.alloc(kChunk);
  std::atomic<bool> app_done{false};
  StreamCheck rx_check(stream_key(seed, round, 0));
  RingCounts rc;
  peer.start([&] {
    for (auto& r : peer_rx) {
      if (!r->done()) return r->step();
    }
    bool progress = false;
    if (!peer_tx) {
      peer_tx = std::make_unique<Sender>(
          peer.ops(), scen::MorelloTestbed::morello_ip(0), kRxPort,
          kRingRxBytes, peer_buf, stream_key(seed, round, 0), &rx_phase,
          false);
      progress = true;
    }
    return peer_tx->step() || progress;
  });
  cvm1.start(body("cVM1", Side::kStack, rig.errs, rig.stop, arb,
                  [&] { svc.run_loop(rig.stop, arb); }));
  app.start(body("cVM2", Side::kApp, rig.errs, rig.stop, arb, [&] {
    sim::Participant part(arb, "cVM2-ring");
    ring_tx(*ops.ops, app, rig, part, seed, round, tx_phase, rc);
    ring_rx(*ops.ops, app, rig, part, lfd, rx_phase, rx_check, rc);
    app_done.store(true, std::memory_order_release);
  }));
  wait_for(rig, [&] { return app_done.load(); });
  app.join();
  cvm1.join();
  peer.join();
  rc.publish();

  out.errors = rig.errs.take();
  for (int k = 0; k < kRingTxFlows; ++k) {
    account_stream(out, "cVM2 -> peer (zc TX ring, flow " +
                            std::to_string(k) + ")",
                   peer_rx[static_cast<std::size_t>(k)]->check(),
                   kRingFlowBytes, kRingFlowBytes);
  }
  account_stream(out, "peer -> cVM2 (zc RX ring)", rx_check,
                 peer_tx ? peer_tx->sent() : 0, kRingRxBytes);
  if (!account_phases(out, t0, {&tx_phase, &rx_phase})) return out;
  out.payload_bytes = kRingTxFlows * kRingFlowBytes + kRingRxBytes;
  out.op_ns = std::move(rc.turn_ns);
  read_layers(out, rig, {&inst.stack()}, {&peer.stack()}, 0);
  read_service(out, svc);
  check_clean_wire(out);
  check_phase_goodput(out, rig, tx_phase, kRingTxFlows * kRingFlowBytes,
                      "zc TX");
  check_phase_goodput(out, rig, rx_phase, kRingRxBytes, "zc RX");
  const auto& L = out.layer;
  if (L.at("fstack.tx.copied_bytes") != 0 ||
      L.at("fstack.rx.copied_bytes") != 0) {
    out.errors.push_back("zero-copy rings copied payload: TX " +
                         std::to_string(L.at("fstack.tx.copied_bytes")) +
                         " B, RX " +
                         std::to_string(L.at("fstack.rx.copied_bytes")) +
                         " B");
  }
  if (L.at("fstack.api.zc_rx_loans") != L.at("fstack.api.zc_rx_recycles")) {
    out.errors.push_back(
        "loans not all recycled: " +
        std::to_string(L.at("fstack.api.zc_rx_loans")) + " loans, " +
        std::to_string(L.at("fstack.api.zc_rx_recycles")) + " recycles");
  }
  return out;
}

}  // namespace emubench
