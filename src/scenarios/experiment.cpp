#include "scenarios/experiment.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <thread>

#include "scenarios/baseline.hpp"
#include "scenarios/scenario1.hpp"
#include "scenarios/scenario2.hpp"

namespace cherinet::scen {

namespace {
constexpr std::uint16_t kIperfPort = 5201;
constexpr sim::Ns kHeartbeat{500'000};      // 0.5 ms virtual idle heartbeat
constexpr sim::Ns kProbeHeartbeat{1'000'000};  // 1 ms for latency probes

sim::Ns capped_deadline(const std::optional<sim::Ns>& d, sim::Ns now,
                        sim::Ns horizon) {
  const sim::Ns cap = now + horizon;
  return d && *d < cap ? *d : cap;
}
}  // namespace

const char* to_string(ScenarioKind k) noexcept {
  switch (k) {
    case ScenarioKind::kBaseline2Proc: return "Baseline (two processes)";
    case ScenarioKind::kScenario1: return "Scenario 1";
    case ScenarioKind::kBaseline1Proc: return "Baseline (single process)";
    case ScenarioKind::kScenario2Uncontended: return "Scenario 2 (uncontended)";
    case ScenarioKind::kScenario2Contended: return "Scenario 2 (contended)";
  }
  return "?";
}

const char* to_string(Direction d) noexcept {
  return d == Direction::kMorelloReceives ? "Server" : "Client";
}

// ===========================================================================
// MorelloTestbed
// ===========================================================================

MorelloTestbed::MorelloTestbed(TestbedOptions opt)
    : opt_(opt), arb_(clock_) {
  iv::Intravisor::Config cfg;
  cfg.memory_bytes = opt_.memory_bytes;
  cfg.cost = opt_.cost;
  cfg.vclock = &clock_;
  iv_ = std::make_unique<iv::Intravisor>(cfg);
  bus_ = std::make_unique<nic::SharedBus>(opt_.phys.bus_rx_bits_per_sec,
                                          opt_.phys.bus_tx_bits_per_sec);
  card_ = std::make_unique<nic::E82576Device>(
      &iv_->address_space().mem(), &clock_,
      std::array<nic::MacAddr, 2>{nic::MacAddr::local(1),
                                  nic::MacAddr::local(2)});
  for (int i = 0; i < 2; ++i) {
    wires_[i] = std::make_unique<nic::Wire>(&clock_, &arb_, opt_.phys);
    wires_[i]->set_bus(0, bus_.get());  // only the Morello card shares a PCI bus
    card_->connect(i, wires_[i].get(), 0);
    if (opt_.impair.enabled()) {
      wires_[i]->set_impairment(0, opt_.impair);  // Morello egress
      wires_[i]->set_impairment(1, opt_.impair);  // peer egress
    }
  }
}

PeerHost& MorelloTestbed::make_peer(int i) {
  if (!peers_.at(i)) {
    PeerHost::Config pc;
    pc.name = "peer" + std::to_string(i);
    pc.inst = peer_cfg(i);
    peers_[i] = std::make_unique<PeerHost>(pc, iv_->address_space(), clock_,
                                           arb_, *wires_[i], 1);
  }
  return *peers_[i];
}

InstanceConfig MorelloTestbed::morello_cfg(int port) const {
  InstanceConfig c;
  c.netif.ip = morello_ip(port);
  c.tcp.mss = opt_.mss;
  c.tcp.sndbuf_bytes = opt_.sndbuf_bytes;
  c.inline_tcp_output = opt_.inline_tcp_output;
  c.eal.eth.offloads = opt_.offloads;
  return c;
}

InstanceConfig MorelloTestbed::peer_cfg(int port) const {
  InstanceConfig c;
  c.netif.ip = peer_ip(port);
  c.tcp.mss = opt_.mss;
  c.eal.eth.offloads = opt_.offloads;
  return c;
}

// ===========================================================================
// Generic endpoint loop bodies
// ===========================================================================

namespace {

/// Loop for an endpoint that owns its stack instance (Baseline, Scenario 1).
void direct_endpoint_loop(FullStackInstance& inst, apps::IperfServer* srv,
                          apps::IperfClient* cli, sim::VirtualClock& clock,
                          sim::TimeArbiter& arb, std::atomic<bool>& stop,
                          const std::string& name) {
  sim::Participant part(arb, name);
  while (!stop.load(std::memory_order_acquire)) {
    const std::uint64_t token = part.prepare();
    bool progress = inst.run_once();
    if (srv != nullptr) progress |= srv->step();
    if (cli != nullptr) progress |= cli->step();
    if (progress) continue;
    part.wait(token,
              capped_deadline(inst.next_deadline(), clock.now(), kHeartbeat));
  }
}

/// Loop for a Scenario 2 application compartment (stack lives in cVM1).
void proxy_endpoint_loop(apps::IperfServer* srv, apps::IperfClient* cli,
                         sim::VirtualClock& clock, sim::TimeArbiter& arb,
                         std::atomic<bool>& stop, const std::string& name) {
  sim::Participant part(arb, name);
  while (!stop.load(std::memory_order_acquire)) {
    const std::uint64_t token = part.prepare();
    bool progress = false;
    if (srv != nullptr) progress |= srv->step();
    if (cli != nullptr) progress |= cli->step();
    if (progress) continue;
    part.wait(token, clock.now() + kProbeHeartbeat);
  }
}

void wait_all_finished(const std::vector<std::function<bool()>>& done,
                       std::atomic<bool>& stop, sim::TimeArbiter& arb) {
  while (true) {
    bool all = true;
    for (const auto& f : done) all &= f();
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  arb.kick();
}

}  // namespace

// ===========================================================================
// Table II
// ===========================================================================

BandwidthOutcome run_bandwidth(ScenarioKind kind, Direction dir,
                               std::uint64_t bytes_per_stream,
                               const TestbedOptions& opt) {
  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  BandwidthOutcome out;
  out.kind = kind;
  out.dir = dir;

  const bool dual = kind == ScenarioKind::kBaseline2Proc ||
                    kind == ScenarioKind::kScenario1;
  const bool s2 = kind == ScenarioKind::kScenario2Uncontended ||
                  kind == ScenarioKind::kScenario2Contended;
  std::atomic<bool> stop{false};
  std::vector<std::function<bool()>> done;

  if (!s2) {
    const int nports = dual ? 2 : 1;
    arb.expect_participants(2 * static_cast<std::size_t>(nports));
    struct Side {
      std::unique_ptr<BaselineProcess> bp;
      std::unique_ptr<Scenario1Cvm> s1;
      std::unique_ptr<apps::IperfServer> srv;
      std::unique_ptr<apps::IperfClient> cli;
      std::thread thread;
      std::string label;
    };
    std::vector<Side> sides(static_cast<std::size_t>(nports));

    for (int i = 0; i < nports; ++i) {
      Side& sd = sides[static_cast<std::size_t>(i)];
      PeerHost& peer = tb.make_peer(i);
      apps::FfOps* ops = nullptr;
      machine::CapView buf;
      if (kind == ScenarioKind::kScenario1) {
        sd.label = "cVM" + std::to_string(i + 1);
        sd.s1 = std::make_unique<Scenario1Cvm>(iv, tb.card(), i,
                                               tb.morello_cfg(i), sd.label);
        ops = &sd.s1->ops();
        buf = sd.s1->alloc(64 * 1024);
      } else {
        sd.label = dual ? "Baseline (cVM" + std::to_string(i + 1) + ")"
                        : "Baseline (cVM2)";
        sd.bp = std::make_unique<BaselineProcess>(
            iv, tb.card(), i, tb.morello_cfg(i), "proc" + std::to_string(i));
        ops = &sd.bp->ops();
        buf = sd.bp->alloc(64 * 1024);
      }
      if (dir == Direction::kMorelloReceives) {
        sd.srv = std::make_unique<apps::IperfServer>(ops, &clock, kIperfPort,
                                                     buf, 1);
        peer.run_iperf_client(MorelloTestbed::morello_ip(i), kIperfPort,
                              bytes_per_stream);
        done.push_back([&sd] { return sd.srv->finished(); });
      } else {
        sd.cli = std::make_unique<apps::IperfClient>(
            ops, &clock, MorelloTestbed::peer_ip(i), kIperfPort,
            bytes_per_stream, buf.window(0, 16 * 1024));
        peer.serve_iperf(kIperfPort, 1);
        done.push_back([&peer] { return peer.workload_finished(); });
      }
      peer.start();
    }
    for (int i = 0; i < nports; ++i) {
      Side& sd = sides[static_cast<std::size_t>(i)];
      auto body = [&sd, inst = sd.s1 ? &sd.s1->instance()
                                     : &sd.bp->instance(),
                   &clock, &arb, &stop] {
        direct_endpoint_loop(*inst, sd.srv.get(), sd.cli.get(), clock, arb,
                             stop, sd.label);
      };
      if (sd.s1) {
        sd.s1->cvm().start(body);
      } else {
        sd.thread = std::thread(body);
      }
    }
    wait_all_finished(done, stop, arb);
    for (auto& sd : sides) {
      if (sd.s1) sd.s1->cvm().join();
      if (sd.thread.joinable()) sd.thread.join();
    }
    for (int i = 0; i < nports; ++i) {
      tb.peer(i).request_stop();
      tb.peer(i).join();
    }
    for (int i = 0; i < nports; ++i) {
      Side& sd = sides[static_cast<std::size_t>(i)];
      if (dir == Direction::kMorelloReceives) {
        const auto& r = sd.srv->report();
        out.endpoints.push_back({sd.label, r.bytes, r.mbit_per_sec()});
      } else {
        const auto& r = tb.peer(i).server()->report();
        out.endpoints.push_back({sd.label, r.bytes, r.mbit_per_sec()});
      }
      const updk::EthStats es =
          (sd.s1 ? sd.s1->instance() : sd.bp->instance()).dev().stats();
      out.morello_tx.frames += es.opackets;
      out.morello_tx.bursts += es.tx_bursts;
      out.morello_tx.segs += es.tx_segs;
      out.morello_tx.bytes += es.obytes;
      out.morello_tx.tso_frames += es.tso_frames;
      out.morello_tx.tso_bytes += es.tso_bytes;
    }
    return out;
  }

  // ---- Scenario 2 ----
  const int napps = kind == ScenarioKind::kScenario2Contended ? 2 : 1;
  const std::uint32_t nshards = std::max<std::uint32_t>(opt.s2_shards, 1);
  const bool same_port = opt.s2_shards_same_port || nshards == 1;
  // Dual-port scale-out puts shard j on port j; the card has two ports.
  const int nports =
      same_port ? 1 : static_cast<int>(std::min<std::uint32_t>(nshards, 2));
  // App cVM j is pinned to shard j % nshards at make_proxy_ops time; the
  // shard's frames arrive on its own port (dual-port mode) or its own RSS
  // queue of port 0 (same-port mode).
  const auto shard_of = [nshards](int j) {
    return static_cast<std::uint32_t>(j) % nshards;
  };
  const auto port_of_shard = [same_port, nports](std::uint32_t s) {
    return same_port ? 0 : static_cast<int>(s) % nports;
  };
  arb.expect_participants(static_cast<std::size_t>(nports) + nshards +
                          static_cast<std::size_t>(napps));
  for (int p = 0; p < nports; ++p) tb.make_peer(p);
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  std::vector<std::unique_ptr<FullStackInstance>> insts;
  std::vector<FullStackInstance*> shard_ptrs;
  for (std::uint32_t s = 0; s < nshards; ++s) {
    if (opt.s2_shards_same_port) {
      // RSS mode: every shard shares port 0's identity (IP + MAC); the
      // 82576's Toeplitz/RETA steering and the listeners' L4 filters split
      // the flows across the shards' queues.
      insts.push_back(std::make_unique<FullStackInstance>(
          tb.card(), 0, s, nshards, cvm1.heap(), clock, tb.morello_cfg(0)));
    } else {
      const int p = port_of_shard(s);
      insts.push_back(std::make_unique<FullStackInstance>(
          tb.card(), p, cvm1.heap(), clock, tb.morello_cfg(p)));
    }
    shard_ptrs.push_back(insts.back().get());
  }
  Scenario2Service svc(iv, cvm1, shard_ptrs);
  cvm1.start([&] { svc.run_shard_loop(0, stop, arb); });
  // Sibling shard loops: cVM1 threads in the model, plain threads here
  // (one CVM body slot). They share cvm1's libc futex path via their own
  // per-shard mutexes.
  std::vector<std::thread> shard_threads;
  for (std::uint32_t s = 1; s < nshards; ++s) {
    shard_threads.emplace_back(
        [&svc, s, &stop, &arb] { svc.run_shard_loop(s, stop, arb); });
  }

  struct App {
    iv::CVM* cvm = nullptr;
    std::unique_ptr<apps::FfOps> ops;
    std::unique_ptr<apps::TelemetryBatch> telemetry;
    std::unique_ptr<apps::IperfServer> srv;
    std::unique_ptr<apps::IperfClient> cli;
    std::string label;
  };
  std::vector<App> app(static_cast<std::size_t>(napps));
  for (int j = 0; j < napps; ++j) {
    App& a = app[static_cast<std::size_t>(j)];
    const std::uint32_t s = shard_of(j);
    const int p = port_of_shard(s);
    a.label = "cVM" + std::to_string(2 + j);
    a.cvm = &iv.create_cvm(a.label, 16u << 20);
    a.ops = svc.make_proxy_ops(*a.cvm, s);
    machine::CapView buf = a.cvm->alloc(64 * 1024);
    // Interval reports flush through ONE SyscallBatch envelope per report
    // instead of one write(2) crossing per line (apps::TelemetryBatch).
    a.telemetry = std::make_unique<apps::TelemetryBatch>(
        &a.cvm->libc(), a.cvm->alloc(2048));
    if (dir == Direction::kMorelloReceives) {
      const auto port = static_cast<std::uint16_t>(kIperfPort + j);
      a.srv = std::make_unique<apps::IperfServer>(a.ops.get(), &clock, port,
                                                  buf, 1);
      a.srv->set_telemetry(a.telemetry.get(), sim::Ns{250'000'000});
      tb.peer(p).run_iperf_client(MorelloTestbed::morello_ip(p), port,
                                  bytes_per_stream);
      done.push_back([&a] { return a.srv->finished(); });
    } else {
      a.cli = std::make_unique<apps::IperfClient>(
          a.ops.get(), &clock, MorelloTestbed::peer_ip(p), kIperfPort,
          bytes_per_stream, buf.window(0, 16 * 1024));
      a.cli->set_telemetry(a.telemetry.get(), sim::Ns{250'000'000});
    }
  }
  if (dir == Direction::kMorelloSends) {
    for (int p = 0; p < nports; ++p) {
      int streams = 0;
      for (int j = 0; j < napps; ++j) {
        if (port_of_shard(shard_of(j)) == p) ++streams;
      }
      tb.peer(p).serve_iperf(kIperfPort, streams);
      done.push_back(
          [peer = &tb.peer(p)] { return peer->workload_finished(); });
    }
  }
  for (int p = 0; p < nports; ++p) tb.peer(p).start();
  for (auto& a : app) {
    a.cvm->start([&a, &clock, &arb, &stop] {
      proxy_endpoint_loop(a.srv.get(), a.cli.get(), clock, arb, stop,
                          a.label);
    });
  }
  wait_all_finished(done, stop, arb);
  for (auto& a : app) a.cvm->join();
  cvm1.join();
  for (auto& t : shard_threads) t.join();
  for (int p = 0; p < nports; ++p) {
    tb.peer(p).request_stop();
    tb.peer(p).join();
  }

  for (auto& inst : insts) {
    const updk::EthStats es = inst->dev().stats();
    out.morello_tx.frames += es.opackets;
    out.morello_tx.bursts += es.tx_bursts;
    out.morello_tx.segs += es.tx_segs;
    out.morello_tx.bytes += es.obytes;
    out.morello_tx.tso_frames += es.tso_frames;
    out.morello_tx.tso_bytes += es.tso_bytes;
  }

  out.shards.resize(nshards);
  if (dir == Direction::kMorelloReceives) {
    for (int j = 0; j < napps; ++j) {
      App& a = app[static_cast<std::size_t>(j)];
      const auto& r = a.srv->report();
      out.endpoints.push_back({a.label, r.bytes, r.mbit_per_sec()});
      out.shards[shard_of(j)].mbps += r.mbit_per_sec();
    }
  } else {
    // Each peer reports its connections in accept order; apps mapped to a
    // port connected in increasing j, so zip them back in that order.
    std::vector<std::size_t> next_report(static_cast<std::size_t>(nports), 0);
    for (int j = 0; j < napps; ++j) {
      const int p = port_of_shard(shard_of(j));
      const auto reports = tb.peer(p).server()->connection_reports();
      const std::size_t idx = next_report[static_cast<std::size_t>(p)]++;
      if (idx < reports.size()) {
        out.endpoints.push_back({"cVM" + std::to_string(2 + j),
                                 reports[idx].bytes,
                                 reports[idx].mbit_per_sec()});
        out.shards[shard_of(j)].mbps += reports[idx].mbit_per_sec();
      }
    }
  }
  for (std::uint32_t s = 0; s < nshards; ++s) {
    out.shards[s].mutex_fast = svc.mutex(s).fast_acquires();
    out.shards[s].mutex_contended = svc.mutex(s).contended_acquires();
    out.shards[s].proxied_calls = svc.proxied_calls(s);
  }
  return out;
}

// ===========================================================================
// Figures 4-6: ff_write latency probes
// ===========================================================================

namespace {

/// One measured call of the Fig. 4-6 probes: batch = 1 is the classic
/// ff_write; batch > 1 issues the same bytes as one gather ff_writev (the
/// Fig. 6 sweep's contention knob — one mutex acquisition per batch).
std::int64_t measured_write(apps::FfOps& ops, int fd,
                            const machine::CapView& buf, std::size_t wsize,
                            std::size_t batch) {
  if (batch <= 1) return ops.write(fd, buf, wsize);
  fstack::FfIovec iov[apps::IperfClient::kMaxBatch];
  const std::size_t k =
      std::min<std::size_t>(batch, apps::IperfClient::kMaxBatch);
  for (std::size_t i = 0; i < k; ++i) iov[i] = {buf.window(0, wsize), wsize};
  return ops.writev(fd, {iov, k});
}

/// Probe owning its stack (Baseline / Scenario 1): interleaves measured
/// writes with main-loop iterations, parking when neither can progress.
std::vector<double> probe_direct(FullStackInstance& inst, apps::FfOps& ops,
                                 iv::MuslLibc& libc, sim::VirtualClock& clock,
                                 sim::TimeArbiter& arb, fstack::Ipv4Addr dst,
                                 std::uint16_t port, std::size_t iters,
                                 std::size_t wsize,
                                 const machine::CapView& buf,
                                 const std::string& name,
                                 std::size_t batch = 1) {
  std::vector<double> samples;
  samples.reserve(iters);
  const int fd = ops.socket_stream();
  ops.connect(fd, dst, port);
  sim::Participant part(arb, name);
  while (samples.size() < iters) {
    const std::uint64_t token = part.prepare();
    const std::uint64_t t0 = libc.clock_gettime_mono_raw_ns();
    const std::int64_t r = measured_write(ops, fd, buf, wsize, batch);
    const std::uint64_t t1 = libc.clock_gettime_mono_raw_ns();
    bool progress = false;
    if (r > 0) {
      samples.push_back(static_cast<double>(t1 - t0));
      progress = true;
    }
    progress |= inst.run_once();
    if (!progress) {
      part.wait(token, capped_deadline(inst.next_deadline(), clock.now(),
                                       kProbeHeartbeat));
    }
  }
  ops.close(fd);
  for (int i = 0; i < 10000; ++i) {
    if (!inst.run_once()) break;  // drain FIN exchange
  }
  return samples;
}

/// Probe in a Scenario 2 application compartment: the write crosses into
/// cVM1 (sealed entry + stack mutex); the stack loop runs elsewhere.
/// `pace` > 0 reproduces the paper's uncontended methodology — "we
/// increased the interval between two consecutive ff_write() to reduce the
/// possibility to be blocked for a long time by the mutex" (§IV): the probe
/// idles between writes so the polling loop has drained and released.
std::vector<double> probe_proxy(apps::FfOps& ops, iv::MuslLibc& libc,
                                sim::VirtualClock& clock,
                                sim::TimeArbiter& arb, fstack::Ipv4Addr dst,
                                std::uint16_t port, std::size_t iters,
                                std::size_t wsize,
                                const machine::CapView& buf,
                                const std::string& name, sim::Ns pace,
                                std::vector<double>* virtual_out = nullptr,
                                std::size_t batch = 1) {
  std::vector<double> samples;
  samples.reserve(iters);
  const int fd = ops.socket_stream();
  ops.connect(fd, dst, port);
  sim::Participant part(arb, name);
  int spins = 0;
  std::optional<sim::Ns> first_try;  // virtual instant of the write's
                                     // first (possibly failing) attempt
  while (samples.size() < iters) {
    const std::uint64_t token = part.prepare();
    if (!first_try) first_try = clock.now();
    const std::uint64_t t0 = libc.clock_gettime_mono_raw_ns();
    const std::int64_t r = measured_write(ops, fd, buf, wsize, batch);
    const std::uint64_t t1 = libc.clock_gettime_mono_raw_ns();
    if (r > 0) {
      samples.push_back(static_cast<double>(t1 - t0));
      if (virtual_out != nullptr) {
        virtual_out->push_back(
            static_cast<double>((clock.now() - *first_try).count()));
      }
      first_try.reset();
      spins = 0;
      if (pace.count() > 0) part.wait(token, clock.now() + pace);
    } else if (++spins < 64) {
      // Retry in a tight loop first. For unpaced (contended) probes this
      // races the polling main loop and the sibling compartment for the
      // mutex in real time — the regime the paper's Fig. 6 measures. For
      // paced probes it absorbs the wall-clock race where the writer and
      // the loop woke at the same virtual instant but the loop has not
      // had host CPU yet: spinning lets it catch up WITHOUT advancing
      // virtual time, so the virtual_ns series is not charged for host
      // scheduling.
      continue;
    } else if (pace.count() > 0) {
      // Still full after spinning: genuine flow control. Step virtual
      // time just far enough for the next drain rather than a full
      // heartbeat, so virtual_ns records flow-control delay alone.
      spins = 0;
      part.wait(token, clock.now() + sim::Ns{200});
    } else {
      spins = 0;
      part.wait(token, clock.now() + kProbeHeartbeat);
    }
  }
  ops.close(fd);
  return samples;
}

}  // namespace

LatencyOutcome run_ffwrite_latency(ScenarioKind kind, std::size_t iterations,
                                   std::size_t write_size,
                                   const TestbedOptions& opt,
                                   std::size_t batch) {
  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  LatencyOutcome out;
  out.kind = kind;
  std::atomic<bool> stop{false};

  const bool dual = kind == ScenarioKind::kBaseline2Proc ||
                    kind == ScenarioKind::kScenario1;
  const bool s2 = kind == ScenarioKind::kScenario2Uncontended ||
                  kind == ScenarioKind::kScenario2Contended;

  if (!s2) {
    const int nports = dual ? 2 : 1;
    arb.expect_participants(2 * static_cast<std::size_t>(nports));
    struct Side {
      std::unique_ptr<BaselineProcess> bp;
      std::unique_ptr<Scenario1Cvm> s1;
      std::thread thread;
      std::vector<double> samples;
      std::string label;
    };
    std::vector<Side> sides(static_cast<std::size_t>(nports));
    for (int i = 0; i < nports; ++i) {
      Side& sd = sides[static_cast<std::size_t>(i)];
      PeerHost& peer = tb.make_peer(i);
      peer.serve_iperf(kIperfPort, 1);  // discard sink
      peer.start();
      if (kind == ScenarioKind::kScenario1) {
        sd.label = "cVM" + std::to_string(i + 1);
        sd.s1 = std::make_unique<Scenario1Cvm>(iv, tb.card(), i,
                                               tb.morello_cfg(i), sd.label);
      } else {
        sd.label = dual ? "Baseline (cVM" + std::to_string(i + 1) + ")"
                        : "Baseline";
        sd.bp = std::make_unique<BaselineProcess>(
            iv, tb.card(), i, tb.morello_cfg(i), "proc" + std::to_string(i));
      }
    }
    for (int i = 0; i < nports; ++i) {
      Side& sd = sides[static_cast<std::size_t>(i)];
      const fstack::Ipv4Addr dst = MorelloTestbed::peer_ip(i);
      auto body = [&sd, &clock, &arb, dst, iterations, write_size, batch] {
        FullStackInstance& inst =
            sd.s1 ? sd.s1->instance() : sd.bp->instance();
        apps::FfOps& ops = sd.s1 ? sd.s1->ops() : sd.bp->ops();
        iv::MuslLibc& libc = sd.s1 ? sd.s1->libc() : sd.bp->libc();
        machine::CapView buf = sd.s1 ? sd.s1->alloc(4096) : sd.bp->alloc(4096);
        sd.samples = probe_direct(inst, ops, libc, clock, arb, dst,
                                  kIperfPort, iterations, write_size, buf,
                                  sd.label + "-probe", batch);
      };
      if (sd.s1) {
        sd.s1->cvm().start(body);
      } else {
        sd.thread = std::thread(body);
      }
    }
    for (auto& sd : sides) {
      if (sd.s1) sd.s1->cvm().join();
      if (sd.thread.joinable()) sd.thread.join();
    }
    stop.store(true);
    arb.kick();
    for (int i = 0; i < nports; ++i) {
      tb.peer(i).request_stop();
      tb.peer(i).join();
    }
    for (auto& sd : sides) {
      out.series.push_back({sd.label, std::move(sd.samples), {}});
    }
    return out;
  }

  // ---- Scenario 2 ----
  const int napps = kind == ScenarioKind::kScenario2Contended ? 2 : 1;
  arb.expect_participants(2 + static_cast<std::size_t>(napps));
  PeerHost& peer = tb.make_peer(0);
  peer.serve_iperf(kIperfPort, napps);
  peer.start();
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), clock, tb.morello_cfg(0));
  Scenario2Service svc(iv, cvm1, inst);
  cvm1.start([&] { svc.run_loop(stop, arb); });

  struct App {
    iv::CVM* cvm = nullptr;
    std::unique_ptr<apps::FfOps> ops;
    std::vector<double> samples;
    std::vector<double> vsamples;
    std::string label;
  };
  std::vector<App> app(static_cast<std::size_t>(napps));
  for (int j = 0; j < napps; ++j) {
    App& a = app[static_cast<std::size_t>(j)];
    a.label = "cVM" + std::to_string(2 + j);
    a.cvm = &iv.create_cvm(a.label, 16u << 20);
    a.ops = svc.make_proxy_ops(*a.cvm);
  }
  // Uncontended runs pace their writes exactly as the paper did; contended
  // runs hammer flat out so every acquisition races the loop and sibling.
  const sim::Ns pace = kind == ScenarioKind::kScenario2Uncontended
                           ? sim::Ns{20'000}
                           : sim::Ns{0};
  for (auto& a : app) {
    a.cvm->start([&a, &clock, &arb, iterations, write_size, pace, batch] {
      machine::CapView buf = a.cvm->alloc(4096);
      a.samples = probe_proxy(*a.ops, a.cvm->libc(), clock, arb,
                              MorelloTestbed::peer_ip(0), kIperfPort,
                              iterations, write_size, buf,
                              a.label + "-probe", pace, &a.vsamples, batch);
    });
  }
  for (auto& a : app) a.cvm->join();
  stop.store(true);
  arb.kick();
  cvm1.join();
  peer.request_stop();
  peer.join();
  for (auto& a : app) {
    out.series.push_back(
        {a.label, std::move(a.samples), std::move(a.vsamples)});
  }
  out.mutex_fast = svc.mutex().fast_acquires();
  out.mutex_contended = svc.mutex().contended_acquires();
  return out;
}

// ===========================================================================
// API v2 crossing census
// ===========================================================================

namespace {

/// The measured-call loop both census scenarios share: wrap every write in
/// the clock_gettime envelope of the Fig. 4 methodology (in a cVM those
/// reads trampoline — they are part of what a measured ff_write costs the
/// application), submit batch iovecs per call, and drive/yield as the
/// scenario dictates via `turn` (returns true when the loop may continue).
/// Crossing counters (`entry_now` = sealed-entry jumps, `tramp_now` =
/// trampoline syscalls; either may be empty) are sampled AROUND each
/// measured call, so idle polling and connection setup — real-time noise —
/// never pollute the per-call attribution.
struct CensusProbes {
  std::function<std::uint64_t()> entry_now;
  std::function<std::uint64_t()> tramp_now;
  std::uint64_t entry_crossings = 0;
  std::uint64_t tramp_crossings = 0;
};

std::uint64_t census_write_loop(apps::FfOps& ops, iv::MuslLibc& libc,
                                const machine::CapView& buf,
                                std::uint64_t total_bytes, std::size_t batch,
                                std::size_t wsize, std::uint64_t* api_calls,
                                CensusProbes* probes,
                                const std::function<bool(bool)>& turn) {
  const int fd = ops.socket_stream();
  ops.connect(fd, MorelloTestbed::peer_ip(0), kIperfPort);
  // Gate measured calls on EPOLLOUT, exactly like the ported iperf3
  // (§III-B): a measured write only issues when it can queue bytes, so the
  // census counts the crossings of productive calls, not of -EAGAIN spins.
  const int ep = ops.epoll_create();
  ops.epoll_ctl(ep, fstack::EpollOp::kAdd, fd, fstack::kEpollOut, 1);
  std::vector<fstack::FfIovec> iov(batch);
  std::uint64_t queued = 0;
  while (queued < total_bytes) {
    fstack::FfEpollEvent ev[1];
    const bool writable = ops.epoll_wait(ep, ev) > 0 &&
                          (ev[0].events & fstack::kEpollOut) != 0;
    std::int64_t r = 0;
    if (writable) {
      const std::uint64_t e0 =
          probes->entry_now ? probes->entry_now() : 0;
      const std::uint64_t t0 =
          probes->tramp_now ? probes->tramp_now() : 0;
      (void)libc.clock_gettime_mono_raw_ns();
      if (batch == 1) {
        const std::size_t n =
            std::min<std::uint64_t>(wsize, total_bytes - queued);
        r = ops.write(fd, buf, n);
      } else {
        std::size_t k = 0;
        std::uint64_t want = 0;
        for (; k < batch && queued + want < total_bytes; ++k) {
          const std::size_t n =
              std::min<std::uint64_t>(wsize, total_bytes - queued - want);
          iov[k] = {buf.window(0, n), n};
          want += n;
        }
        r = ops.writev(fd, {iov.data(), k});
      }
      (void)libc.clock_gettime_mono_raw_ns();
      if (probes->entry_now) {
        probes->entry_crossings += probes->entry_now() - e0;
      }
      if (probes->tramp_now) {
        probes->tramp_crossings += probes->tramp_now() - t0;
      }
      ++*api_calls;
      if (r > 0) queued += static_cast<std::uint64_t>(r);
    }
    if (!turn(writable && r > 0)) break;
  }
  ops.close(ep);
  ops.close(fd);
  return queued;
}

}  // namespace

CrossingCensus run_ffwrite_crossing_census(ScenarioKind kind,
                                           std::uint64_t total_bytes,
                                           std::size_t batch,
                                           const TestbedOptions& opt) {
  CrossingCensus out;
  batch = std::min<std::size_t>(std::max<std::size_t>(batch, 1), 64);
  const std::size_t wsize = 1448;
  const sim::CostModel price = sim::CostModel::morello();
  const double mib =
      static_cast<double>(total_bytes) / (1024.0 * 1024.0);

  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  arb.set_mode(sim::ArbiterMode::kBaton);  // counts, not wall clock
  std::atomic<bool> stop{false};

  // The census measures the cost of *queueing* a byte volume, so the send
  // buffer holds the whole volume: backpressure would make every call —
  // batched or not — move only the drained window and mask the per-call
  // fixed costs being compared.
  InstanceConfig icfg = tb.morello_cfg(0);
  icfg.tcp.sndbuf_bytes =
      std::max<std::size_t>(icfg.tcp.sndbuf_bytes, total_bytes + (64u << 10));

  if (kind == ScenarioKind::kScenario1) {
    arb.expect_participants(2);
    PeerHost& peer = tb.make_peer(0);
    peer.serve_iperf(kIperfPort, 1);  // discard sink
    peer.start();
    Scenario1Cvm s1(iv, tb.card(), 0, icfg, "cVM1-census");
    // Scenario 1's crossings in the measured window are the trampolined
    // timing syscalls (paper §IV: "in cVMs we can't directly access the
    // timers"); each costs a full kernel entry + trampoline.
    CensusProbes probes;
    probes.tramp_now = [&] { return s1.cvm().trampoline().crossings(); };
    s1.cvm().start([&] {
      FullStackInstance& inst = s1.instance();
      machine::CapView buf = s1.alloc(wsize);
      sim::Participant part(arb, "census-probe");
      out.bytes = census_write_loop(
          s1.ops(), s1.libc(), buf, total_bytes, batch, wsize,
          &out.api_calls, &probes, [&](bool wrote) {
            const std::uint64_t token = part.prepare();
            const bool progress = inst.run_once() || wrote;
            if (!progress) {
              part.wait(token, capped_deadline(inst.next_deadline(),
                                               clock.now(), kProbeHeartbeat));
            }
            return true;
          });
      for (int i = 0; i < 10000; ++i) {
        if (!inst.run_once()) break;  // drain FIN exchange
      }
    });
    s1.cvm().join();
    peer.request_stop();
    peer.join();
    out.crossings = probes.tramp_crossings;
    out.modeled_ns_per_mib =
        mib > 0 ? static_cast<double>(out.crossings) *
                      static_cast<double>(price.trampoline_crossing().count()) /
                      mib
                : 0.0;
    return out;
  }

  if (kind != ScenarioKind::kScenario2Uncontended) return out;

  // ---- Scenario 2 (uncontended): writes cross into the network cVM ----
  arb.expect_participants(3);
  PeerHost& peer = tb.make_peer(0);
  peer.serve_iperf(kIperfPort, 1);
  peer.start();
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), clock, icfg);
  Scenario2Service svc(iv, cvm1, inst);
  cvm1.start([&] { svc.run_loop(stop, arb); });

  iv::CVM& app = iv.create_cvm("cVM2-census", 16u << 20);
  auto ops = svc.make_proxy_ops(app);
  CensusProbes probes;
  probes.entry_now = [&] { return iv.entries().crossings(); };
  probes.tramp_now = [&] { return app.trampoline().crossings(); };
  app.start([&] {
    machine::CapView buf = app.alloc(wsize);
    sim::Participant part(arb, "census-probe");
    out.bytes = census_write_loop(
        *ops, app.libc(), buf, total_bytes, batch, wsize, &out.api_calls,
        &probes, [&](bool wrote) {
          const std::uint64_t token = part.prepare();
          if (!wrote) part.wait(token, clock.now() + kProbeHeartbeat);
          return true;
        });
  });
  app.join();
  stop.store(true);
  arb.kick();
  cvm1.join();
  peer.request_stop();
  peer.join();

  const std::uint64_t entry_crossings = probes.entry_crossings;
  const std::uint64_t tramp_crossings = probes.tramp_crossings;
  out.crossings = entry_crossings + tramp_crossings;
  // A sealed-entry ff_* jump pays the full path the paper prices at ~200 ns
  // over baseline: kernel entry + trampoline indirections + domain switch.
  const double entry_cost = static_cast<double>(
      price.trampoline_crossing().count() + price.domain_switch_extra.count());
  out.modeled_ns_per_mib =
      mib > 0
          ? (static_cast<double>(entry_crossings) * entry_cost +
             static_cast<double>(tramp_crossings) *
                 static_cast<double>(price.trampoline_crossing().count())) /
                mib
          : 0.0;
  return out;
}

// ===========================================================================
// RX census
// ===========================================================================

namespace {

constexpr std::uint32_t kRxRingSlots = 64;
constexpr std::size_t kRxZcBatch = 32;
// The zero-copy receiver COALESCES: it lets segments accumulate in the RX
// chain before draining one loan burst, the way a batching receiver (or
// interrupt-coalescing NIC) amortizes per-wakeup costs. PR 2 fixed the
// window statically; the drain is now ADAPTIVE, loan-count driven: a drain
// that fills its whole burst halves the window (the queue is outrunning
// the receiver — harvest sooner), a short drain doubles it (let more
// accrue per wakeup), clamped to [1, kRxCoalesceMax]. The receive window
// (256 KiB) comfortably holds the accrual either way. The old static knob
// survives as the CHERINET_RX_COALESCE_TURNS override.
constexpr std::uint32_t kRxCoalesceMax = 64;
constexpr std::uint32_t kRxCoalesceStart = 8;

struct RxDrainPacer {
  std::uint32_t window = kRxCoalesceStart;
  bool fixed = false;

  RxDrainPacer() {
    if (const char* env = std::getenv("CHERINET_RX_COALESCE_TURNS")) {
      fixed = true;
      window = static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
      if (window == 0) window = 1;
    }
  }
  /// Feed back one drain's loan count (`full` = the burst size that means
  /// the queue was not emptied); returns the new window.
  std::uint32_t on_drain(std::size_t loans, std::size_t full = kRxZcBatch) {
    if (!fixed) {
      window = loans >= full
                   ? std::max<std::uint32_t>(window / 2, 1)
                   : std::min<std::uint32_t>(window * 2, kRxCoalesceMax);
    }
    return window;
  }
};

/// The measured receive loop both RX-census scenarios share. The readiness
/// gate (epoll_wait / event-ring pop + accept) stays OUTSIDE the measured
/// envelope, mirroring census_write_loop: the envelope prices exactly what
/// one productive receive iteration costs the application. v1 envelopes
/// wrap one MSS-sized ff_read; zero-copy envelopes wrap one ff_zc_recv
/// burst plus its batched recycle.
std::uint64_t census_recv_loop(apps::FfOps& ops, iv::MuslLibc& libc,
                               const machine::CapView& rx_buf,
                               const machine::CapView& ring_mem,
                               std::uint64_t total_bytes, bool zero_copy,
                               std::uint64_t* api_calls, CensusProbes* probes,
                               const std::function<bool(bool)>& turn) {
  const int lfd = ops.socket_stream();
  ops.bind(lfd, fstack::Ipv4Addr{}, kIperfPort);
  ops.listen(lfd, 4);
  const int ep = ops.epoll_create();
  ops.epoll_ctl(ep, fstack::EpollOp::kAdd, lfd, fstack::kEpollIn,
                static_cast<std::uint64_t>(lfd));
  std::optional<fstack::FfEventRing> ring;
  if (zero_copy) {
    // ONE arming crossing replaces every subsequent wait.
    ring.emplace(ring_mem, kRxRingSlots);
    ops.epoll_wait_multishot(ep, ring_mem, kRxRingSlots);
  }
  int cfd = -1;
  bool hot = false;  // zc mode: data expected without a fresh ring event
  bool eof = false;
  RxDrainPacer pacer;         // adaptive coalescing window
  std::uint32_t coalesce = 0;  // turns since the last zc drain
  std::uint64_t got = 0;
  while (got < total_bytes && !eof) {
    bool progress = false;
    bool readable = false;
    if (zero_copy) {
      fstack::FfEpollEvent evs[8];
      const std::size_t n = ring->pop(evs);  // local loads, no crossing
      if (n > 0) hot = true;
      if (cfd < 0) {
        int fds[1];
        if (ops.accept_batch(lfd, fds) == 1) {
          cfd = fds[0];
          ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                        static_cast<std::uint64_t>(cfd));
          hot = true;
          progress = true;
        }
      }
      ++coalesce;
      readable = cfd >= 0 && hot && coalesce >= pacer.window;
    } else {
      fstack::FfEpollEvent evs[8];
      const int n = ops.epoll_wait(ep, evs);
      for (int i = 0; i < n; ++i) {
        const int fd = static_cast<int>(evs[i].data);
        if (fd == lfd) {
          const int a = ops.accept(lfd);
          if (a >= 0) {
            cfd = a;
            ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                          static_cast<std::uint64_t>(cfd));
            progress = true;
          }
        } else if (fd == cfd &&
                   (evs[i].events & (fstack::kEpollIn | fstack::kEpollHup))) {
          readable = true;
        }
      }
    }
    if (readable) {
      const std::uint64_t e0 = probes->entry_now ? probes->entry_now() : 0;
      const std::uint64_t t0 = probes->tramp_now ? probes->tramp_now() : 0;
      (void)libc.clock_gettime_mono_raw_ns();
      if (zero_copy) {
        fstack::FfZcRxBuf loans[kRxZcBatch];
        const std::int64_t r = ops.zc_recv(cfd, loans);
        if (r > 0) {
          for (std::int64_t i = 0; i < r; ++i) {
            got += loans[i].data.size();
          }
          ops.zc_recycle_batch({loans, static_cast<std::size_t>(r)});
          progress = true;
          // Feed the loan count back into the adaptive window. A full
          // burst means more may already be queued: drain again next turn
          // instead of re-coalescing from zero.
          const std::uint32_t window =
              pacer.on_drain(static_cast<std::size_t>(r));
          coalesce =
              static_cast<std::size_t>(r) == kRxZcBatch ? window : 0;
        } else if (r == 0) {
          eof = true;
        } else {
          hot = false;  // drained: wait for the next published event
          coalesce = 0;
        }
      } else {
        const std::int64_t r = ops.read(cfd, rx_buf, 1448);  // v1: per-MSS
        if (r > 0) {
          got += static_cast<std::uint64_t>(r);
          progress = true;
        } else if (r == 0) {
          eof = true;
        }
      }
      (void)libc.clock_gettime_mono_raw_ns();
      if (probes->entry_now) {
        probes->entry_crossings += probes->entry_now() - e0;
      }
      if (probes->tramp_now) {
        probes->tramp_crossings += probes->tramp_now() - t0;
      }
      ++*api_calls;
    }
    if (!turn(progress)) break;
  }
  if (cfd >= 0) ops.close(cfd);
  ops.close(ep);
  ops.close(lfd);
  return got;
}

}  // namespace

RxCensus run_ffrecv_rx_census(ScenarioKind kind, std::uint64_t total_bytes,
                              bool zero_copy, const TestbedOptions& opt) {
  RxCensus out;
  const sim::CostModel price = sim::CostModel::morello();
  const double mib = static_cast<double>(total_bytes) / (1024.0 * 1024.0);

  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  arb.set_mode(sim::ArbiterMode::kBaton);  // counts, not wall clock
  std::atomic<bool> stop{false};
  const InstanceConfig icfg = tb.morello_cfg(0);

  const auto sample_stack = [&out](fstack::FfStack& st) {
    out.copied_bytes = st.rx_stats().copied_bytes;
    out.zc_loans = st.api_stats().zc_rx_loans;
    out.zc_recycles = st.api_stats().zc_rx_recycles;
  };

  if (kind == ScenarioKind::kScenario1) {
    arb.expect_participants(2);
    PeerHost& peer = tb.make_peer(0);
    peer.run_iperf_client(MorelloTestbed::morello_ip(0), kIperfPort,
                          total_bytes);
    peer.start();
    Scenario1Cvm s1(iv, tb.card(), 0, icfg, "cVM1-rx-census");
    CensusProbes probes;
    probes.tramp_now = [&] { return s1.cvm().trampoline().crossings(); };
    s1.cvm().start([&] {
      FullStackInstance& inst = s1.instance();
      const machine::CapView rx_buf = s1.alloc(4096);
      const machine::CapView ring_mem =
          s1.alloc(fstack::FfEventRing::bytes_for(kRxRingSlots));
      sim::Participant part(arb, "rx-census-probe");
      out.bytes = census_recv_loop(
          s1.ops(), s1.libc(), rx_buf, ring_mem, total_bytes, zero_copy,
          &out.api_calls, &probes, [&](bool made_progress) {
            const std::uint64_t token = part.prepare();
            const bool progress = inst.run_once() || made_progress;
            if (!progress) {
              part.wait(token, capped_deadline(inst.next_deadline(),
                                               clock.now(), kProbeHeartbeat));
            }
            return true;
          });
      for (int i = 0; i < 10000; ++i) {
        if (!inst.run_once()) break;  // drain FIN exchange
      }
      sample_stack(inst.stack());
    });
    s1.cvm().join();
    peer.request_stop();
    peer.join();
    out.crossings = probes.tramp_crossings;
    out.modeled_ns_per_mib =
        mib > 0 ? static_cast<double>(out.crossings) *
                      static_cast<double>(price.trampoline_crossing().count()) /
                      mib
                : 0.0;
    return out;
  }

  if (kind != ScenarioKind::kScenario2Uncontended) return out;

  // ---- Scenario 2 (uncontended): the receive side lives across the
  // compartment boundary; the zero-copy path's loans and event batches are
  // exactly what keeps the app from crossing per packet.
  arb.expect_participants(3);
  PeerHost& peer = tb.make_peer(0);
  peer.run_iperf_client(MorelloTestbed::morello_ip(0), kIperfPort,
                        total_bytes);
  peer.start();
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), clock, icfg);
  Scenario2Service svc(iv, cvm1, inst);
  cvm1.start([&] { svc.run_loop(stop, arb); });

  iv::CVM& app = iv.create_cvm("cVM2-rx-census", 16u << 20);
  auto ops = svc.make_proxy_ops(app);
  CensusProbes probes;
  probes.entry_now = [&] { return iv.entries().crossings(); };
  probes.tramp_now = [&] { return app.trampoline().crossings(); };
  app.start([&] {
    const machine::CapView rx_buf = app.alloc(4096);
    const machine::CapView ring_mem =
        app.alloc(fstack::FfEventRing::bytes_for(kRxRingSlots));
    sim::Participant part(arb, "rx-census-probe");
    out.bytes = census_recv_loop(
        *ops, app.libc(), rx_buf, ring_mem, total_bytes, zero_copy,
        &out.api_calls, &probes, [&](bool made_progress) {
          const std::uint64_t token = part.prepare();
          if (!made_progress) part.wait(token, clock.now() + kProbeHeartbeat);
          return true;
        });
  });
  app.join();
  stop.store(true);
  arb.kick();
  cvm1.join();
  peer.request_stop();
  peer.join();
  sample_stack(inst.stack());

  const double entry_cost = static_cast<double>(
      price.trampoline_crossing().count() + price.domain_switch_extra.count());
  out.crossings = probes.entry_crossings + probes.tramp_crossings;
  out.modeled_ns_per_mib =
      mib > 0
          ? (static_cast<double>(probes.entry_crossings) * entry_cost +
             static_cast<double>(probes.tramp_crossings) *
                 static_cast<double>(price.trampoline_crossing().count())) /
                mib
          : 0.0;
  return out;
}

// ===========================================================================
// API v3 uring census: the byte volumes of the v2 censuses above, moved
// through the ff_uring ring. Submissions are plain capability stores,
// completions plain loads; the measured phase begins at the arming
// crossing, so the crossing count is exactly arm + doorbells (+ the
// one-time epoll_ctl of an accepted fd on the receive side).
// ===========================================================================

namespace {

constexpr std::uint32_t kUringSqSlots = 64;
constexpr std::uint32_t kUringCqSlots = 128;
// CQE reap batch and user_data tags of the census loops.
constexpr std::size_t kUringReap = 16;
constexpr std::uint64_t kUdAccept = 1;
constexpr std::uint64_t kUdEpoll = 2;
// Doorbell policy of the census apps: the shared stall-based
// FfUringDoorbellPolicy (ring only when submissions genuinely sat
// unclaimed; a parked stack wakes on its own heartbeat regardless).

/// Begin/end markers of the measured phase (crossing attribution).
void probes_begin(CensusProbes* p, std::uint64_t* e0, std::uint64_t* t0) {
  *e0 = p->entry_now ? p->entry_now() : 0;
  *t0 = p->tramp_now ? p->tramp_now() : 0;
}
void probes_end(CensusProbes* p, std::uint64_t e0, std::uint64_t t0) {
  if (p->entry_now) p->entry_crossings += p->entry_now() - e0;
  if (p->tramp_now) p->tramp_crossings += p->tramp_now() - t0;
}

/// Connection establishment shared by the TX census loops: classic
/// readiness path; the ring phase begins — and is measured — from the
/// arming crossing on. Returns the connected fd (and the epoll fd used to
/// gate on EPOLLOUT) or -1 when the turn callback gave up.
int census_tx_connect(apps::FfOps& ops, int* ep_out,
                      const std::function<bool(bool)>& turn) {
  const int fd = ops.socket_stream();
  ops.connect(fd, MorelloTestbed::peer_ip(0), kIperfPort);
  const int ep = ops.epoll_create();
  ops.epoll_ctl(ep, fstack::EpollOp::kAdd, fd, fstack::kEpollOut, 1);
  for (bool writable = false; !writable;) {
    fstack::FfEpollEvent ev[1];
    writable = ops.epoll_wait(ep, ev) > 0 &&
               (ev[0].events & fstack::kEpollOut) != 0;
    if (!turn(false)) {
      ops.close(ep);
      ops.close(fd);
      return -1;
    }
  }
  *ep_out = ep;
  return fd;
}

/// TX over the ring: cover `total_bytes` with OP_WRITEV SQEs of up to 8
/// MSS-sized iovec capabilities each via the shared UringTxProto
/// (apps/uring_proto.hpp — the same submit/re-offer protocol the
/// IperfClient ring port runs); the census adds its SQE/CQE counters and
/// crossing envelope around it.
std::uint64_t uring_tx_loop(apps::FfOps& ops, const machine::CapView& buf,
                            const machine::CapView& ring_mem,
                            std::uint64_t total_bytes, std::size_t wsize,
                            UringCensus* out, CensusProbes* probes,
                            const std::function<bool(bool)>& turn) {
  int ep = -1;
  const int fd = census_tx_connect(ops, &ep, turn);
  if (fd < 0) return 0;

  std::uint64_t e0 = 0;
  std::uint64_t t0 = 0;
  probes_begin(probes, &e0, &t0);
  fstack::FfUring ring(ring_mem, kUringSqSlots, kUringCqSlots);
  const int id = ops.uring_attach(ring_mem, kUringSqSlots, kUringCqSlots);
  if (id < 0) {
    probes_end(probes, e0, t0);
    ops.close(ep);
    ops.close(fd);
    return 0;
  }

  apps::UringTxProto proto(&ring, fd, buf, wsize,
                           fstack::FfUringSqe::kMaxCaps);
  fstack::FfUringDoorbellPolicy bell;
  while (proto.acked() < total_bytes) {
    bool progress = false;
    const std::uint32_t pushed = proto.offer(total_bytes);
    out->sqes += pushed;
    progress |= pushed > 0;
    fstack::FfUringCqe cq[kUringReap];
    const std::size_t n = ring.cq_pop(cq);
    for (std::size_t i = 0; i < n; ++i) {
      out->cqes++;
      proto.on_cqe(cq[i]);
      progress = true;
    }
    if (bell.should_ring(ring, progress)) {
      ops.uring_doorbell(id);  // genuinely unclaimed work: one crossing
      out->doorbells++;
    }
    if (!turn(progress)) break;
  }
  probes_end(probes, e0, t0);
  ops.uring_detach(id);
  ops.close(ep);
  ops.close(fd);
  return proto.acked();
}

/// Zero-copy TX over the ring: the full v3 TCP zc pipeline. OP_ZC_ALLOC
/// grants writable bounded capabilities into mbuf data rooms, the payload
/// is composed in place, OP_ZC_SEND queues retained references the stack
/// holds until cumulative ACK — zero send-side byte copies AND zero
/// crossings per op (the alloc round trip rides the ring too, so the
/// doorbell-only crossing budget is unchanged from the OP_WRITEV path).
std::uint64_t uring_zc_tx_loop(apps::FfOps& ops, const machine::CapView& buf,
                               const machine::CapView& ring_mem,
                               std::uint64_t total_bytes, std::size_t wsize,
                               UringCensus* out, CensusProbes* probes,
                               const std::function<bool(bool)>& turn) {
  int ep = -1;
  const int fd = census_tx_connect(ops, &ep, turn);
  if (fd < 0) return 0;

  std::uint64_t e0 = 0;
  std::uint64_t t0 = 0;
  probes_begin(probes, &e0, &t0);
  fstack::FfUring ring(ring_mem, kUringSqSlots, kUringCqSlots);
  const int id = ops.uring_attach(ring_mem, kUringSqSlots, kUringCqSlots);
  if (id < 0) {
    probes_end(probes, e0, t0);
    ops.close(ep);
    ops.close(fd);
    return 0;
  }

  std::byte scratch[512];
  apps::UringZcTxProto proto(
      &ring, fd, wsize,
      [&buf, &scratch](const machine::CapView& room, std::size_t len) {
        // The application composes its payload straight into the granted
        // data room — ITS write through ITS bounded capability, not a
        // stack-side copy.
        machine::cap_copy(room, 0, buf, 0, len, scratch);
      });
  fstack::FfUringDoorbellPolicy bell;
  while (proto.acked() < total_bytes && !proto.failed()) {
    bool progress = false;
    const std::uint32_t pushed = proto.pump(total_bytes);
    out->sqes += pushed;
    progress |= pushed > 0;
    fstack::FfUringCqe cq[kUringReap];
    const std::size_t n = ring.cq_pop(cq);
    for (std::size_t i = 0; i < n; ++i) {
      out->cqes++;
      proto.on_cqe(cq[i]);
      progress = true;
    }
    if (bell.should_ring(ring, progress)) {
      ops.uring_doorbell(id);
      out->doorbells++;
    }
    if (!turn(progress)) break;
  }
  probes_end(probes, e0, t0);
  ops.uring_detach(id);
  ops.close(ep);
  ops.close(fd);
  return proto.acked();
}

/// RX over the ring: the full v3 pipeline. OP_ACCEPT_MULTISHOT posts the
/// accepted fd, OP_EPOLL_ARM posts readiness, OP_ZC_RECV bursts post one
/// loan CQE each, OP_RECYCLE returns token batches — all with zero
/// crossings per op; the adaptive pacer decides when a drain is worth
/// submitting.
std::uint64_t uring_rx_loop(apps::FfOps& ops,
                            const machine::CapView& ring_mem,
                            std::uint64_t total_bytes, UringCensus* out,
                            CensusProbes* probes,
                            const std::function<bool(bool)>& turn) {
  const int lfd = ops.socket_stream();
  ops.bind(lfd, fstack::Ipv4Addr{}, kIperfPort);
  ops.listen(lfd, 4);
  const int ep = ops.epoll_create();

  std::uint64_t e0 = 0;
  std::uint64_t t0 = 0;
  probes_begin(probes, &e0, &t0);
  fstack::FfUring ring(ring_mem, kUringSqSlots, kUringCqSlots);
  const int id = ops.uring_attach(ring_mem, kUringSqSlots, kUringCqSlots);
  if (id < 0) {
    probes_end(probes, e0, t0);
    ops.close(ep);
    ops.close(lfd);
    return 0;
  }

  if (apps::push_accept_arm(ring, lfd, kUdAccept)) out->sqes++;
  if (apps::push_epoll_arm(ring, ep, kUdEpoll)) out->sqes++;

  int cfd = -1;
  bool hot = false;
  bool eof = false;
  bool zc_inflight = false;
  std::uint64_t got = 0;
  std::uint32_t burst_loans = 0;
  RxDrainPacer pacer;
  std::uint32_t coalesce = 0;
  // Token batches ride OP_RECYCLE entries; a refused push falls back to
  // one classic recycle crossing so tokens can never pile up unreturned.
  fstack::FfUringRecycler recycler(&ring,
                                   apps::classic_recycle_fallback(&ops));
  fstack::FfUringDoorbellPolicy bell;

  // The shared receive-pipeline CQE discipline (apps/uring_proto.hpp —
  // the same dispatch the IperfServer ring port runs) bound to the census
  // loop's probe state.
  struct CensusRxDispatch {
    apps::FfOps& ops;
    int ep;
    int& cfd;
    bool& hot;
    bool& eof;
    bool& zc_inflight;
    std::uint64_t& got;
    std::uint32_t& burst_loans;
    RxDrainPacer& pacer;
    std::uint32_t& coalesce;
    fstack::FfUringRecycler& recycler;

    void on_accept(int fd, const fstack::FfSockAddrIn&) {
      if (cfd >= 0) return;
      cfd = fd;
      // The one residual classic call of the pipeline: register the
      // accepted fd's readiness interest (one-time, per connection).
      ops.epoll_ctl(ep, fstack::EpollOp::kAdd, cfd, fstack::kEpollIn,
                    static_cast<std::uint64_t>(cfd));
      hot = true;
    }
    void on_readiness(std::uint32_t mask, std::uint64_t) {
      // Mask-change publications include readable->quiet; only a
      // readable/hangup mask warrants a drain burst.
      if ((mask & (fstack::kEpollIn | fstack::kEpollHup)) != 0) hot = true;
    }
    void on_loan(const fstack::FfUringCqe& cqe) {
      got += static_cast<std::uint64_t>(cqe.result);
      burst_loans++;
      recycler.add(cqe.aux0);
    }
    void on_eof(std::uint64_t) { eof = true; }
    void on_drained(std::uint64_t) {
      hot = false;  // drained: wait for the next readiness CQE
    }
    void on_coalescing(std::uint64_t) {
      // stay hot: queued datagrams are waiting out the burst timeout
    }
    void on_burst_end(std::uint64_t) {
      zc_inflight = false;
      const std::uint32_t window =
          pacer.on_drain(burst_loans, fstack::FfUringSqe::kMaxCaps);
      coalesce = burst_loans == fstack::FfUringSqe::kMaxCaps ? window : 0;
      burst_loans = 0;
    }
  } dispatch{ops,  ep,          cfd,   hot,      eof, zc_inflight,
             got,  burst_loans, pacer, coalesce, recycler};

  while ((got < total_bytes && !eof) || zc_inflight) {
    bool progress = false;
    fstack::FfUringCqe cq[kUringReap];
    const std::size_t n = ring.cq_pop(cq);
    for (std::size_t i = 0; i < n; ++i) {
      out->cqes++;
      progress = true;
      apps::dispatch_rx_cqe(cq[i], dispatch);
    }
    ++coalesce;
    if (cfd >= 0 && hot && !zc_inflight && !eof && got < total_bytes &&
        coalesce >= pacer.window) {
      if (apps::push_zc_recv(ring, cfd, fstack::FfUringSqe::kMaxCaps, 0)) {
        out->sqes++;
        zc_inflight = true;
        burst_loans = 0;
      }
    }
    if (bell.should_ring(ring, progress)) {
      ops.uring_doorbell(id);  // genuinely unclaimed work: one crossing
      out->doorbells++;
    }
    if (!turn(progress)) break;
  }
  // Return every outstanding loan and let the stack consume the entries.
  recycler.flush();
  for (int spins = 0; spins < 10000 && ring.sq_pending() > 0; ++spins) {
    fstack::FfUringCqe cq[kUringReap];
    const bool popped = ring.cq_pop(cq) > 0;
    if (!turn(popped)) break;
  }
  recycler.flush_sync();  // teardown: nothing may stay window-charged
  out->sqes += recycler.ring_pushes();
  probes_end(probes, e0, t0);
  ops.uring_detach(id);
  if (cfd >= 0) ops.close(cfd);
  ops.close(ep);
  ops.close(lfd);
  return got;
}

}  // namespace

UringCensus run_uring_tx_census(ScenarioKind kind, std::uint64_t total_bytes,
                                const TestbedOptions& opt, bool zero_copy) {
  UringCensus out;
  const std::size_t wsize = 1448;
  const sim::CostModel price = sim::CostModel::morello();
  const double mib = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  const std::size_t ring_bytes =
      fstack::FfUring::bytes_for(kUringSqSlots, kUringCqSlots);

  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  arb.set_mode(sim::ArbiterMode::kBaton);  // counts, not wall clock
  std::atomic<bool> stop{false};

  // Like the v1/v2 census: the send buffer holds the whole volume so the
  // comparison prices the per-call fixed costs, not backpressure. (On the
  // zc path the in-flight volume is additionally pool-bounded: alloc
  // answers -ENOBUFS near exhaustion and the app coasts on ACK progress.)
  InstanceConfig icfg = tb.morello_cfg(0);
  icfg.tcp.sndbuf_bytes =
      std::max<std::size_t>(icfg.tcp.sndbuf_bytes, total_bytes + (64u << 10));

  const auto tx_loop = zero_copy ? uring_zc_tx_loop : uring_tx_loop;
  const auto sample_tx = [&out](fstack::FfStack& st) {
    out.tx_copied_bytes = st.tx_stats().copied_bytes;
    out.tx_zc_bytes = st.tx_stats().zc_bytes;
    out.tx_emit_payload_reads = st.tx_stats().emit_payload_reads;
    out.stack_checksum_bytes = st.tx_stats().stack_checksum_bytes;
    out.stack_csum_drops = st.stats().csum_errors;
    const updk::EthStats es = st.dev().stats();
    out.tso_frames = es.tso_frames;
    out.tso_bytes = es.tso_bytes;
    out.tx_descs = es.tx_segs;
    out.tx_wire_bytes = es.obytes;
  };
  const auto sample_wire = [&out, &tb]() {
    out.rx_crc_errors = tb.card().port(0).stats().rx_crc_errors;
    out.wire_corrupts = tb.wire(0).stats(1).impair_corrupts;
  };
  CensusProbes probes;
  if (kind == ScenarioKind::kScenario1) {
    arb.expect_participants(2);
    PeerHost& peer = tb.make_peer(0);
    peer.serve_iperf(kIperfPort, 1);
    peer.start();
    Scenario1Cvm s1(iv, tb.card(), 0, icfg, "cVM1-uring-census");
    probes.tramp_now = [&] { return s1.cvm().trampoline().crossings(); };
    s1.cvm().start([&] {
      FullStackInstance& inst = s1.instance();
      const machine::CapView buf = s1.alloc(wsize);
      const machine::CapView ring_mem = s1.alloc(ring_bytes);
      sim::Participant part(arb, "uring-census-probe");
      out.bytes = tx_loop(
          s1.ops(), buf, ring_mem, total_bytes, wsize, &out, &probes,
          [&](bool did) {
            const std::uint64_t token = part.prepare();
            const bool progress = inst.run_once() || did;
            if (!progress) {
              part.wait(token, capped_deadline(inst.next_deadline(),
                                               clock.now(), kProbeHeartbeat));
            }
            return true;
          });
      for (int i = 0; i < 10000; ++i) {
        if (!inst.run_once()) break;  // drain FIN exchange
      }
      sample_tx(inst.stack());
    });
    s1.cvm().join();
    peer.request_stop();
    peer.join();
    sample_wire();
    out.crossings = probes.entry_crossings + probes.tramp_crossings;
    out.modeled_ns_per_mib =
        mib > 0 ? static_cast<double>(out.crossings) *
                      static_cast<double>(price.trampoline_crossing().count()) /
                      mib
                : 0.0;
    return out;
  }

  if (kind != ScenarioKind::kScenario2Uncontended) return out;

  arb.expect_participants(3);
  PeerHost& peer = tb.make_peer(0);
  peer.serve_iperf(kIperfPort, 1);
  peer.start();
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), clock, icfg);
  Scenario2Service svc(iv, cvm1, inst);
  cvm1.start([&] { svc.run_loop(stop, arb); });

  iv::CVM& app = iv.create_cvm("cVM2-uring-census", 16u << 20);
  auto ops = svc.make_proxy_ops(app);
  probes.entry_now = [&] { return iv.entries().crossings(); };
  probes.tramp_now = [&] { return app.trampoline().crossings(); };
  app.start([&] {
    const machine::CapView buf = app.alloc(wsize);
    const machine::CapView ring_mem = app.alloc(ring_bytes);
    sim::Participant part(arb, "uring-census-probe");
    out.bytes = tx_loop(*ops, buf, ring_mem, total_bytes, wsize, &out,
                        &probes, [&](bool did) {
                          const std::uint64_t token = part.prepare();
                          if (!did) {
                            part.wait(token, clock.now() + kProbeHeartbeat);
                          }
                          return true;
                        });
  });
  app.join();
  stop.store(true);
  arb.kick();
  cvm1.join();
  peer.request_stop();
  peer.join();
  sample_tx(inst.stack());
  sample_wire();

  const double entry_cost = static_cast<double>(
      price.trampoline_crossing().count() + price.domain_switch_extra.count());
  out.crossings = probes.entry_crossings + probes.tramp_crossings;
  out.modeled_ns_per_mib =
      mib > 0
          ? (static_cast<double>(probes.entry_crossings) * entry_cost +
             static_cast<double>(probes.tramp_crossings) *
                 static_cast<double>(price.trampoline_crossing().count())) /
                mib
          : 0.0;
  return out;
}

UringCensus run_uring_rx_census(ScenarioKind kind, std::uint64_t total_bytes,
                                const TestbedOptions& opt) {
  UringCensus out;
  const sim::CostModel price = sim::CostModel::morello();
  const double mib = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  const std::size_t ring_bytes =
      fstack::FfUring::bytes_for(kUringSqSlots, kUringCqSlots);

  MorelloTestbed tb(opt);
  auto& iv = tb.intravisor();
  auto& clock = tb.clock();
  auto& arb = tb.arbiter();
  arb.set_mode(sim::ArbiterMode::kBaton);  // counts, not wall clock
  std::atomic<bool> stop{false};
  const InstanceConfig icfg = tb.morello_cfg(0);

  // Lossy-wire instrumentation: FCS rejects at the Morello port must match
  // the wire's peer-egress corruption census one for one, and the stack's
  // checksum drop count says whether anything leaked past FCS.
  const auto sample_rx = [&out, &tb](fstack::FfStack& st) {
    out.stack_csum_drops = st.stats().csum_errors;
    out.rx_crc_errors = tb.card().port(0).stats().rx_crc_errors;
    out.wire_corrupts = tb.wire(0).stats(1).impair_corrupts;
  };
  CensusProbes probes;
  if (kind == ScenarioKind::kScenario1) {
    arb.expect_participants(2);
    PeerHost& peer = tb.make_peer(0);
    peer.run_iperf_client(MorelloTestbed::morello_ip(0), kIperfPort,
                          total_bytes);
    peer.start();
    Scenario1Cvm s1(iv, tb.card(), 0, icfg, "cVM1-uring-rx");
    probes.tramp_now = [&] { return s1.cvm().trampoline().crossings(); };
    s1.cvm().start([&] {
      FullStackInstance& inst = s1.instance();
      const machine::CapView ring_mem = s1.alloc(ring_bytes);
      sim::Participant part(arb, "uring-rx-probe");
      out.bytes = uring_rx_loop(
          s1.ops(), ring_mem, total_bytes, &out, &probes, [&](bool did) {
            const std::uint64_t token = part.prepare();
            const bool progress = inst.run_once() || did;
            if (!progress) {
              part.wait(token, capped_deadline(inst.next_deadline(),
                                               clock.now(), kProbeHeartbeat));
            }
            return true;
          });
      for (int i = 0; i < 10000; ++i) {
        if (!inst.run_once()) break;
      }
    });
    s1.cvm().join();
    peer.request_stop();
    peer.join();
    sample_rx(s1.instance().stack());
    out.crossings = probes.entry_crossings + probes.tramp_crossings;
    out.modeled_ns_per_mib =
        mib > 0 ? static_cast<double>(out.crossings) *
                      static_cast<double>(price.trampoline_crossing().count()) /
                      mib
                : 0.0;
    return out;
  }

  if (kind != ScenarioKind::kScenario2Uncontended) return out;

  arb.expect_participants(3);
  PeerHost& peer = tb.make_peer(0);
  peer.run_iperf_client(MorelloTestbed::morello_ip(0), kIperfPort,
                        total_bytes);
  peer.start();
  iv::CVM& cvm1 = iv.create_cvm("cVM1", 96u << 20);
  FullStackInstance inst(tb.card(), 0, cvm1.heap(), clock, icfg);
  Scenario2Service svc(iv, cvm1, inst);
  cvm1.start([&] { svc.run_loop(stop, arb); });

  iv::CVM& app = iv.create_cvm("cVM2-uring-rx", 16u << 20);
  auto ops = svc.make_proxy_ops(app);
  probes.entry_now = [&] { return iv.entries().crossings(); };
  probes.tramp_now = [&] { return app.trampoline().crossings(); };
  app.start([&] {
    const machine::CapView ring_mem = app.alloc(ring_bytes);
    sim::Participant part(arb, "uring-rx-probe");
    out.bytes = uring_rx_loop(*ops, ring_mem, total_bytes, &out, &probes,
                              [&](bool did) {
                                const std::uint64_t token = part.prepare();
                                if (!did) {
                                  part.wait(token,
                                            clock.now() + kProbeHeartbeat);
                                }
                                return true;
                              });
  });
  app.join();
  stop.store(true);
  arb.kick();
  cvm1.join();
  peer.request_stop();
  peer.join();
  sample_rx(inst.stack());

  const double entry_cost = static_cast<double>(
      price.trampoline_crossing().count() + price.domain_switch_extra.count());
  out.crossings = probes.entry_crossings + probes.tramp_crossings;
  out.modeled_ns_per_mib =
      mib > 0
          ? (static_cast<double>(probes.entry_crossings) * entry_cost +
             static_cast<double>(probes.tramp_crossings) *
                 static_cast<double>(price.trampoline_crossing().count())) /
                mib
          : 0.0;
  return out;
}

}  // namespace cherinet::scen
