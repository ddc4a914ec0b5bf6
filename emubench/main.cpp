// emubench: one benchmark for the CHERI network-stack emulator.
//
//   emubench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-dir DIR]
//
// Runs whole rounds of one workload until S seconds of host time have
// passed, checks every round's outputs, and prints a text report followed
// by one JSON line: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs report the per-layer
// metrics and write their spans to DIR. Figures are marked [host] (measured
// on this machine's clocks) or [modeled] (virtual time or CostModel prices)
// and never combined.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using namespace emubench;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* clock;   // "host", "modeled" or "count"
  bool gated = true;   // part of the JSON result
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Count of samples strictly beyond the q-th percentile (the tail that
/// percentile rests on).
std::size_t beyond(const std::vector<double>& sorted, double q) {
  const double p = percentile(sorted, q);
  return static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p));
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile(v, q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// End-to-end metrics. Host figures other than set-up are the best
/// quartile of the run's rounds: bursts of other work on the host slow every host figure of the
/// rounds they cover (3x and more), and a quartile taken from the good side
/// ignores up to three quarters of disturbed rounds while still being a
/// typical round, not the single best one. Set-up is the median, the modeled
/// goodput the median (it repeats across rounds).
std::vector<Metric> end_to_end(const std::vector<RoundResult>& rounds) {
  std::vector<double> setup, rate, cpu, goodput, p50;
  for (const RoundResult& r : rounds) {
    const double mib = static_cast<double>(r.payload_bytes) / (1u << 20);
    setup.push_back(r.setup_s);
    rate.push_back(ratio(static_cast<double>(r.payload_bytes) * 8.0 / 1e6,
                         r.measured_s));
    cpu.push_back(ratio(r.cpu_s * 1e3, mib));
    goodput.push_back(
        ratio(static_cast<double>(r.payload_bytes) * 8e3, r.virtual_ns));
    std::vector<double> ops = r.op_ns;
    std::sort(ops.begin(), ops.end());
    p50.push_back(percentile(ops, 0.50));
  }
  return {
      {"setup_s", median(setup), "s", "host"},
      {"peak_rss_mib", rounds.front().peak_rss_mib, "MiB", "host"},
      {"goodput_mbps", median(goodput), "Mbit/s", "modeled"},
      {"op_p50_ns", quantile(p50, 0.25), "ns", "host"},
      // Simulator throughput and CPU cost: printed, not gated. A slowdown
      // of the whole host for minutes moves them 1.4-5x (README).
      {"host_rate_mbps", quantile(rate, 0.75), "Mbit/s", "host", false},
      {"cpu_ms_per_mib", quantile(cpu, 0.25), "ms/MiB", "host", false},
  };
}

/// Run totals of every per-layer metric, ratios recomputed from the totals.
std::vector<Metric> layer_totals(const std::vector<RoundResult>& rounds) {
  std::map<std::string, double> L;
  double host_s = 0.0;
  double virtual_ns = 0.0;
  for (const RoundResult& r : rounds) {
    for (const auto& [k, v] : r.layer) L[k] += v;
    host_s += r.measured_s;
    virtual_ns += r.virtual_ns;
  }
  const WrapperCounters& c = counters();
  const auto d = [](const std::atomic<std::uint64_t>& a) {
    return static_cast<double>(a.load());
  };
  return {
      {"apps.ffops.calls", d(c.ffops_calls), "count", "count"},
      {"apps.ffops.busy_ns", d(c.ffops_busy_ns), "ns", "host"},
      {"apps.ffops.would_block", d(c.ffops_would_block), "count", "count"},
      {"apps.ffops.useful_ratio", ratio(d(c.ffops_useful), d(c.ffops_calls)),
       "ratio", "count"},
      {"apps.ring.sqes", d(c.ring_sqes), "count", "count"},
      {"apps.ring.cqes", d(c.ring_cqes), "count", "count"},
      {"apps.ring.doorbells", d(c.ring_doorbells), "count", "count"},
      {"apps.ring.sqe_useful_ratio",
       ratio(d(c.ring_useful_sqes), d(c.ring_sqes)), "ratio", "count"},
      {"intravisor.trampoline.crossings", L["intravisor.trampoline.crossings"],
       "count", "count"},
      {"intravisor.sealed_entry.crossings",
       L["intravisor.sealed_entry.crossings"], "count", "count"},
      {"intravisor.mutex.fast", L["intravisor.mutex.fast"], "count", "count"},
      {"intravisor.mutex.contended", L["intravisor.mutex.contended"], "count",
       "count"},
      {"intravisor.syscalls", L["intravisor.syscalls"], "count", "count"},
      {"host.umtx.sleeps", L["host.umtx.sleeps"], "count", "count"},
      {"sim.arbiter.waits", d(c.arbiter_waits), "count", "count"},
      {"sim.arbiter.wait_ns", d(c.arbiter_wait_ns), "ns", "host"},
      {"sim.virtual_ns", virtual_ns, "ns", "modeled"},
      {"sim.slowdown", ratio(host_s * 1e9, virtual_ns), "s/s", "host"},
      {"sim.modeled_crossing_ns", L["sim.modeled_crossing_ns"], "ns",
       "modeled"},
      {"scenarios.proxied_calls", L["scenarios.proxied_calls"], "count",
       "count"},
      {"scenarios.stack_cpu_ns", d(c.stack_cpu_ns), "ns", "host"},
      {"scenarios.app_cpu_ns", d(c.app_cpu_ns), "ns", "host"},
      {"fstack.run_once.calls", d(c.run_once_calls), "count", "count"},
      {"fstack.run_once.busy_ns", d(c.run_once_busy_ns), "ns", "host"},
      {"fstack.run_once.useful_ratio",
       ratio(d(c.run_once_useful), d(c.run_once_calls)), "ratio", "count"},
      {"fstack.tx_frames", L["fstack.tx_frames"], "count", "count"},
      {"fstack.rx_frames", L["fstack.rx_frames"], "count", "count"},
      {"fstack.tcp.rexmits", L["fstack.tcp.rexmits"], "count", "count"},
      {"fstack.tx.copied_bytes", L["fstack.tx.copied_bytes"], "B", "count"},
      {"fstack.tx.zc_bytes", L["fstack.tx.zc_bytes"], "B", "count"},
      {"fstack.tx.stack_checksum_bytes", L["fstack.tx.stack_checksum_bytes"],
       "B", "count"},
      {"fstack.rx.copied_bytes", L["fstack.rx.copied_bytes"], "B", "count"},
      {"fstack.rx.loaned_bytes", L["fstack.rx.loaned_bytes"], "B", "count"},
      {"fstack.api.uring_drains", L["fstack.api.uring_drains"], "count",
       "count"},
      {"fstack.api.uring_sqe_errors", L["fstack.api.uring_sqe_errors"],
       "count", "count"},
      {"fstack.api.validation_sweeps", L["fstack.api.validation_sweeps"],
       "count", "count"},
      {"updk.tx_bursts", L["updk.tx_bursts"], "count", "count"},
      {"updk.opackets", L["updk.opackets"], "count", "count"},
      {"updk.frames_per_burst", ratio(L["updk.opackets"], L["updk.tx_bursts"]),
       "frames/burst", "count"},
      {"updk.tx_segs", L["updk.tx_segs"], "count", "count"},
      {"updk.ipackets", L["updk.ipackets"], "count", "count"},
      {"updk.imissed", L["updk.imissed"], "count", "count"},
      {"nic.wire.tx_frames", L["nic.wire.tx_frames"], "count", "count"},
      {"nic.wire.tx_bytes", L["nic.wire.tx_bytes"], "B", "count"},
      {"nic.wire.dropped", L["nic.wire.dropped"], "count", "count"},
      {"nic.dev.rx_no_desc", L["nic.dev.rx_no_desc"], "count", "count"},
      {"nic.bus.bytes", L["nic.bus.bytes"], "B", "count"},
      {"machine.context.switches", d(c.context_switches), "count", "count"},
  };
}

/// Per-layer metrics: library counters summed over rounds, the
/// benchmark's wrapper counters, and ratios recomputed from those sums.
/// Counts, bytes and times are per round (a round's inputs are fixed), so
/// they do not grow with how many rounds a run fits.
std::vector<Metric> per_layer(const std::vector<RoundResult>& rounds) {
  std::vector<Metric> m = layer_totals(rounds);
  for (Metric& x : m) {
    if (x.unit == "count" || x.unit == "ns" || x.unit == "B") {
      x.value /= static_cast<double>(rounds.size());
      x.unit += "/round";
    }
  }
  return m;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Ends the process if the run overstays its budget: a wedged simulation
/// thread cannot be stopped from outside, and the run must still exit.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock lk(mu_);
          if (!cv_.wait_for(lk, limit, [this] { return done_; })) {
            std::fprintf(stderr, "emubench: run exceeded %lld s, aborting\n",
                         static_cast<long long>(limit.count()));
            std::fflush(stdout);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int usage() {
  std::fprintf(stderr,
               "usage: emubench --workload "
               "bulk_s2|probe_base|probe_s1|probe_s2|ring_zc --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_dir = ".";
  unsigned long long seed = 0;
  double seconds = -1.0;
  int trace_flag = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace_flag = std::atoi(v);
    } else if (k == "--trace-dir") {
      trace_dir = v;
    } else {
      return usage();
    }
  }
  const std::map<std::string, Workload> table = {
      {"bulk_s2", run_bulk_s2},       {"probe_base", run_probe_base},
      {"probe_s1", run_probe_s1},     {"probe_s2", run_probe_s2},
      {"ring_zc", run_ring_zc},
  };
  const auto it = table.find(workload);
  if (it == table.end() || !(seconds > 0.0) ||
      (trace_flag != 0 && trace_flag != 1)) {
    return usage();
  }
  const bool traced = trace_flag == 1;
  if (traced) trace::Tracer::get().enable();

  const Watchdog watchdog(std::chrono::seconds(170));
  const auto t_start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
        .count();
  };
  std::vector<RoundResult> rounds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  do {
    RoundResult r = it->second(seed, rounds.size());
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      errors.push_back("round " + std::to_string(rounds.size()) + ": " + e);
    }
    rounds.push_back(std::move(r));
  } while (elapsed() < seconds && errors.empty());

  std::printf("emubench: workload=%s seed=%llu rounds=%zu trace=%d\n",
              workload.c_str(), seed, rounds.size(), trace_flag);
  const std::vector<Metric> e2e = end_to_end(rounds);
  for (const Metric& m : e2e) {
    std::printf("  %-34s %16.4f %-12s [%s]%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock, m.gated ? "" : " (not gated)");
  }
  std::printf("  per round: host_rate_mbps / cpu_ms_per_mib [host]:");
  for (const RoundResult& r : rounds) {
    const double mib = static_cast<double>(r.payload_bytes) / (1u << 20);
    std::printf(" %.0f/%.1f",
                ratio(static_cast<double>(r.payload_bytes) * 8.0 / 1e6,
                      r.measured_s),
                ratio(r.cpu_s * 1e3, mib));
  }
  std::printf("\n");
  std::vector<double> ops;
  for (const RoundResult& r : rounds) {
    ops.insert(ops.end(), r.op_ns.begin(), r.op_ns.end());
  }
  std::sort(ops.begin(), ops.end());
  // The p99 is printed for reading only: it is not steady enough between
  // runs to gate on (see README).
  std::printf("  operation latency: %zu samples, p99 %.0f ns [host] "
              "(%zu samples beyond it)\n",
              ops.size(), percentile(ops, 0.99), beyond(ops, 0.99));
  std::vector<Metric> layers;
  if (traced) {
    layers = per_layer(rounds);
    for (const Metric& m : layers) {
      std::printf("  %-34s %16.4f %-12s [%s]\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.clock);
    }
    const auto& tr = trace::Tracer::get();
    const auto self = tr.self_ns();
    const auto total = tr.total_ns();
    const auto count = tr.counts();
    std::printf("  span self time [host]:\n");
    for (std::size_t i = 0; i < self.size(); ++i) {
      if (count[i] == 0) continue;
      std::printf("    %-28s %10llu spans %14.0f ns total %14.0f ns self\n",
                  trace::to_string(static_cast<trace::Name>(i)),
                  static_cast<unsigned long long>(count[i]),
                  static_cast<double>(total[i]),
                  static_cast<double>(self[i]));
    }
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    const std::string path = trace_dir + "/" + workload + "-seed" +
                             std::to_string(seed) + ".spans.tsv";
    if (!tr.write(path)) errors.push_back("could not write " + path);
    std::printf("  spans written to %s\n", path.c_str());
  }
  for (const std::string& e : errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& out = traced ? layers : e2e;
  bool first = true;
  for (const Metric& m : out) {
    if (!m.gated) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
