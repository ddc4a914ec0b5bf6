// Shared declarations of the benchmark program and its workloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace emubench {

/// What one round of a workload reports back to main(). A round builds
/// a fresh testbed, moves its fixed inputs, checks them, and tears down.
struct RoundResult {
  double setup_s = 0.0;       // host: testbed, compartments, peers, connects
  double measured_s = 0.0;    // host wall time of the measured phase
  double cpu_s = 0.0;         // process user+sys CPU in the measured phase
  double virtual_ns = 0.0;    // modeled span of the measured phase
  std::uint64_t payload_bytes = 0;
  std::uint64_t attempted = 0;  // payload chunks, or measured writes
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks
  std::vector<double> op_ns;        // host time of each measured operation
  double peak_rss_mib = 0.0;        // read once the first setup is done
  /// Per-layer counters read from the library's public stats at the end
  /// of the round (summed over rounds by main()).
  std::map<std::string, double> layer;
};

/// Counters the benchmark's own wrappers keep (the timing ones only while
/// tracing). Several simulation threads add to them.
struct WrapperCounters {
  // One cache line each: different simulation threads add to different
  // counters, and a traced run should not add false sharing between them.
  struct alignas(64) Counter : std::atomic<std::uint64_t> {
    Counter() : std::atomic<std::uint64_t>(0) {}
  };
  Counter ffops_calls;
  Counter ffops_busy_ns;
  Counter ffops_would_block;
  Counter ffops_useful;
  Counter ring_sqes;
  Counter ring_cqes;
  Counter ring_doorbells;
  Counter ring_useful_sqes;
  Counter run_once_calls;
  Counter run_once_busy_ns;
  Counter run_once_useful;
  Counter arbiter_waits;
  Counter arbiter_wait_ns;
  Counter stack_cpu_ns;
  Counter app_cpu_ns;
  Counter context_switches;
};
WrapperCounters& counters();

using Workload = RoundResult (*)(std::uint64_t seed, std::uint64_t round);

RoundResult run_bulk_s2(std::uint64_t seed, std::uint64_t round);
RoundResult run_probe_base(std::uint64_t seed, std::uint64_t round);
RoundResult run_probe_s1(std::uint64_t seed, std::uint64_t round);
RoundResult run_probe_s2(std::uint64_t seed, std::uint64_t round);
RoundResult run_ring_zc(std::uint64_t seed, std::uint64_t round);

}  // namespace emubench
