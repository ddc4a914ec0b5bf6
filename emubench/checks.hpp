// Output checks of the benchmark, kept free of any testbed state so the
// self-test can feed them corrupted inputs directly.
//
// Every stream the benchmark moves carries a payload derived from the run's
// seed: byte `off` of stream `key` is a fixed function of (key, off). The
// sending side composes it, the receiving side recomputes it and compares
// every byte, so a check never depends on what the emulator printed before.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "sim/testbed.hpp"

namespace emubench {

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Key of one stream: the run's seed, the round, and the stream's index
/// within the round.
[[nodiscard]] inline std::uint64_t stream_key(std::uint64_t seed,
                                              std::uint64_t round,
                                              std::uint64_t stream) noexcept {
  return mix64(mix64(seed) ^ mix64(round * 0x100000001b3ULL + stream));
}

/// Write bytes [off, off + out.size()) of stream `key` into `out`.
inline void fill_pattern(std::uint64_t key, std::uint64_t off,
                         std::span<std::byte> out) noexcept {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t pos = off + i;
    const std::uint64_t word = mix64(key ^ (pos >> 3));
    for (std::uint64_t b = pos & 7; b < 8 && i < out.size(); ++b, ++i) {
      out[i] = static_cast<std::byte>(word >> (8 * b));
    }
  }
}

/// Receiving-side check of one stream: feeds arrive in order; every byte is
/// compared against the recomputed pattern.
class StreamCheck {
 public:
  explicit StreamCheck(std::uint64_t key = 0) : key_(key) {}

  void feed(std::span<const std::byte> in) {
    std::byte expect[2048];
    for (std::size_t done = 0; done < in.size();) {
      const std::size_t n = std::min(in.size() - done, sizeof expect);
      fill_pattern(key_, got_ + done, {expect, n});
      if (std::memcmp(expect, in.data() + done, n) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
          if (expect[i] != in[done + i]) {
            if (mismatches_ == 0) first_bad_ = got_ + done + i;
            ++mismatches_;
          }
        }
      }
      done += n;
    }
    got_ += in.size();
  }

  [[nodiscard]] std::uint64_t received() const noexcept { return got_; }
  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_;
  }
  [[nodiscard]] std::uint64_t first_bad() const noexcept { return first_bad_; }

 private:
  std::uint64_t key_;
  std::uint64_t got_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t first_bad_ = 0;
};

/// Verdict of one delivered stream against what its sender sent. Returns an
/// empty string when the stream is whole and byte-exact.
[[nodiscard]] inline std::string check_stream(const StreamCheck& c,
                                              std::uint64_t sent) {
  if (c.mismatches() != 0) {
    return "payload mismatch: " + std::to_string(c.mismatches()) +
           " bytes differ, first at offset " + std::to_string(c.first_bad());
  }
  if (c.received() != sent) {
    return "short delivery: received " + std::to_string(c.received()) +
           " of " + std::to_string(sent) + " bytes";
  }
  return {};
}

/// Goodput ceiling of one port for full-size segments, computed from the
/// testbed's own wire constants: the payload share of each frame's wire
/// occupancy (MTU + Ethernet header + preamble, FCS and gap).
[[nodiscard]] inline double port_ceiling_mbps(
    const cherinet::sim::Testbed& phys) {
  constexpr double kEthHeader = 14;
  const double wire_bytes = phys.mtu + kEthHeader +
                            static_cast<double>(phys.wire_overhead_bytes());
  return phys.wire_bits_per_sec * phys.mss / wire_bytes / 1e6;
}

/// Modeled goodput over a virtual span must not beat the ceiling.
[[nodiscard]] inline std::string check_goodput(double goodput_mbps,
                                               double ceiling_mbps) {
  if (!(goodput_mbps > 0.0)) return "no modeled goodput";
  if (goodput_mbps > ceiling_mbps) {
    return "modeled goodput " + std::to_string(goodput_mbps) +
           " Mbit/s exceeds the port ceiling " + std::to_string(ceiling_mbps);
  }
  return {};
}

}  // namespace emubench
