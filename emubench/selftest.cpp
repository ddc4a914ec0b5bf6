// Self-test of the benchmark's output checks: each check must accept the
// intact input and reject the corrupted input it targets (a flipped byte,
// a short delivery, a goodput above the port ceiling). Exits 0 only when
// every case behaves.
#include <cstdio>
#include <vector>

#include "checks.hpp"

namespace {

using namespace emubench;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %-52s %s\n", what, ok ? "ok" : "WRONG");
  if (!ok) ++failures;
}

std::vector<std::byte> stream(std::uint64_t key, std::size_t n) {
  std::vector<std::byte> v(n);
  fill_pattern(key, 0, v);
  return v;
}

}  // namespace

int main() {
  const std::uint64_t key = stream_key(7, 0, 1);
  const std::size_t n = 3 * 1448 + 100;

  {  // Delivered whole, in uneven pieces: accepted.
    const auto v = stream(key, n);
    StreamCheck c(key);
    c.feed({v.data(), 1000});
    c.feed({v.data() + 1000, n - 1000});
    expect(check_stream(c, n).empty(), "intact stream accepted");
  }
  {  // One flipped byte in the middle of a chunk.
    auto v = stream(key, n);
    v[2000] ^= std::byte{0x01};
    StreamCheck c(key);
    c.feed(v);
    expect(!check_stream(c, n).empty() && c.first_bad() == 2000,
           "flipped byte rejected at its offset");
  }
  {  // Bytes from another seed's stream.
    const auto v = stream(stream_key(8, 0, 1), n);
    StreamCheck c(key);
    c.feed(v);
    expect(!check_stream(c, n).empty(), "another seed's payload rejected");
  }
  {  // Short delivery: the last chunk never arrived.
    const auto v = stream(key, n);
    StreamCheck c(key);
    c.feed({v.data(), n - 100});
    expect(!check_stream(c, n).empty(), "short delivery rejected");
  }
  {  // Goodput at, and above, the ceiling the testbed constants give.
    const double ceiling =
        port_ceiling_mbps(cherinet::sim::Testbed::morello_82576());
    expect(ceiling > 941.0 && ceiling < 942.0,
           "port ceiling is 1e9 * 1448 / 1538 bit/s");
    expect(check_goodput(ceiling, ceiling).empty(),
           "goodput at the ceiling accepted");
    expect(!check_goodput(ceiling * 1.001, ceiling).empty(),
           "goodput above the ceiling rejected");
    expect(!check_goodput(0.0, ceiling).empty(), "zero goodput rejected");
  }
  std::printf("emubench self-test: %s\n", failures == 0 ? "pass" : "FAIL");
  return failures == 0 ? 0 : 1;
}
