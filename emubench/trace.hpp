// Tracing of the benchmark's own calls into the emulator's layers.
//
// A traced run records one span per wrapped call (name, host start and
// end, enclosing span, operation id) in per-thread buffers and writes them
// out at exit; spans sit at the boundaries the benchmark owns (FfOps calls,
// stack main-loop iterations it drives, arbiter waits, compartment bodies).
// An untraced run records nothing: Span is then one predictable branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace emubench::trace {

/// Span names. The prefix before the first '.' is the layer.
enum class Name : std::uint16_t {
  kBody,          // scenarios.body: one compartment or peer thread body
  kFfSocket,      // apps.ffops.<call>: one app -> stack call
  kFfBind,
  kFfListen,
  kFfAccept,
  kFfConnect,
  kFfWrite,
  kFfRead,
  kFfWritev,
  kFfReadv,
  kFfAcceptBatch,
  kFfZc,          // zc_alloc / zc_send / zc_abort / zc_recv / zc_recycle
  kFfUring,       // uring_attach / uring_detach / uring_doorbell
  kFfEpoll,       // epoll_create / epoll_ctl / epoll_wait (+ multishot)
  kFfClose,
  kFfOther,       // set_class
  kRunOnce,       // fstack.run_once: one main-loop iteration the bench drives
  kArbiterWait,   // sim.arbiter.wait: one Participant::wait
  kRingTurn,      // apps.ring.turn: one submit/reap turn of a ring app
  kCount,
};

[[nodiscard]] const char* to_string(Name n) noexcept;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Record {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t op = 0;         // operation id shared by one op's spans
  std::int32_t parent = -1;     // index of the enclosing span, this thread
  Name name = Name::kBody;
};

/// Per-thread span log. Self and total time per name accumulate as spans
/// close, over the whole run; the span records themselves are kept only up
/// to kMaxSpans per thread so a long run cannot exhaust memory.
struct ThreadLog {
  static constexpr std::size_t kMaxSpans = 1u << 16;
  static constexpr std::size_t kNames = static_cast<std::size_t>(Name::kCount);
  struct Open {
    std::uint64_t child_ns = 0;  // time covered by closed child spans
    std::int32_t idx = -1;       // kept record, or -1 past the cap
  };
  std::string thread;
  std::vector<Record> spans;
  std::vector<Open> open;       // open spans, innermost last
  std::uint64_t dropped = 0;    // spans past kMaxSpans (not kept)
  std::uint64_t self[kNames] = {};
  std::uint64_t total[kNames] = {};
  std::uint64_t count[kNames] = {};
};

/// Global switch and the set of thread logs of the run.
class Tracer {
 public:
  static Tracer& get();

  void enable() { on_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const noexcept {
    return on_.load(std::memory_order_relaxed);
  }
  /// The calling thread's log (created on first use, kept until exit).
  ThreadLog& local();
  /// Name the calling thread's log.
  void name_thread(const std::string& name);
  /// Per span name, summed over threads: self time (its span minus the
  /// part child spans cover), total time and span count.
  [[nodiscard]] std::vector<std::uint64_t> self_ns() const {
    return sum(&ThreadLog::self);
  }
  [[nodiscard]] std::vector<std::uint64_t> total_ns() const {
    return sum(&ThreadLog::total);
  }
  [[nodiscard]] std::vector<std::uint64_t> counts() const {
    return sum(&ThreadLog::count);
  }
  /// Write every kept span as TSV; returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::uint64_t> sum(
      std::uint64_t (ThreadLog::*field)[ThreadLog::kNames]) const;

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Thread-local operation id carried by every span the thread opens.
void set_op(std::uint64_t op) noexcept;

/// RAII span. No-op when tracing is off.
class Span {
 public:
  explicit Span(Name n) {
    if (Tracer::get().on()) open(n);
  }
  ~Span() {
    if (log_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Host duration of the span so far (0 when tracing is off).
  [[nodiscard]] std::uint64_t elapsed() const noexcept {
    return log_ != nullptr ? now_ns() - t0_ : 0;
  }

 private:
  void open(Name n);
  void close();

  ThreadLog* log_ = nullptr;
  Name name_ = Name::kBody;
  std::uint64_t t0_ = 0;
};

}  // namespace emubench::trace
