// Conservative virtual-time arbiter.
//
// Every polling loop in the testbed (DPDK-style stack main loops, peer
// hosts, latency probes) registers as a participant. A participant that
// finds no work parks with its next deadline (earliest pending TCP timer,
// earliest wire delivery, ...). Once *all* participants are parked the
// arbiter advances the virtual clock to the earliest announced deadline and
// wakes everyone; a producer that hands work to another thread calls kick()
// so consumers re-poll instead of sleeping through the handoff.
//
// This is the standard conservative co-simulation scheme: virtual time only
// advances when no participant can make progress at the current instant, so
// wire pacing and protocol timers interleave exactly as on the real testbed.
//
// Two modes order the participants WITHIN one virtual instant:
//
//  * Free-running (the default). Every participant is its own host thread
//    and runs whenever the host schedules it; a kick or an advance wakes all
//    parked waiters at once. Who polls how often inside one instant is up
//    to the host scheduler. Runs that measure wall-clock behaviour use this
//    mode: the ff_write latency probes, run_bandwidth (Table II, Fig. 6,
//    the locking ablation), the TSan suites and the emulator benchmark.
//
//  * Baton. Exactly one participant runs between two park points: it holds
//    the baton until it parks (or retires), then the baton passes to the
//    next runnable participant in round-robin NAME order — runnable meaning
//    kicked since its token or past its deadline. Only when nobody is
//    runnable does the clock advance, exactly as above. Each participant
//    waits on its own condition variable, so a hand-off wakes one thread.
//    The interleaving is then a function of code and seed alone, provided
//    every participant has a distinct name, enrolls before the startup
//    gate opens (in this mode nobody runs until it does), and runs on its
//    own thread. The crossing censuses behind the Fig. 4/5 gates use it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/virtual_clock.hpp"

namespace cherinet::sim {

/// Thrown when every participant parks with no deadline: the simulation can
/// never progress again (a lost wakeup or a protocol deadlock in a test).
class SimDeadlock : public std::runtime_error {
 public:
  explicit SimDeadlock(const std::string& what) : std::runtime_error(what) {}
};

class TimeArbiter;

/// RAII participant handle. Register one per polling thread.
class Participant {
 public:
  Participant(TimeArbiter& arb, std::string name);
  ~Participant();
  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  /// Capture the kick epoch *before* the final work poll. If a producer
  /// kicks between prepare() and wait(), wait() returns immediately.
  [[nodiscard]] std::uint64_t prepare() const noexcept;

  /// Park until the virtual clock reaches `deadline`, a kick arrives, or the
  /// arbiter advances time. `std::nullopt` parks without a deadline.
  /// Returns true if woken by a kick (work may be available), false if the
  /// deadline passed.
  bool wait(std::uint64_t token, std::optional<Ns> deadline);

  /// Convenience: prepare + wait in one step. Only safe when no other thread
  /// can enqueue work for this participant (e.g. single-threaded tests).
  bool idle_until(std::optional<Ns> deadline);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class TimeArbiter;
  TimeArbiter& arb_;
  std::string name_;
  std::optional<Ns> deadline_;
  bool parked_ = false;
  // Baton mode only: enrolled but not yet run, the kick epoch the park was
  // prepared at, and the condition variable a hand-off wakes.
  bool starting_ = false;
  std::uint64_t token_ = 0;
  std::condition_variable baton_cv_;
};

/// How the arbiter orders participants within one virtual instant (see the
/// file header).
enum class ArbiterMode : std::uint8_t { kFreeRunning, kBaton };

/// Coordinates virtual-time advancement across all registered participants.
class TimeArbiter {
 public:
  explicit TimeArbiter(VirtualClock& clock) : clock_(clock) {}
  TimeArbiter(const TimeArbiter&) = delete;
  TimeArbiter& operator=(const TimeArbiter&) = delete;

  /// Wake all parked participants so they re-poll their work sources.
  /// Call after any cross-thread handoff (wire delivery, proxy request, ...).
  void kick() noexcept;

  /// Startup gate: virtual time will not advance until at least `n`
  /// participants have enrolled. Without this, a thread that starts first
  /// and parks alone would fast-forward the clock through protocol timers
  /// (SYN retransmission backoffs) before its peers even exist.
  void expect_participants(std::size_t n);

  /// Select the mode. Only before the first participant enrolls.
  void set_mode(ArbiterMode mode);

  [[nodiscard]] VirtualClock& clock() noexcept { return clock_; }

  /// Number of currently registered participants (for tests).
  [[nodiscard]] std::size_t participant_count() const;

 private:
  friend class Participant;
  void enroll(Participant* p);
  void retire(Participant* p);
  bool wait_impl(Participant* p, std::uint64_t token, std::optional<Ns> deadline);
  /// Pre: lock held. If all participants are parked, advance the clock to
  /// the earliest deadline and wake everyone. Throws SimDeadlock if no
  /// participant announced a deadline.
  void try_advance_locked();

  // Baton mode. Pre: lock held.
  void enroll_baton_locked(Participant* p, std::unique_lock<std::mutex>& lk);
  void retire_baton_locked(Participant* p);
  bool wait_baton_locked(Participant* p, std::uint64_t token,
                         std::optional<Ns> deadline,
                         std::unique_lock<std::mutex>& lk);
  [[nodiscard]] bool runnable_locked(const Participant* m) const;
  /// Hand the baton to the first runnable member after `after` in name
  /// order (wrapping round, `after` itself last; from the start when
  /// empty). When nobody is runnable, advance the clock and look again.
  /// Throws SimDeadlock if every member is parked without a deadline.
  void pass_baton_locked(const std::string& after);

  VirtualClock& clock_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<Participant*> members_;
  std::uint64_t kick_epoch_ = 0;
  std::size_t expected_ = 0;
  std::size_t peak_enrolled_ = 0;
  ArbiterMode mode_ = ArbiterMode::kFreeRunning;
  Participant* holder_ = nullptr;  // baton mode: who runs; null = idle
};

}  // namespace cherinet::sim
