#include "sim/time_arbiter.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace {
// CHERINET_ARB_DEBUG=1 prints every large idle advance with the parked
// participants' deadlines — the first tool to reach for when throughput
// looks stalled.
bool arb_debug() {
  static const bool on = std::getenv("CHERINET_ARB_DEBUG") != nullptr;
  return on;
}
}  // namespace

namespace cherinet::sim {

Participant::Participant(TimeArbiter& arb, std::string name)
    : arb_(arb), name_(std::move(name)) {
  arb_.enroll(this);
}

Participant::~Participant() { arb_.retire(this); }

std::uint64_t Participant::prepare() const noexcept {
  std::lock_guard lk(arb_.m_);
  return arb_.kick_epoch_;
}

bool Participant::wait(std::uint64_t token, std::optional<Ns> deadline) {
  return arb_.wait_impl(this, token, deadline);
}

bool Participant::idle_until(std::optional<Ns> deadline) {
  return wait(prepare(), deadline);
}

void TimeArbiter::expect_participants(std::size_t n) {
  std::lock_guard lk(m_);
  expected_ = n;
}

void TimeArbiter::set_mode(ArbiterMode mode) {
  std::lock_guard lk(m_);
  if (peak_enrolled_ != 0) {
    throw std::logic_error("TimeArbiter::set_mode after a participant enrolled");
  }
  mode_ = mode;
}

void TimeArbiter::enroll(Participant* p) {
  {
    std::unique_lock lk(m_);
    if (mode_ == ArbiterMode::kBaton) return enroll_baton_locked(p, lk);
    members_.push_back(p);
    peak_enrolled_ = std::max(peak_enrolled_, members_.size());
  }
  cv_.notify_all();  // a late joiner may unblock the startup gate
}

void TimeArbiter::retire(Participant* p) {
  {
    std::lock_guard lk(m_);
    if (mode_ == ArbiterMode::kBaton) return retire_baton_locked(p);
    members_.erase(std::remove(members_.begin(), members_.end(), p),
                   members_.end());
    // Our departure may make everyone-else-parked true.
    if (!members_.empty()) {
      bool all_parked = std::all_of(members_.begin(), members_.end(),
                                    [](const Participant* m) { return m->parked_; });
      if (all_parked) try_advance_locked();
    }
  }
  cv_.notify_all();
}

std::size_t TimeArbiter::participant_count() const {
  std::lock_guard lk(m_);
  return members_.size();
}

void TimeArbiter::kick() noexcept {
  {
    std::lock_guard lk(m_);
    ++kick_epoch_;
    if (mode_ == ArbiterMode::kBaton) {
      // The holder keeps running; an idle baton (a kick from a thread that
      // is not a participant, e.g. shutdown) goes to whoever is now
      // runnable — every parked member, since the epoch moved.
      if (holder_ == nullptr) pass_baton_locked({});
      return;
    }
  }
  cv_.notify_all();
}

bool TimeArbiter::wait_impl(Participant* p, std::uint64_t token,
                            std::optional<Ns> deadline) {
  std::unique_lock lk(m_);
  if (kick_epoch_ != token) return true;  // missed-kick race: re-poll.
  if (mode_ == ArbiterMode::kBaton) {
    return wait_baton_locked(p, token, deadline, lk);
  }
  p->parked_ = true;
  p->deadline_ = deadline;
  bool all_parked = std::all_of(members_.begin(), members_.end(),
                                [](const Participant* m) { return m->parked_; });
  if (all_parked) try_advance_locked();
  bool kicked = false;
  cv_.wait(lk, [&] {
    if (kick_epoch_ != token) {
      kicked = true;
      return true;
    }
    return deadline.has_value() && clock_.now() >= *deadline;
  });
  p->parked_ = false;
  p->deadline_.reset();
  return kicked;
}

void TimeArbiter::try_advance_locked() {
  // Startup gate: don't advance until everyone announced has arrived (and
  // don't re-block during shutdown once the fleet was complete).
  if (peak_enrolled_ < expected_) return;
  std::optional<Ns> earliest;
  for (const Participant* m : members_) {
    if (m->deadline_ && (!earliest || *m->deadline_ < *earliest)) {
      earliest = m->deadline_;
    }
  }
  if (!earliest) {
    std::ostringstream os;
    os << "SimDeadlock: all " << members_.size()
       << " participants parked without a deadline:";
    for (const Participant* m : members_) os << ' ' << m->name();
    throw SimDeadlock(os.str());
  }
  if (*earliest > clock_.now()) {
    if (arb_debug() && *earliest - clock_.now() > Ns{1'000'000}) {
      std::fprintf(stderr, "[arb] advance %+.3fms @%.3fms:",
                   (*earliest - clock_.now()).count() / 1e6,
                   clock_.now().count() / 1e6);
      for (const Participant* m : members_) {
        if (m->deadline_) {
          std::fprintf(stderr, " %s=+%.3fms", m->name().c_str(),
                       (*m->deadline_ - clock_.now()).count() / 1e6);
        } else {
          std::fprintf(stderr, " %s=inf", m->name().c_str());
        }
      }
      std::fprintf(stderr, "\n");
    }
    clock_.advance_to(*earliest);
  }
  ++kick_epoch_;  // force every waiter to re-evaluate
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Baton mode
// ---------------------------------------------------------------------------

void TimeArbiter::enroll_baton_locked(Participant* p,
                                      std::unique_lock<std::mutex>& lk) {
  // Members stay sorted by name: the hand-off order must not depend on
  // which thread reached enroll() first.
  const auto at = std::upper_bound(
      members_.begin(), members_.end(), p,
      [](const Participant* a, const Participant* b) {
        return a->name() < b->name();
      });
  members_.insert(at, p);
  peak_enrolled_ = std::max(peak_enrolled_, members_.size());
  p->starting_ = true;
  // Nobody runs before the startup gate opens; the enrollment that opens
  // it hands the baton to the first member by name.
  if (holder_ == nullptr) pass_baton_locked({});
  p->baton_cv_.wait(lk, [&] { return holder_ == p; });
  p->starting_ = false;
}

void TimeArbiter::retire_baton_locked(Participant* p) {
  members_.erase(std::remove(members_.begin(), members_.end(), p),
                 members_.end());
  if (holder_ != p) return;
  try {
    pass_baton_locked(p->name());
  } catch (const SimDeadlock&) {
    // Everyone left is parked without a deadline. Leave the baton idle
    // rather than throw from a destructor: a kick from outside the fleet
    // (shutdown) still hands it on.
    holder_ = nullptr;
  }
}

bool TimeArbiter::wait_baton_locked(Participant* p, std::uint64_t token,
                                    std::optional<Ns> deadline,
                                    std::unique_lock<std::mutex>& lk) {
  p->parked_ = true;
  p->deadline_ = deadline;
  p->token_ = token;
  try {
    pass_baton_locked(p->name());
  } catch (const SimDeadlock&) {
    p->parked_ = false;
    p->deadline_.reset();
    holder_ = p;  // the thrower keeps running; retiring hands the baton on
    throw;
  }
  p->baton_cv_.wait(lk, [&] { return holder_ == p; });
  p->parked_ = false;
  p->deadline_.reset();
  return kick_epoch_ != token;
}

bool TimeArbiter::runnable_locked(const Participant* m) const {
  if (m->starting_) return true;
  if (!m->parked_) return false;
  return m->token_ != kick_epoch_ ||
         (m->deadline_.has_value() && clock_.now() >= *m->deadline_);
}

void TimeArbiter::pass_baton_locked(const std::string& after) {
  holder_ = nullptr;
  if (peak_enrolled_ < expected_) return;  // startup gate
  while (!members_.empty()) {
    const std::size_t n = members_.size();
    const std::size_t first = static_cast<std::size_t>(
        std::upper_bound(members_.begin(), members_.end(), after,
                         [](const std::string& a, const Participant* b) {
                           return a < b->name();
                         }) -
        members_.begin());
    for (std::size_t k = 0; k < n; ++k) {
      Participant* m = members_[(first + k) % n];
      if (runnable_locked(m)) {
        holder_ = m;
        m->baton_cv_.notify_one();
        return;
      }
    }
    // Nobody can run at this instant: advance to the earliest deadline.
    // The advance bumps the kick epoch, so every parked member is runnable
    // on the next pass.
    try_advance_locked();
  }
}

}  // namespace cherinet::sim
