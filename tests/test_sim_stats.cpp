// Virtual clock, time arbiter (conservative advancement, kicks, deadlock
// detection), cost model, and the statistics pipeline the figures use.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/time_arbiter.hpp"
#include "sim/virtual_clock.hpp"
#include "stats/box_plot.hpp"
#include "stats/stats.hpp"

using namespace cherinet;
using sim::Ns;

TEST(VirtualClock, MonotoneUnderRacingAdvances) {
  sim::VirtualClock c;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&c, t] {
      for (int i = 0; i < 10000; ++i) {
        c.advance_to(Ns{i * 4 + t});
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.now(), Ns{39999 / 4 * 4 + 3});
  c.advance_to(Ns{5});  // going backwards is a no-op
  EXPECT_GT(c.now(), Ns{5});
}

TEST(TimeArbiter, AdvancesToEarliestDeadlineWhenAllParked) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  std::thread t1([&] {
    sim::Participant p(arb, "t1");
    p.idle_until(Ns{1000});
    EXPECT_GE(clock.now(), Ns{1000});
  });
  std::thread t2([&] {
    sim::Participant p(arb, "t2");
    p.idle_until(Ns{5000});
    EXPECT_GE(clock.now(), Ns{5000});
  });
  t1.join();
  t2.join();
  EXPECT_GE(clock.now(), Ns{5000});
}

TEST(TimeArbiter, KickWakesParkedParticipant) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  std::atomic<bool> woke{false};
  std::thread t([&] {
    sim::Participant p(arb, "waiter");
    // Parked without a deadline: only a kick can wake us. A second
    // participant (the main thread's) prevents deadlock detection.
    sim::Participant keepalive(arb, "keepalive");
    const auto token = p.prepare();
    (void)keepalive;
    const bool kicked = p.wait(token, std::nullopt);
    EXPECT_TRUE(kicked);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  arb.kick();
  t.join();
  EXPECT_TRUE(woke);
}

TEST(TimeArbiter, MissedKickRaceIsClosedByPrepareToken) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  sim::Participant p(arb, "p");
  const auto token = p.prepare();
  arb.kick();  // kick lands between prepare and wait
  EXPECT_TRUE(p.wait(token, std::nullopt));  // returns immediately
}

TEST(TimeArbiter, AllParkedWithoutDeadlineIsDeadlock) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  sim::Participant p(arb, "only");
  EXPECT_THROW((void)p.idle_until(std::nullopt), sim::SimDeadlock);
}

// ---------------------------------------------------------------- baton

namespace {

/// Enroll one baton-mode participant per name, in `enroll_order`; each logs
/// its name on every turn, three turns apiece. Returns the log.
std::string baton_run_order(const std::vector<std::string>& enroll_order) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  arb.set_mode(sim::ArbiterMode::kBaton);
  arb.expect_participants(enroll_order.size());
  std::string log;  // only the baton holder touches it
  std::vector<std::thread> ts;
  for (const std::string& name : enroll_order) {
    const std::size_t before = arb.participant_count();
    ts.emplace_back([&, name] {
      sim::Participant p(arb, name);
      for (int turn = 0; turn < 3; ++turn) {
        log += name;
        p.idle_until(clock.now() + Ns{100});
      }
    });
    // Enrollment order is forced: the next thread starts only after this
    // one has enrolled.
    while (arb.participant_count() == before) std::this_thread::yield();
  }
  for (auto& t : ts) t.join();
  return log;
}

}  // namespace

TEST(TimeArbiterBaton, RunOrderIsIndependentOfEnrollmentOrder) {
  const std::string fwd = baton_run_order({"a", "b", "c"});
  const std::string rev = baton_run_order({"c", "b", "a"});
  const std::string mid = baton_run_order({"b", "c", "a"});
  EXPECT_EQ(fwd, "abcabcabc");
  EXPECT_EQ(rev, fwd);
  EXPECT_EQ(mid, fwd);
}

TEST(TimeArbiterBaton, KickFromNonParticipantHandsOverIdleBaton) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  arb.set_mode(sim::ArbiterMode::kBaton);
  arb.expect_participants(2);
  std::atomic<bool> woke{false};
  std::thread a([&] {
    sim::Participant p(arb, "a");
    // Parked without a deadline: only a kick can hand the baton back.
    EXPECT_TRUE(p.wait(p.prepare(), std::nullopt));
    woke = true;
  });
  // "b" runs once "a" parks and retires at once: everyone left is parked
  // without a deadline, so the baton goes idle instead of throwing from
  // b's destructor.
  std::thread b([&] { sim::Participant p(arb, "b"); });
  b.join();
  EXPECT_EQ(arb.participant_count(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke);
  arb.kick();  // the shutdown pattern: stop flag set, then kick
  a.join();
  EXPECT_TRUE(woke);
}

TEST(TimeArbiterBaton, RetiringHolderPassesTheBatonOn) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  arb.set_mode(sim::ArbiterMode::kBaton);
  arb.expect_participants(2);
  std::atomic<bool> b_ran{false};
  std::thread a([&] {
    sim::Participant p(arb, "a");  // first by name: holds the baton
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(b_ran);  // b cannot run while a holds the baton
  });                     // retiring hands it on
  std::thread b([&] {
    sim::Participant p(arb, "b");
    b_ran = true;
  });
  a.join();
  b.join();
  EXPECT_TRUE(b_ran);
}

TEST(TimeArbiterBaton, AlreadyKickedTokenReturnsAtOnceKeepingTheBaton) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  arb.set_mode(sim::ArbiterMode::kBaton);
  arb.expect_participants(2);
  std::atomic<bool> q_ran{false};
  std::thread p_thread([&] {
    sim::Participant p(arb, "p");
    const auto token = p.prepare();
    arb.kick();  // kick lands between prepare and wait
    EXPECT_TRUE(p.wait(token, std::nullopt));  // returns immediately...
    EXPECT_FALSE(q_ran);  // ...without handing the baton to q
  });
  std::thread q_thread([&] {
    sim::Participant q(arb, "q");
    q_ran = true;
  });
  p_thread.join();
  q_thread.join();
  EXPECT_TRUE(q_ran);
}

TEST(TimeArbiterBaton, AllParkedWithoutDeadlineIsDeadlock) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  arb.set_mode(sim::ArbiterMode::kBaton);
  sim::Participant p(arb, "only");
  EXPECT_THROW((void)p.idle_until(std::nullopt), sim::SimDeadlock);
}

TEST(CostModel, ChargeBurnsApproximatelyRequestedTime) {
  const auto cm = sim::CostModel::morello();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) cm.charge(std::chrono::microseconds(10));
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(dt, std::chrono::microseconds(900));
  // Disabled model burns nothing measurable.
  const auto d0 = std::chrono::steady_clock::now();
  sim::CostModel::disabled().charge(std::chrono::milliseconds(100));
  EXPECT_LT(std::chrono::steady_clock::now() - d0,
            std::chrono::milliseconds(50));
}

// ---------------------------------------------------------------- stats

TEST(Stats, QuantilesMatchReference) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.25), 3.25);  // type-7
}

TEST(Stats, SummaryMomentsAndOrder) {
  std::vector<double> xs{4, 1, 3, 2, 5};
  const auto s = stats::summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(Stats, IqrFilterRemovesPaperStyleOutliers) {
  // A tight distribution plus far outliers (the ~10% the paper removes).
  std::vector<double> xs;
  for (int i = 0; i < 90; ++i) xs.push_back(100.0 + (i % 7));
  for (int i = 0; i < 10; ++i) xs.push_back(10000.0);
  const auto filtered = stats::iqr_filter(xs);
  EXPECT_EQ(filtered.size(), 90u);
  for (double x : filtered) EXPECT_LT(x, 1000.0);
}

TEST(Stats, IqrFilterKeepsCleanData) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_EQ(stats::iqr_filter(xs).size(), 5u);
  EXPECT_TRUE(stats::iqr_filter({}).empty());
}

TEST(Stats, LatencyRecorderReportPipeline) {
  stats::LatencyRecorder rec(128);
  for (int i = 0; i < 100; ++i) rec.add(50.0 + i % 5);
  rec.add(1e9);  // one wild outlier
  const auto s = rec.report();
  EXPECT_EQ(s.n, 100u);
  EXPECT_LT(s.max, 100.0);
}

TEST(BoxPlot, RendersAllSeriesAndLegend) {
  std::vector<double> a{100, 110, 120, 130, 140};
  std::vector<double> b{200, 210, 220, 230, 240};
  const std::string plot = stats::render_box_plots(
      {{"fast", stats::summarize(a)}, {"slow", stats::summarize(b)}}, 60);
  EXPECT_NE(plot.find("fast"), std::string::npos);
  EXPECT_NE(plot.find("slow"), std::string::npos);
  EXPECT_NE(plot.find('#'), std::string::npos);  // median marker
  const std::string table = stats::render_summary_table(
      {{"fast", stats::summarize(a)}});
  EXPECT_NE(table.find("median"), std::string::npos);
}
