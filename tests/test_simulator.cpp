#include <gtest/gtest.h>

#include <vector>

#include "clocks/drift_models.h"
#include "sim/simulator.h"

namespace stclock {
namespace {

std::vector<HardwareClock> identity_clocks(std::uint32_t n) {
  std::vector<HardwareClock> clocks;
  for (std::uint32_t i = 0; i < n; ++i) clocks.emplace_back(0.0, 1.0);
  return clocks;
}

Simulator make_sim(std::uint32_t n, Duration tdel, double delay_fraction,
                   const crypto::KeyRegistry* registry = nullptr) {
  SimParams params;
  params.n = n;
  params.tdel = tdel;
  params.seed = 1;
  return Simulator(params, identity_clocks(n), std::make_unique<FixedDelay>(delay_fraction),
                   registry);
}

/// Records deliveries with their receive times.
class Recorder final : public Process {
 public:
  struct Received {
    RealTime at;
    NodeId from;
    Round round;
  };

  explicit Recorder(const Simulator& sim) : sim_(&sim) {}

  void on_start(Context&) override { started_ = true; }
  void on_message(Context&, NodeId from, const Message& m) override {
    log_.push_back({sim_->now(), from, message_round(m)});
  }
  void on_timer(Context&, TimerId) override {}

  [[nodiscard]] const std::vector<Received>& log() const { return log_; }
  [[nodiscard]] bool started() const { return started_; }

 private:
  const Simulator* sim_;
  std::vector<Received> log_;
  bool started_ = false;
};

/// Broadcasts one InitMsg at start.
class OneShotBroadcaster final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.broadcast(Message(InitMsg{1})); }
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override {}
};

TEST(Simulator, BroadcastReachesEveryoneWithConfiguredDelay) {
  Simulator sim = make_sim(3, 0.01, 1.0);  // full tdel delay
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  auto r1 = std::make_unique<Recorder>(sim);
  auto r2 = std::make_unique<Recorder>(sim);
  const Recorder* p1 = r1.get();
  const Recorder* p2 = r2.get();
  sim.set_process(1, std::move(r1));
  sim.set_process(2, std::move(r2));

  sim.run_until(1.0);

  ASSERT_EQ(p1->log().size(), 1u);
  ASSERT_EQ(p2->log().size(), 1u);
  EXPECT_DOUBLE_EQ(p1->log()[0].at, 0.01);
  EXPECT_EQ(p1->log()[0].from, 0u);
  EXPECT_DOUBLE_EQ(p2->log()[0].at, 0.01);
}

TEST(Simulator, SelfDeliveryIsImmediate) {
  Simulator sim = make_sim(2, 0.01, 1.0);

  class SelfBroadcaster final : public Process {
   public:
    explicit SelfBroadcaster(const Simulator& sim) : sim_(&sim) {}
    void on_start(Context& ctx) override { ctx.broadcast(Message(InitMsg{1})); }
    void on_message(Context& ctx, NodeId from, const Message&) override {
      if (from == ctx.self()) self_delivery_time_ = sim_->now();
    }
    void on_timer(Context&, TimerId) override {}
    RealTime self_delivery_time_ = -1;

   private:
    const Simulator* sim_;
  };

  auto proc = std::make_unique<SelfBroadcaster>(sim);
  const SelfBroadcaster* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(p->self_delivery_time_, 0.0);
}

TEST(Simulator, LogicalTimerFiresAtRightRealTime) {
  SimParams params;
  params.n = 1;
  params.tdel = 0.01;
  params.seed = 1;
  std::vector<HardwareClock> clocks;
  clocks.push_back(HardwareClock(0.0, 2.0));  // runs double speed
  Simulator sim(params, std::move(clocks), std::make_unique<FixedDelay>(0.0), nullptr);

  class TimerProc final : public Process {
   public:
    explicit TimerProc(const Simulator& sim) : sim_(&sim) {}
    void on_start(Context& ctx) override { (void)ctx.set_timer_at_logical(4.0); }
    void on_message(Context&, NodeId, const Message&) override {}
    void on_timer(Context&, TimerId) override { fired_at_ = sim_->now(); }
    RealTime fired_at_ = -1;

   private:
    const Simulator* sim_;
  };

  auto proc = std::make_unique<TimerProc>(sim);
  const TimerProc* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(p->fired_at_, 2.0);  // logical 4 at double speed = real 2
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim = make_sim(1, 0.01, 0.0);

  class CancelProc final : public Process {
   public:
    void on_start(Context& ctx) override {
      const TimerId a = ctx.set_timer_at_logical(1.0);
      keep_ = ctx.set_timer_at_logical(2.0);
      ctx.cancel_timer(a);
    }
    void on_message(Context&, NodeId, const Message&) override {}
    void on_timer(Context&, TimerId id) override { fired_.push_back(id); }
    std::vector<TimerId> fired_;
    TimerId keep_ = 0;
  };

  auto proc = std::make_unique<CancelProc>();
  CancelProc* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.run_until(5.0);
  ASSERT_EQ(p->fired_.size(), 1u);
  EXPECT_EQ(p->fired_[0], p->keep_);
}

TEST(Simulator, CancelAfterFireIsANoOpAndUnknownIdsThrow) {
  Simulator sim = make_sim(1, 0.01, 0.0);

  class LateCancelProc final : public Process {
   public:
    void on_start(Context& ctx) override { first_ = ctx.set_timer_at_logical(1.0); }
    void on_message(Context&, NodeId, const Message&) override {}
    void on_timer(Context& ctx, TimerId id) override {
      ++fired_;
      if (id == first_) {
        // The timer just fired; cancelling it now must be accepted quietly
        // (the pre-refactor tombstone set leaked an entry here) ...
        EXPECT_NO_THROW(ctx.cancel_timer(first_));
        // ... and cancelling twice is equally harmless.
        EXPECT_NO_THROW(ctx.cancel_timer(first_));
        // A timer id never handed out is a caller bug.
        EXPECT_THROW(ctx.cancel_timer(9999), std::logic_error);
        (void)ctx.set_timer_at_logical(2.0);
      }
    }
    TimerId first_ = 0;
    int fired_ = 0;
  };

  auto proc = std::make_unique<LateCancelProc>();
  LateCancelProc* p = proc.get();
  sim.set_process(0, std::move(proc));
  sim.run_until(5.0);
  EXPECT_EQ(p->fired_, 2);  // the no-op cancels must not eat the second timer
}

TEST(Simulator, LateStartDropsEarlierMessages) {
  Simulator sim = make_sim(2, 0.01, 0.0);
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  auto rec = std::make_unique<Recorder>(sim);
  const Recorder* p = rec.get();
  sim.set_process(1, std::move(rec));
  sim.set_start_time(1, 5.0);  // boots long after the broadcast

  sim.run_until(10.0);
  EXPECT_TRUE(p->started());
  EXPECT_TRUE(p->log().empty());
}

TEST(Simulator, AdversaryCanScheduleFutureDelivery) {
  Simulator sim = make_sim(3, 0.01, 0.0);

  class DelayedSender final : public Adversary {
   public:
    void on_start(AdversaryContext& ctx) override {
      ctx.send_from(2, 0, Message(EchoMsg{9}), 0.5);
    }
    void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
    void on_timer(AdversaryContext&, TimerId) override {}
  };

  auto rec = std::make_unique<Recorder>(sim);
  const Recorder* p = rec.get();
  sim.set_process(0, std::move(rec));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.set_adversary({2}, std::make_unique<DelayedSender>());

  sim.run_until(1.0);
  ASSERT_EQ(p->log().size(), 1u);
  EXPECT_DOUBLE_EQ(p->log()[0].at, 0.5);
  EXPECT_EQ(p->log()[0].from, 2u);
  EXPECT_EQ(p->log()[0].round, 9u);
}

TEST(Simulator, AdversaryCannotImpersonateHonestNodes) {
  Simulator sim = make_sim(3, 0.01, 0.0);

  class Impersonator final : public Adversary {
   public:
    void on_start(AdversaryContext& ctx) override {
      // Node 0 is honest; sending "from" it must be rejected.
      EXPECT_THROW(ctx.send_from(0, 1, Message(InitMsg{1}), 0.0), std::logic_error);
    }
    void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
    void on_timer(AdversaryContext&, TimerId) override {}
  };

  sim.set_process(0, std::make_unique<Recorder>(sim));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.set_adversary({2}, std::make_unique<Impersonator>());
  sim.run_until(0.1);
}

TEST(Simulator, AdversaryCannotSignForHonestNodes) {
  const crypto::KeyRegistry registry(3, 7);
  Simulator sim = make_sim(3, 0.01, 0.0, &registry);

  class KeyThief final : public Adversary {
   public:
    void on_start(AdversaryContext& ctx) override {
      EXPECT_THROW((void)ctx.signer_for(0), std::logic_error);  // honest
      EXPECT_NO_THROW((void)ctx.signer_for(2));                 // corrupted
    }
    void on_message(AdversaryContext&, NodeId, NodeId, const Message&) override {}
    void on_timer(AdversaryContext&, TimerId) override {}
  };

  sim.set_process(0, std::make_unique<Recorder>(sim));
  sim.set_process(1, std::make_unique<Recorder>(sim));
  sim.set_adversary({2}, std::make_unique<KeyThief>());
  sim.run_until(0.1);
}

TEST(Simulator, HonestIdsExcludeCorrupted) {
  Simulator sim = make_sim(4, 0.01, 0.0);
  sim.set_adversary({1, 3}, nullptr);
  EXPECT_EQ(sim.honest_ids(), (std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(sim.is_corrupt(1));
  EXPECT_FALSE(sim.is_corrupt(0));
}

TEST(Simulator, MessagesToCrashedNodesVanish) {
  // Corrupted nodes with a null adversary model crash faults: messages to
  // them are swallowed, and they never send anything.
  Simulator sim = make_sim(2, 0.01, 0.0);
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  sim.set_adversary({1}, nullptr);
  sim.run_until(1.0);
  EXPECT_GE(sim.counters().total_sent(), 2u);  // broadcast still sent n ways
}

TEST(Simulator, PostEventHookSeesMonotoneTime) {
  Simulator sim = make_sim(2, 0.01, 1.0);
  sim.set_process(0, std::make_unique<OneShotBroadcaster>());
  sim.set_process(1, std::make_unique<Recorder>(sim));

  RealTime last = -1;
  int calls = 0;
  sim.set_post_event_hook([&last, &calls](const Simulator& s) {
    EXPECT_GE(s.now(), last);
    last = s.now();
    ++calls;
  });
  sim.run_until(1.0);
  EXPECT_GT(calls, 0);
}

TEST(Simulator, EventBudgetGuardsRunaways) {
  SimParams params;
  params.n = 1;
  params.tdel = 0.01;
  params.seed = 1;
  params.max_events = 10;

  class Storm final : public Process {
   public:
    void on_start(Context& ctx) override { ctx.send(ctx.self(), Message(InitMsg{1})); }
    void on_message(Context& ctx, NodeId, const Message&) override {
      ctx.send(ctx.self(), Message(InitMsg{1}));  // infinite self-message loop
    }
    void on_timer(Context&, TimerId) override {}
  };

  Simulator sim(params, identity_clocks(1), std::make_unique<FixedDelay>(0.0), nullptr);
  sim.set_process(0, std::make_unique<Storm>());
  EXPECT_THROW(sim.run_until(1.0), std::logic_error);
}

TEST(Simulator, DeterministicGivenSeed) {
  auto run_once = [] {
    SimParams params;
    params.n = 3;
    params.tdel = 0.01;
    params.seed = 42;
    Simulator sim(params, identity_clocks(3), std::make_unique<UniformDelay>(0.0, 1.0),
                  nullptr);
    sim.set_process(0, std::make_unique<OneShotBroadcaster>());
    auto rec = std::make_unique<Recorder>(sim);
    const Recorder* p = rec.get();
    sim.set_process(1, std::move(rec));
    sim.set_process(2, std::make_unique<Recorder>(sim));
    sim.run_until(1.0);
    return p->log().at(0).at;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

/// Arms one timer at start and records whether it fired.
class OneTimer final : public Process {
 public:
  explicit OneTimer(LocalTime at) : at_(at) {}
  void on_start(Context& ctx) override { (void)ctx.set_timer_at_hardware(at_); }
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override { fired_ = true; }
  [[nodiscard]] bool fired() const { return fired_; }

 private:
  LocalTime at_;
  bool fired_ = false;
};

TEST(Simulator, TimersCorruptionCancelsExactlyTheVictimsTimers) {
  // Half the fleet is hit before its timers are due: the victims' timers
  // vanish and every other node's fires on schedule.
  constexpr std::uint32_t kN = 10;
  SimParams params;
  params.n = kN;
  params.tdel = 0.01;
  params.seed = 3;
  params.corruptions = {CorruptionEvent{1.0, 0.5, kCorruptTimers, 0.0}};
  Simulator sim(params, identity_clocks(kN), std::make_unique<FixedDelay>(0.5), nullptr);
  std::vector<const OneTimer*> processes;
  for (NodeId id = 0; id < kN; ++id) {
    auto process = std::make_unique<OneTimer>(2.0);
    processes.push_back(process.get());
    sim.set_process(id, std::move(process));
  }
  sim.run_until(3.0);
  EXPECT_EQ(sim.nodes_corrupted(), kN / 2);
  std::uint32_t fired = 0;
  for (const OneTimer* p : processes) fired += p->fired() ? 1 : 0;
  EXPECT_EQ(fired, kN / 2);
}

}  // namespace
}  // namespace stclock
