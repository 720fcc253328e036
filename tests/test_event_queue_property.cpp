#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <random>
#include <vector>

#include "sim/event_queue.h"

/// Property suite for the ladder-queue EventQueue: on randomized monotone
/// workloads (pushes never earlier than the last pop — the discrete-event
/// contract the simulator upholds), the pop sequence must be byte-for-byte
/// the one a reference binary heap ordered by (time, seq) produces. This is
/// the FIFO-preservation guarantee that keeps every golden row bit-identical
/// across the heap -> ladder swap.
namespace stclock {
namespace {

/// The reference model: the old implementation's ordering contract, kept as
/// a plain (time, insertion seq) min-heap with payloads carried alongside.
class ReferenceQueue {
 public:
  void push_timer(RealTime time, TimerEvent ev) {
    Entry e;
    e.time = time;
    e.seq = next_seq_++;
    e.is_timer = true;
    e.timer = ev;
    heap_.push(std::move(e));
  }

  void push_delivery(RealTime time, DeliveryEvent ev) {
    Entry e;
    e.time = time;
    e.seq = next_seq_++;
    e.delivery = std::move(ev);
    heap_.push(std::move(e));
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] RealTime next_time() const { return heap_.top().time; }

  Event pop() {
    const Entry& top = heap_.top();
    Event out;
    out.time = top.time;
    out.seq = top.seq;
    out.is_timer = top.is_timer;
    out.timer = top.timer;
    out.delivery = top.delivery;
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    RealTime time = 0;
    std::uint64_t seq = 0;
    bool is_timer = false;
    TimerEvent timer;
    DeliveryEvent delivery;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Drives the ladder queue and the reference heap in lockstep: every push
/// goes to both, every pop compares all observable fields exactly — times
/// and sent_at by bit equality, payloads by value, messages by pointer
/// identity (the queue must hand back the same object it was given). The
/// drivers stop at the first failed comparison: once the orders diverge,
/// every later step would fail too.
class LockstepHarness {
 public:
  void push(RealTime t) {
    ++salt_;
    if (salt_ % 3 == 0) {
      const TimerEvent ev{static_cast<NodeId>(salt_ % 97), salt_};
      q.push_timer(t, ev);
      ref.push_timer(t, ev);
    } else {
      // sent_at doubles as a payload integrity check: it must ride through
      // slab slot recycling untouched.
      const DeliveryEvent ev{static_cast<NodeId>(salt_ % 89),
                             static_cast<NodeId>(salt_ % 83), msg_,
                             static_cast<RealTime>(salt_) * 0.5};
      q.push_delivery(t, ev);
      ref.push_delivery(t, ev);
    }
  }

  void push_timer_at(RealTime t) {
    const TimerEvent ev{static_cast<NodeId>(++salt_ % 97), salt_};
    q.push_timer(t, ev);
    ref.push_timer(t, ev);
  }

  void push_delivery_at(RealTime t) {
    ++salt_;
    const DeliveryEvent ev{static_cast<NodeId>(salt_ % 89), static_cast<NodeId>(salt_ % 83),
                           msg_, static_cast<RealTime>(salt_) * 0.5};
    q.push_delivery(t, ev);
    ref.push_delivery(t, ev);
  }

  /// Pops from both and returns the (verified identical) event time.
  RealTime pop_and_compare(std::uint64_t step) {
    [&] {
      ASSERT_FALSE(q.empty()) << "ladder empty early at step " << step;
      ASSERT_FALSE(ref.empty()) << "reference empty early at step " << step;
    }();
    // The head is not due an instant before its time, and is due at it.
    const RealTime due = ref.next_time();
    EXPECT_FALSE(q.pop_until(std::nextafter(due, -1.0)).has_value())
        << "popped early at step " << step;
    const std::optional<Event> popped = q.pop_until(due);
    const Event b = ref.pop();
    if (!popped.has_value()) {
      ADD_FAILURE() << "head not due at its time at step " << step;
      return b.time;
    }
    const Event& a = *popped;
    EXPECT_EQ(a.time, b.time) << "time diverged at step " << step;
    EXPECT_EQ(a.seq, b.seq) << "seq diverged at step " << step;
    EXPECT_EQ(a.is_timer, b.is_timer) << "kind diverged at step " << step;
    if (a.is_timer && b.is_timer) {
      EXPECT_EQ(a.timer.node, b.timer.node);
      EXPECT_EQ(a.timer.id, b.timer.id);
    } else if (!a.is_timer && !b.is_timer) {
      EXPECT_EQ(a.delivery.to, b.delivery.to);
      EXPECT_EQ(a.delivery.from, b.delivery.from);
      EXPECT_EQ(a.delivery.msg.get(), b.delivery.msg.get());
      EXPECT_EQ(a.delivery.sent_at, b.delivery.sent_at);
    }
    return b.time;
  }

  EventQueue q;
  ReferenceQueue ref;

 private:
  std::uint64_t salt_ = 0;
  std::shared_ptr<const Message> msg_ = std::make_shared<const Message>(InitMsg{1});
};

TEST(EventQueueProperty, MatchesReferenceHeapOnChurnWorkloads) {
  // The simulator's steady state: a standing population with every pop
  // spawning a push a random (sometimes zero) distance into the future.
  // Several regimes stress different internals: tight spans keep everything
  // in the bottom list, wide exponential offsets exercise rung spawn and
  // drain, the zero-probability mass creates same-instant cohorts, and the
  // big-population regime forces bottom-overflow rebalancing.
  struct Regime {
    std::uint64_t seed;
    double span;       // scale of initial times and future offsets
    double zero_prob;  // chance a push lands exactly on the popped time
    std::size_t population;
  };
  const Regime regimes[] = {
      {11, 0.001, 0.0, 256},   // dense near-term: bottom-list churn
      {12, 10.0, 0.0, 4096},   // wide spread: rungs spawn and drain
      {13, 1.0, 0.25, 1024},   // heavy same-time cohorts
      {14, 1000.0, 0.0, 512},  // sparse far-future: top catch-all cycles
      {15, 1.0, 0.02, 20000},  // large population: overflow rebalancing
  };
  for (const Regime& r : regimes) {
    SCOPED_TRACE("seed=" + std::to_string(r.seed));
    LockstepHarness h;
    std::mt19937_64 rng(r.seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);

    for (std::size_t i = 0; i < r.population; ++i) h.push(unit(rng) * r.span);
    for (std::uint64_t step = 0; step < 3 * r.population; ++step) {
      const RealTime popped = h.pop_and_compare(step);
      if (::testing::Test::HasFailure()) return;
      // Push relative to the POPPED time — the monotone contract, exactly
      // how the simulator schedules timers and deliveries.
      const double offset = unit(rng) < r.zero_prob
                                ? 0.0
                                : -r.span * 0.1 * std::log1p(-unit(rng));
      h.push(popped + offset);
    }
    // Drain completely: the tail (deep rung remnants, top leftovers) must
    // come out in reference order too.
    std::uint64_t step = 3 * r.population;
    while (!h.ref.empty()) {
      (void)h.pop_and_compare(step++);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_TRUE(h.q.empty());
  }
}

TEST(EventQueueProperty, MatchesReferenceHeapOnBurstThenDrain) {
  // The other shape the simulator produces: a broadcast fans out a burst of
  // deliveries at once (plus stragglers mid-drain), then run_until consumes
  // the backlog. Bimodal times force multi-level rung spawning.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  LockstepHarness h;
  RealTime base = 0;
  std::uint64_t step = 0;
  for (int burst = 0; burst < 40; ++burst) {
    const std::size_t count = 1 + static_cast<std::size_t>(unit(rng) * 600);
    for (std::size_t i = 0; i < count; ++i) {
      // 10% of pushes land ~1000x further out than the rest.
      const double scale = unit(rng) < 0.1 ? 500.0 : 0.5;
      h.push(base + unit(rng) * scale);
    }
    // Drain roughly half the backlog, pushing the occasional zero-delay
    // event at the just-popped instant (joins its time cohort at the tail).
    const std::size_t drain = count / 2 + 1;
    for (std::size_t i = 0; i < drain && !h.ref.empty(); ++i) {
      base = h.pop_and_compare(step++);
      if (::testing::Test::HasFailure()) return;
      if (i % 7 == 0) h.push(base);
    }
  }
  while (!h.ref.empty()) {
    (void)h.pop_and_compare(step++);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(h.q.empty());
}

TEST(EventQueueProperty, MatchesReferenceHeapOnFixedDelayFanout) {
  // The sparse workloads' push pattern: fan-outs land at now + c, so those
  // deliveries arrive in time order and ride the delivery lane. Timers at
  // arbitrary future times, self-deliveries at now and a few out-of-order
  // deliveries go to the ladder, and timers exactly at now + c tie with
  // lane entries. Pins the lane, the ladder and how their heads interleave.
  constexpr double kDelay = 0.005;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    LockstepHarness h;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 64; ++i) h.push_timer_at(unit(rng));
    std::uint64_t step = 0;
    for (; step < 60000; ++step) {
      const RealTime now = h.pop_and_compare(step);
      if (::testing::Test::HasFailure()) return;
      if (h.q.size() < 4000 && unit(rng) < 0.3) {
        const int fan = 1 + static_cast<int>(unit(rng) * 8);
        for (int j = 0; j < fan; ++j) h.push_delivery_at(now + kDelay);
      }
      if (unit(rng) < 0.1) h.push_delivery_at(now);  // self-delivery
      if (unit(rng) < 0.05) h.push_timer_at(now + unit(rng));
      if (unit(rng) < 0.02) h.push_timer_at(now + kDelay);
      if (unit(rng) < 0.02) h.push_delivery_at(now + unit(rng) * kDelay);  // out of order
      if (h.q.size() < 16) h.push_timer_at(now + unit(rng) * 0.01);
    }
    while (!h.ref.empty()) {
      (void)h.pop_and_compare(step++);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_TRUE(h.q.empty());
  }
}

TEST(EventQueueProperty, RejectsPushesBeforeTheLastPop) {
  // The ladder's bucket spine depends on the monotone contract, so it is
  // enforced, not assumed: scheduling into the past is a logic error.
  EventQueue q;
  q.push_timer(5.0, TimerEvent{0, 1});
  q.push_timer(1.0, TimerEvent{0, 2});  // before another PUSH is fine
  EXPECT_EQ(q.pop().timer.id, 2u);
  EXPECT_THROW(q.push_timer(0.5, TimerEvent{0, 3}), std::logic_error);
  q.push_timer(1.0, TimerEvent{0, 4});  // exactly at the last pop is fine
  EXPECT_EQ(q.pop().timer.id, 4u);
  EXPECT_EQ(q.pop().timer.id, 1u);
  // Deliveries too: into the empty lane, and (behind the lane's tail) into
  // the ladder.
  const auto msg = std::make_shared<const Message>(InitMsg{1});
  EXPECT_THROW(q.push_delivery(4.0, DeliveryEvent{0, 1, msg, 0.0}), std::logic_error);
  q.push_delivery(6.0, DeliveryEvent{0, 1, msg, 0.0});
  q.push_delivery(7.0, DeliveryEvent{0, 1, msg, 0.0});
  EXPECT_EQ(q.pop().time, 6.0);
  EXPECT_THROW(q.push_delivery(5.5, DeliveryEvent{0, 1, msg, 0.0}), std::logic_error);
  EXPECT_EQ(q.pop().time, 7.0);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace stclock
