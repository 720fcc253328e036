#include <gtest/gtest.h>

#include "sim/event_queue.h"

namespace stclock {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push_timer(3.0, TimerEvent{0, 1});
  q.push_timer(1.0, TimerEvent{0, 2});
  q.push_timer(2.0, TimerEvent{0, 3});

  EXPECT_EQ(q.pop().timer.id, 2u);
  EXPECT_EQ(q.pop().timer.id, 3u);
  EXPECT_EQ(q.pop().timer.id, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (TimerId id = 1; id <= 5; ++id) q.push_timer(1.0, TimerEvent{0, id});
  for (TimerId id = 1; id <= 5; ++id) EXPECT_EQ(q.pop().timer.id, id);
}

TEST(EventQueue, MixedTimersAndDeliveries) {
  EventQueue q;
  auto msg = std::make_shared<const Message>(InitMsg{1});
  q.push_delivery(2.0, DeliveryEvent{1, 0, msg, 1.5});
  q.push_timer(1.0, TimerEvent{0, 7});

  const Event first = q.pop();
  EXPECT_TRUE(first.is_timer);
  const Event second = q.pop();
  EXPECT_FALSE(second.is_timer);
  EXPECT_EQ(second.delivery.to, 1u);
  EXPECT_EQ(second.delivery.from, 0u);
  EXPECT_DOUBLE_EQ(second.delivery.sent_at, 1.5);
}

TEST(EventQueue, PopUntilLeavesLaterEventsQueued) {
  EventQueue q;
  EXPECT_FALSE(q.pop_until(10.0).has_value());  // empty
  q.push_timer(4.5, TimerEvent{0, 1});
  EXPECT_FALSE(q.pop_until(4.0).has_value());
  EXPECT_EQ(q.size(), 1u);
  const std::optional<Event> e = q.pop_until(4.5);
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->time, 4.5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyQueuePopThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(EventQueue, RejectsNegativeTimeAndNullMessage) {
  EventQueue q;
  EXPECT_THROW(q.push_timer(-1.0, TimerEvent{0, 1}), std::logic_error);
  EXPECT_THROW(q.push_delivery(1.0, DeliveryEvent{0, 0, nullptr, 0.0}), std::logic_error);
}

TEST(EventQueue, EqualTimeTiesBreakFifoAcrossKinds) {
  // Timers and deliveries interleaved at one instant must pop in exact
  // insertion order even though they live in different internal stores
  // (timers inline in the heap entry, deliveries in the slab).
  EventQueue q;
  auto msg = std::make_shared<const Message>(InitMsg{1});
  for (std::uint32_t i = 0; i < 64; ++i) {
    if (i % 3 == 0) {
      q.push_timer(2.5, TimerEvent{i, static_cast<TimerId>(i + 1)});
    } else {
      q.push_delivery(2.5, DeliveryEvent{i, 0, msg, 0.0});
    }
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    const Event e = q.pop();
    EXPECT_DOUBLE_EQ(e.time, 2.5);
    if (i % 3 == 0) {
      ASSERT_TRUE(e.is_timer) << "position " << i;
      EXPECT_EQ(e.timer.node, i);
      EXPECT_EQ(e.timer.id, static_cast<TimerId>(i + 1));
    } else {
      ASSERT_FALSE(e.is_timer) << "position " << i;
      EXPECT_EQ(e.delivery.to, i);
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SlabSlotsAreReusedWithoutCorruption) {
  // Heavy pop/push churn forces delivery payload slots through the free
  // list; every payload must come back intact (right receiver, right
  // message) regardless of which slot it landed in.
  EventQueue q;
  RealTime t = 0;
  std::uint32_t next_to = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    q.push_delivery(t + 1, DeliveryEvent{next_to, 0,
                                         std::make_shared<const Message>(InitMsg{next_to}), t});
    ++next_to;
  }
  std::uint32_t expect_to = 0;
  for (int step = 0; step < 1000; ++step) {
    const Event e = q.pop();
    ASSERT_FALSE(e.is_timer);
    EXPECT_EQ(e.delivery.to, expect_to);
    EXPECT_EQ(message_round(*e.delivery.msg), expect_to);
    ++expect_to;
    t = e.time;
    q.push_delivery(t + 1, DeliveryEvent{next_to, 0,
                                         std::make_shared<const Message>(InitMsg{next_to}), t});
    ++next_to;
  }
  EXPECT_EQ(q.size(), 8u);
}

TEST(EventQueue, ReserveDoesNotDisturbContents) {
  EventQueue q;
  q.reserve(1024);
  q.push_timer(1.0, TimerEvent{0, 1});
  q.push_timer(0.5, TimerEvent{0, 2});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().timer.id, 2u);
  EXPECT_EQ(q.pop().timer.id, 1u);
}

TEST(EventQueue, LargeInterleavedLoad) {
  EventQueue q;
  // Push times 999, 998, ..., 0 then verify ascending pop order.
  for (int i = 999; i >= 0; --i) {
    q.push_timer(static_cast<RealTime>(i), TimerEvent{0, static_cast<TimerId>(i)});
  }
  RealTime prev = -1;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GT(e.time, prev);
    prev = e.time;
  }
}

}  // namespace
}  // namespace stclock
