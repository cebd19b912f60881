#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace garnet::util {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 3; ++i) EXPECT_FALSE(rb.push(i));
  EXPECT_EQ(rb.front(), 1);
  rb.pop();
  EXPECT_EQ(rb.front(), 2);
  rb.pop();
  EXPECT_EQ(rb.front(), 3);
}

TEST(RingBuffer, EvictsOldestWhenFull) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_TRUE(rb.push(4));  // evicts 1
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 2);
  EXPECT_EQ(rb.at(0), 2);
  EXPECT_EQ(rb.at(1), 3);
  EXPECT_EQ(rb.at(2), 4);
}

TEST(RingBuffer, WrapsManyTimes) {
  RingBuffer<int> rb(5);
  for (int i = 0; i < 100; ++i) rb.push(i);
  EXPECT_EQ(rb.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(rb.at(i), 95 + static_cast<int>(i));
}

TEST(RingBuffer, InterleavedPushPop) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.pop();
  rb.push(3);
  rb.push(4);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.front(), 2);
  rb.pop();
  rb.pop();
  rb.pop();
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, CapacityOne) {
  RingBuffer<std::string> rb(1);
  EXPECT_FALSE(rb.push("a"));
  EXPECT_TRUE(rb.push("b"));
  EXPECT_EQ(rb.front(), "b");
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(9);
  EXPECT_EQ(rb.front(), 9);
}

TEST(RingBuffer, FillsLazilyAndKeepsOrderAcrossPops) {
  // Storage grows with the pushes; pops before the buffer is full move
  // the head, and the growth that follows must keep oldest-first order.
  RingBuffer<int> rb(5);
  EXPECT_EQ(rb.capacity(), 5u);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  rb.pop();  // head now past the first slot
  EXPECT_FALSE(rb.push(4));
  EXPECT_FALSE(rb.push(5));
  EXPECT_FALSE(rb.push(6));
  EXPECT_TRUE(rb.full());
  EXPECT_TRUE(rb.push(7));  // at capacity: evicts 2
  ASSERT_EQ(rb.size(), 5u);
  for (std::size_t i = 0; i < rb.size(); ++i) EXPECT_EQ(rb.at(i), static_cast<int>(i) + 3);
}

TEST(RingBuffer, MoveOnlyFriendly) {
  RingBuffer<std::unique_ptr<int>> rb(2);
  rb.push(std::make_unique<int>(5));
  rb.push(std::make_unique<int>(6));
  rb.push(std::make_unique<int>(7));
  EXPECT_EQ(*rb.front(), 6);
}

}  // namespace
}  // namespace garnet::util
