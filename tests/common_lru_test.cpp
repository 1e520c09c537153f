#include "common/lru.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace ropuf {
namespace {

std::vector<std::uint64_t> keys_mru_first(BoundedLru<int>& lru) {
  std::vector<std::uint64_t> keys;
  for (const auto& entry : lru) keys.push_back(entry.key);
  return keys;
}

TEST(BoundedLru, TouchPromotesAndPeekDoesNot) {
  BoundedLru<int> lru(3);
  lru.insert(1, 10);
  lru.insert(2, 20);
  lru.insert(3, 30);
  EXPECT_EQ(keys_mru_first(lru), (std::vector<std::uint64_t>{3, 2, 1}));

  ASSERT_NE(lru.peek(1), nullptr);
  EXPECT_EQ(*lru.peek(1), 10);
  EXPECT_EQ(keys_mru_first(lru), (std::vector<std::uint64_t>{3, 2, 1}));

  int* touched = lru.touch(1);
  ASSERT_NE(touched, nullptr);
  *touched = 11;
  EXPECT_EQ(keys_mru_first(lru), (std::vector<std::uint64_t>{1, 3, 2}));
  EXPECT_EQ(*lru.peek(1), 11);

  EXPECT_EQ(lru.touch(99), nullptr);
  EXPECT_EQ(lru.peek(99), nullptr);
}

TEST(BoundedLru, EvictionHookSeesTheLruVictimOnce) {
  BoundedLru<int> lru(2);
  std::vector<std::pair<std::uint64_t, int>> evicted;
  const auto hook = [&evicted](std::uint64_t key, int& value) {
    evicted.emplace_back(key, value);
  };
  lru.insert(1, 10, hook);
  lru.insert(2, 20, hook);
  EXPECT_TRUE(evicted.empty());

  // Peeking 1 leaves it least recently used; touching 1 would save it.
  lru.peek(1);
  lru.insert(3, 30, hook);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (std::pair<std::uint64_t, int>{1, 10}));

  lru.touch(2);
  lru.insert(4, 40, hook);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[1], (std::pair<std::uint64_t, int>{3, 30}));
  EXPECT_EQ(keys_mru_first(lru), (std::vector<std::uint64_t>{4, 2}));
}

TEST(BoundedLru, SizeNeverExceedsCapacity) {
  BoundedLru<int> lru(5);
  for (std::uint64_t key = 0; key < 100; ++key) {
    lru.insert(key, static_cast<int>(key));
    EXPECT_LE(lru.size(), 5u);
  }
  EXPECT_EQ(lru.size(), 5u);
  EXPECT_EQ(keys_mru_first(lru), (std::vector<std::uint64_t>{99, 98, 97, 96, 95}));
}

TEST(BoundedLru, EraseThenReinsertStartsFresh) {
  BoundedLru<int> lru(2);
  lru.insert(1, 10);
  lru.insert(2, 20);
  EXPECT_TRUE(lru.erase(1));
  EXPECT_FALSE(lru.erase(1));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.peek(1), nullptr);

  // The freed slot takes the reinsert without evicting 2.
  int evictions = 0;
  lru.insert(1, 12, [&evictions](std::uint64_t, int&) { ++evictions; });
  EXPECT_EQ(evictions, 0);
  EXPECT_EQ(*lru.peek(1), 12);
  EXPECT_EQ(keys_mru_first(lru), (std::vector<std::uint64_t>{1, 2}));
}

TEST(SplitShare, SharesSumExactlyToTheTotal) {
  EXPECT_EQ(split_share(7, 3, 0), 3u);
  EXPECT_EQ(split_share(7, 3, 1), 2u);
  EXPECT_EQ(split_share(7, 3, 2), 2u);
  for (std::size_t total : {0u, 1u, 7u, 64u, 4096u, 4097u}) {
    for (std::size_t parts : {1u, 2u, 3u, 8u}) {
      std::size_t sum = 0;
      for (std::size_t i = 0; i < parts; ++i) {
        const std::size_t share = split_share(total, parts, i);
        EXPECT_LE(share, total / parts + 1);
        EXPECT_GE(share, total / parts);
        sum += share;
      }
      EXPECT_EQ(sum, total) << total << " over " << parts;
    }
  }
}

}  // namespace
}  // namespace ropuf
