// Bounded least-recently-used table keyed by 64-bit device id.
//
// Every per-device table on the serving path (the enrollment cache shards,
// admission states, detector states and re-enrollment streaks) has the same
// shape: look a device up, promote it, and past a fixed bound forget the
// device touched longest ago, so a spray of ids cannot grow server memory.
// A recency-ordered list plus a hash index into it keeps every operation O(1).
//
// Not thread-safe: every owner keeps its own mutex around its table.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace ropuf {

/// Part i's share when `total` is split over `parts`: the base share, plus
/// one for each of the first total % parts parts, so the shares sum to
/// exactly `total`.
constexpr std::size_t split_share(std::size_t total, std::size_t parts, std::size_t i) {
  return total / parts + (i < total % parts ? 1 : 0);
}

template <typename V>
class BoundedLru {
 public:
  struct Entry {
    std::uint64_t key = 0;
    V value;
  };

  BoundedLru() = default;
  explicit BoundedLru(std::size_t capacity) : capacity_(capacity) {}

  /// The entry's value promoted to most recently used; nullptr when absent.
  V* touch(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// The entry's value without changing recency; nullptr when absent.
  const V* peek(std::uint64_t key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  /// Inserts an absent key as most recently used. When the table is full,
  /// the least recently used entry goes first, after on_evict(key, value)
  /// has seen it.
  template <typename OnEvict>
  V& insert(std::uint64_t key, V value, OnEvict&& on_evict) {
    assert(capacity_ > 0 && index_.count(key) == 0);
    if (entries_.size() >= capacity_) {
      Entry& victim = entries_.back();
      on_evict(victim.key, victim.value);
      index_.erase(victim.key);
      entries_.pop_back();
    }
    entries_.push_front(Entry{key, std::move(value)});
    index_.emplace(key, entries_.begin());
    return entries_.front().value;
  }

  V& insert(std::uint64_t key, V value) {
    return insert(key, std::move(value), [](std::uint64_t, V&) {});
  }

  /// Removes the key; false when it was absent.
  bool erase(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    entries_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::size_t size() const { return entries_.size(); }

  /// Most- to least-recently used.
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

 private:
  std::size_t capacity_ = 0;
  std::list<Entry> entries_;
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator> index_;
};

}  // namespace ropuf
