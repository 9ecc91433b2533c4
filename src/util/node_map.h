// Small open-addressing hash map from NodeId to a small value.
// Search sessions overlay a handful of weight deltas on top of shared base
// arrays; std::unordered_map's allocation-per-node overhead dominates at that
// scale, so we use a flat power-of-two table with linear probing. A map that
// was never written holds no table at all, so a session that has not yet
// needed an overlay costs only the map's 16 inline bytes.
#ifndef AIGS_UTIL_NODE_MAP_H_
#define AIGS_UTIL_NODE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/common.h"

namespace aigs {

/// Flat hash map NodeId -> V with linear probing. V must be
/// default-constructible and movable. Deletion is not supported (sessions
/// only accumulate deltas).
template <typename V>
class NodeMap {
 public:
  /// Slots allocated by the first insert; the table doubles from there.
  static constexpr std::size_t kInitialCapacity = 8;

  /// Number of stored keys.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Allocated slots (0 until the first insert).
  std::size_t capacity() const { return slots_ ? mask_ + std::size_t{1} : 0; }

  /// Removes all entries (keeps capacity).
  void Clear() {
    if (size_ == 0) {
      return;
    }
    for (std::size_t i = 0; i < capacity(); ++i) {
      slots_[i] = Slot{};
    }
    size_ = 0;
  }

  /// Returns a reference to the value for `key`, default-constructing it if
  /// absent. The reference is valid until the next insert.
  V& operator[](NodeId key) {
    AIGS_DCHECK(key != kInvalidNode);
    if ((size_ + std::size_t{1}) * 4 > capacity() * 3) {
      Rehash(slots_ ? capacity() * 2 : kInitialCapacity);
    }
    Slot& slot = slots_[Probe(key)];
    if (slot.key == kInvalidNode) {
      slot.key = key;
      ++size_;
    }
    return slot.value;
  }

  /// Returns the value for `key`, or `fallback` if absent. No insertion.
  V GetOr(NodeId key, V fallback) const {
    if (size_ == 0) {
      return fallback;
    }
    const Slot& slot = slots_[Probe(key)];
    return slot.key == key ? slot.value : fallback;
  }

  /// True iff `key` is present.
  bool Contains(NodeId key) const {
    return size_ != 0 && slots_[Probe(key)].key == key;
  }

  /// Invokes fn(key, value) for every entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (size_ == 0) {
      return;
    }
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (slots_[i].key != kInvalidNode) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }

 private:
  struct Slot {
    NodeId key = kInvalidNode;
    V value{};
  };

  static std::size_t Hash(NodeId key) {
    std::uint64_t x = key;
    x *= 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(x >> 32);
  }

  /// The slot holding `key`, or the empty slot where it would go. Requires
  /// an allocated table.
  std::size_t Probe(NodeId key) const {
    std::size_t i = Hash(key) & mask_;
    while (slots_[i].key != kInvalidNode && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(std::size_t capacity) {
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const std::size_t old_capacity = old ? mask_ + std::size_t{1} : 0;
    slots_ = std::make_unique<Slot[]>(capacity);
    mask_ = static_cast<std::uint32_t>(capacity - 1);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].key != kInvalidNode) {
        slots_[Probe(old[i].key)] = std::move(old[i]);
      }
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::uint32_t mask_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace aigs

#endif  // AIGS_UTIL_NODE_MAP_H_
