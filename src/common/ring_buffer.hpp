// Power-of-two ring buffer backing the simulator's hot-path FIFOs (VC flit
// queues and their in-flight tails, link credit channels, NIC injection
// queues).
//
// std::deque pays a chunk allocation/deallocation every few dozen entries
// as a push/pop stream crosses block boundaries, which makes the steady
// state of a long simulation allocate on every few packets. This ring
// keeps one contiguous power-of-two array and masks the indices, so after
// the buffer has grown to its high-water mark a push/pop stream touches no
// allocator at all. Capacity only ever grows (callers that know their
// bound — e.g. a VC's credit-bounded depth — size it once up front and
// never grow).
//
// T is expected to be a cheap value type (the simulator stores PODs);
// popped slots are not destroyed eagerly, they are overwritten by a later
// push.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/error.hpp"

namespace dozz {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  /// Ring with room for at least `min_capacity` entries before regrowth.
  explicit RingBuffer(std::size_t min_capacity) { reserve(min_capacity); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return data_.size(); }

  /// Grows storage to a power of two >= n (never shrinks).
  void reserve(std::size_t n) {
    if (n > data_.size()) regrow(pow2_at_least(n));
  }

  void push_back(const T& value) {
    if (count_ == data_.size()) grow();
    data_[(head_ + count_) & mask_] = value;
    ++count_;
  }

  void push_back(T&& value) {
    if (count_ == data_.size()) grow();
    data_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  T& front() {
    DOZZ_ASSERT(count_ > 0);
    return data_[head_];
  }
  const T& front() const {
    DOZZ_ASSERT(count_ > 0);
    return data_[head_];
  }

  const T& back() const {
    DOZZ_ASSERT(count_ > 0);
    return data_[(head_ + count_ - 1) & mask_];
  }

  void pop_front() {
    DOZZ_ASSERT(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Logical indexing: [0] is the oldest entry, [size()-1] the newest.
  T& operator[](std::size_t i) {
    DOZZ_ASSERT(i < count_);
    return data_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    DOZZ_ASSERT(i < count_);
    return data_[(head_ + i) & mask_];
  }

  /// Drops all entries; keeps the storage for reuse.
  void clear() {
    head_ = 0;
    count_ = 0;
  }

  /// Forward iteration in logical (oldest-first) order — the order the
  /// checkpoint format serializes FIFO contents in.
  class const_iterator {
   public:
    const_iterator(const RingBuffer* ring, std::size_t i)
        : ring_(ring), i_(i) {}
    const T& operator*() const { return (*ring_)[i_]; }
    const T* operator->() const { return &(*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const RingBuffer* ring_;
    std::size_t i_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, count_); }

 private:
  static std::size_t pow2_at_least(std::size_t n) {
    std::size_t c = kMinCapacity;
    while (c < n) c *= 2;
    return c;
  }

  void grow() { regrow(data_.empty() ? kMinCapacity : data_.size() * 2); }

  void regrow(std::size_t new_capacity) {
    std::vector<T> grown(new_capacity);
    for (std::size_t i = 0; i < count_; ++i)
      grown[i] = std::move(data_[(head_ + i) & mask_]);
    data_.swap(grown);
    head_ = 0;
    mask_ = data_.size() - 1;
  }

  static constexpr std::size_t kMinCapacity = 4;

  std::vector<T> data_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace dozz
