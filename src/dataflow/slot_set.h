// Dense bitset over a function's memory slots, the lattice element of the
// liveness analysis (a DefineMap keeps one over the function's numbered
// stores). The bits sit in 64-bit words with the first word inline, so a
// set over at most 64 members never allocates; a larger set keeps its words
// on the heap and reuses them when it is reset or assigned. Union,
// equality and count work a word at a time.

#ifndef VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_
#define VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/ir/ir.h"

namespace vc {

// Sets (or clears) bits [begin, end) of a word array.
inline void SetBits(uint64_t* words, int begin, int end, bool value) {
  while (begin < end) {
    const int word = begin >> 6;
    const int span = std::min(end, (word + 1) * 64) - begin;
    const uint64_t bits = (span == 64 ? ~uint64_t{0} : (uint64_t{1} << span) - 1) << (begin & 63);
    words[word] = value ? words[word] | bits : words[word] & ~bits;
    begin += span;
  }
}

class SlotSet {
 public:
  SlotSet() = default;
  explicit SlotSet(int num_slots) { Reset(num_slots); }
  SlotSet(const SlotSet& other) { *this = other; }
  SlotSet(SlotSet&& other) noexcept { Take(other); }
  SlotSet& operator=(const SlotSet& other) {
    if (this != &other) {
      Reserve(other.num_words_, /*keep=*/false);
      num_words_ = other.num_words_;
      std::copy(other.words(), other.words() + num_words_, words());
    }
    return *this;
  }
  SlotSet& operator=(SlotSet&& other) noexcept {
    if (this != &other) {
      Release();
      Take(other);
    }
    return *this;
  }
  ~SlotSet() { Release(); }

  // Empties the set and sizes it for members [0, num_slots), keeping its
  // storage when that is large enough.
  void Reset(int num_slots) {
    const uint32_t n = WordsFor(num_slots);
    Reserve(n, /*keep=*/false);
    num_words_ = n;
    std::fill(words(), words() + n, 0);
  }

  bool Contains(SlotId slot) const {
    return slot >= 0 && static_cast<uint32_t>(slot >> 6) < num_words_ &&
           (words()[slot >> 6] >> (slot & 63) & 1) != 0;
  }

  // Grows the set on demand.
  void Add(SlotId slot) {
    if (slot < 0) {
      return;
    }
    Grow(static_cast<uint32_t>(slot >> 6) + 1);
    words()[slot >> 6] |= uint64_t{1} << (slot & 63);
  }

  void Remove(SlotId slot) {
    if (slot >= 0 && static_cast<uint32_t>(slot >> 6) < num_words_) {
      words()[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    }
  }

  // this |= other. Returns true if this changed.
  bool UnionWith(const SlotSet& other) {
    Grow(other.num_words_);
    uint64_t added = 0;
    uint64_t* mine = words();
    const uint64_t* theirs = other.words();
    for (uint32_t w = 0; w < other.num_words_; ++w) {
      added |= theirs[w] & ~mine[w];
      mine[w] |= theirs[w];
    }
    return added != 0;
  }

  int Count() const {
    int n = 0;
    for (uint32_t w = 0; w < num_words_; ++w) {
      n += std::popcount(words()[w]);
    }
    return n;
  }

  // Trailing zero words do not count: sets sized for different slot counts
  // compare by their members.
  friend bool operator==(const SlotSet& a, const SlotSet& b) {
    const SlotSet& longer = a.num_words_ >= b.num_words_ ? a : b;
    const SlotSet& shorter = a.num_words_ >= b.num_words_ ? b : a;
    if (!std::equal(shorter.words(), shorter.words() + shorter.num_words_, longer.words())) {
      return false;
    }
    return std::all_of(longer.words() + shorter.num_words_, longer.words() + longer.num_words_,
                       [](uint64_t word) { return word == 0; });
  }

  // The words themselves, for kernels that combine whole sets (bit i of the
  // set is bit i % 64 of word i / 64).
  uint32_t num_words() const { return num_words_; }
  const uint64_t* words() const { return capacity_ > 1 ? heap_ : &inline_; }
  uint64_t* words() { return capacity_ > 1 ? heap_ : &inline_; }

  static uint32_t WordsFor(int num_slots) {
    return std::max<uint32_t>(1, (static_cast<uint32_t>(std::max(num_slots, 0)) + 63) / 64);
  }

 private:
  // Sizes the set to at least `n` words, new words zero.
  void Grow(uint32_t n) {
    if (n > num_words_) {
      Reserve(n, /*keep=*/true);
      std::fill(words() + num_words_, words() + n, 0);
      num_words_ = n;
    }
  }
  // Makes room for `n` words, copying the current ones when `keep`.
  void Reserve(uint32_t n, bool keep) {
    if (n <= capacity_) {
      return;
    }
    auto* heap = new uint64_t[n];
    if (keep) {
      std::copy(words(), words() + num_words_, heap);
    }
    Release();
    heap_ = heap;
    capacity_ = n;
  }
  void Take(SlotSet& other) {
    num_words_ = other.num_words_;
    capacity_ = other.capacity_;
    if (other.capacity_ > 1) {
      heap_ = other.heap_;
    } else {
      inline_ = other.inline_;
    }
    other.num_words_ = 1;
    other.capacity_ = 1;
    other.inline_ = 0;
  }
  void Release() {
    if (capacity_ > 1) {
      delete[] heap_;
    }
    capacity_ = 1;
  }

  uint32_t num_words_ = 1;  // words in use; bits past the last slot are zero
  uint32_t capacity_ = 1;   // 1: the inline word; more: heap_'s length
  union {
    uint64_t inline_ = 0;
    uint64_t* heap_;
  };
};

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_
