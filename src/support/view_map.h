// An open-addressing hash table from std::string_view keys to small values:
// one array of slots, no node and no key copy per entry. A key views bytes
// its owner keeps alive for as long as the table lives — the source text or
// a name in an AST arena, never a temporary. Entries are never erased.

#ifndef VALUECHECK_SRC_SUPPORT_VIEW_MAP_H_
#define VALUECHECK_SRC_SUPPORT_VIEW_MAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace vc {

template <typename V>
class ViewMap {
 public:
  // The value of `key`, or null.
  const V* Find(std::string_view key) const {
    if (slots_.empty()) {
      return nullptr;
    }
    const Slot& slot = slots_[Probe(key, Hash(key))];
    return slot.used ? &slot.value : nullptr;
  }
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }

  // The value of `key`, value-initialized when `key` is new. A key already
  // present keeps the view it was first inserted with.
  V& operator[](std::string_view key) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
    }
    const size_t hash = Hash(key);
    Slot& slot = slots_[Probe(key, hash)];
    if (!slot.used) {
      slot = Slot{key, V{}, static_cast<uint32_t>(hash), true};
      ++size_;
    }
    return slot.value;
  }

 private:
  struct Slot {
    std::string_view key;
    V value{};
    uint32_t hash = 0;  // low bits of the key's hash: its home slot
    bool used = false;
  };

  static size_t Hash(std::string_view key) { return std::hash<std::string_view>()(key); }

  // The slot holding `key`, or the free slot where it would go. The table
  // always has a free slot (its load stays at most one half).
  size_t Probe(std::string_view key, size_t hash) const {
    const size_t mask = slots_.size() - 1;
    const auto tag = static_cast<uint32_t>(hash);
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (!slot.used || (slot.hash == tag && slot.key == key)) {
        return i;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.used) {
        size_t i = slot.hash & mask;
        while (slots_[i].used) {
          i = (i + 1) & mask;
        }
        slots_[i] = std::move(slot);
      }
    }
  }

  std::vector<Slot> slots_;  // a power of two in size, or empty
  size_t size_ = 0;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_VIEW_MAP_H_
