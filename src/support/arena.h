// Chunked bump allocator for data that is freed all at once: a file's syntax
// tree and its IR module each live in one. Objects are placement-constructed
// into chunks that are never zero-filled and never destroyed one by one, so
// only trivially destructible types go in (checked at compile time), and
// freeing an arena frees its chunks and nothing else.
//
// Chunks never move. A pointer, span or string view into an arena therefore
// stays valid until the arena itself is destroyed, even when the object that
// owns the arena is moved.

#ifndef VALUECHECK_SRC_SUPPORT_ARENA_H_
#define VALUECHECK_SRC_SUPPORT_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vc {

// The first chunk holds `first_chunk_bytes`, the owner's estimate of what it
// will place; each later chunk holds an eighth of that (at least
// kMinChunkBytes), so an owner that outgrows its estimate leaves at most one
// small chunk's tail unused. A request larger than a chunk gets a chunk of
// its own, and the current chunk keeps taking the requests after it.
class Arena {
 public:
  static constexpr size_t kMinChunkBytes = 512;
  // Every chunk starts at the allocator's default alignment.
  static constexpr size_t kMaxAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

  explicit Arena(size_t first_chunk_bytes = 0)
      : next_chunk_bytes_(std::max(first_chunk_bytes, kMinChunkBytes)) {}
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>, "an arena never runs destructors");
    static_assert(alignof(T) <= kMaxAlign);
    return new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  // `count` value-initialized objects; an empty span for zero.
  template <typename T>
  std::span<T> NewArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>, "an arena never runs destructors");
    static_assert(alignof(T) <= kMaxAlign);
    if (count == 0) {
      return {};
    }
    T* items = static_cast<T*>(Allocate(sizeof(T) * count, alignof(T)));
    for (size_t i = 0; i < count; ++i) {
      new (items + i) T();
    }
    return {items, count};
  }

  // A copy of `items` in the arena, one memcpy; an empty span (taking no
  // bytes) for an empty input.
  template <typename T>
  std::span<T> Copy(std::span<const T> items) {
    static_assert(std::is_trivially_destructible_v<T>, "an arena never runs destructors");
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kMaxAlign);
    if (items.empty()) {
      return {};
    }
    T* out = static_cast<T*>(Allocate(items.size_bytes(), alignof(T)));
    std::memcpy(out, items.data(), items.size_bytes());
    return {out, items.size()};
  }
  template <typename T>
  std::span<T> Copy(const std::vector<T>& items) {
    return Copy(std::span<const T>(items));
  }

  // A copy of `text` in the arena; an empty view (taking no bytes) for empty
  // text.
  std::string_view CopyString(std::string_view text) {
    if (text.empty()) {
      return {};
    }
    char* out = static_cast<char*>(Allocate(text.size(), 1));
    std::memcpy(out, text.data(), text.size());
    return {out, text.size()};
  }

  // Bytes handed out, alignment padding included; not the chunks' unused
  // tails.
  uint64_t bytes_used() const { return bytes_used_; }
  size_t chunk_count() const { return chunks_.size(); }

 private:
  // `size` bytes at `align` (a power of two, at most kMaxAlign).
  void* Allocate(size_t size, size_t align) {
    size_t offset = (used_ + align - 1) & ~(align - 1);
    if (chunks_.empty() || offset + size > chunk_bytes_) {
      return AllocateSlow(size);
    }
    bytes_used_ += offset + size - used_;
    used_ = offset + size;
    return chunks_.back().get() + offset;
  }
  void* AllocateSlow(size_t size);

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  size_t chunk_bytes_ = 0;  // size of chunks_.back()
  size_t used_ = 0;         // bytes taken from chunks_.back()
  size_t next_chunk_bytes_;
  uint64_t bytes_used_ = 0;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_ARENA_H_
