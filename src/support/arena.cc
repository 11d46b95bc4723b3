#include "src/support/arena.h"

namespace vc {

void* Arena::AllocateSlow(size_t size) {
  bytes_used_ += size;
  if (!chunks_.empty() && size > next_chunk_bytes_) {
    // A chunk of its own, placed under the current one, which keeps its tail.
    auto own = chunks_.insert(chunks_.end() - 1, std::make_unique_for_overwrite<std::byte[]>(size));
    return own->get();
  }
  chunk_bytes_ = std::max(next_chunk_bytes_, size);
  chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(chunk_bytes_));
  used_ = size;
  if (chunks_.size() == 1) {
    next_chunk_bytes_ = std::max(next_chunk_bytes_ / 8, kMinChunkBytes);
  }
  return chunks_.back().get();
}

}  // namespace vc
