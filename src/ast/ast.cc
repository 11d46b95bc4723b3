#include "src/ast/ast.h"

namespace vc {

AstContext::~AstContext() {
  for (AstNode* node : nodes_) {
    node->~AstNode();
  }
}

void AstContext::NewChunk(size_t at_least) {
  chunk_bytes_ = std::max(next_chunk_bytes_, at_least);
  chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(chunk_bytes_));
  used_ = 0;
  if (chunks_.size() == 1) {
    next_chunk_bytes_ = std::max(next_chunk_bytes_ / 8, kMinChunkBytes);
  }
}

}  // namespace vc
