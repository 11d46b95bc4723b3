#include "src/support/source_manager.h"

#include <cstring>
#include <utility>

namespace vc {

namespace {

// The byte offset of each line's start: 0, and one past every '\n' except a
// final one (no line starts after it).
void IndexLines(const std::string& content, std::vector<size_t>& line_starts) {
  const char* const begin = content.data();
  const char* const end = begin + content.size();
  line_starts.clear();
  line_starts.push_back(0);
  for (const char* p = begin; p < end;) {
    const char* newline =
        static_cast<const char*>(std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (newline == nullptr || newline + 1 == end) {
      break;
    }
    p = newline + 1;
    line_starts.push_back(static_cast<size_t>(p - begin));
  }
}

}  // namespace

std::string ToString(const SourceLoc& loc) {
  if (!loc.IsValid()) {
    return "<invalid>";
  }
  return "file" + std::to_string(loc.file) + ":" + std::to_string(loc.line) + ":" +
         std::to_string(loc.column);
}

FileId SourceManager::AddFile(std::string path, std::string content) {
  File file;
  file.path = std::move(path);
  file.content = std::move(content);
  IndexLines(file.content, file.line_starts);
  const FileId id = static_cast<FileId>(files_.size());
  by_path_.try_emplace(file.path, id);
  files_.push_back(std::move(file));
  return id;
}

void SourceManager::ReplaceContent(FileId id, std::string content) {
  File& file = files_[id];
  file.content = std::move(content);
  IndexLines(file.content, file.line_starts);
}

FileId SourceManager::FindByPath(std::string_view path) const {
  auto it = by_path_.find(path);
  return it != by_path_.end() ? it->second : kInvalidFileId;
}

int SourceManager::NumLines(FileId id) const {
  const File& file = files_[id];
  if (file.content.empty()) {
    return 0;
  }
  return static_cast<int>(file.line_starts.size());
}

std::string_view SourceManager::Line(FileId id, int line) const {
  const File& file = files_[id];
  if (line < 1 || line > NumLines(id)) {
    return {};
  }
  size_t start = file.line_starts[line - 1];
  size_t end = (line < static_cast<int>(file.line_starts.size()))
                   ? file.line_starts[line] - 1  // exclude the '\n'
                   : file.content.size();
  // A file ending exactly at '\n' leaves `end` at content.size(); strip a
  // trailing newline if present.
  std::string_view view(file.content.data() + start, end - start);
  if (!view.empty() && view.back() == '\n') {
    view.remove_suffix(1);
  }
  return view;
}

std::string SourceManager::Render(const SourceLoc& loc) const {
  if (!loc.IsValid() || loc.file >= NumFiles()) {
    return "<invalid>";
  }
  return Path(loc.file) + ":" + std::to_string(loc.line) + ":" + std::to_string(loc.column);
}

}  // namespace vc
