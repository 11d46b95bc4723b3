// Owns the text of every source file under analysis and provides line-level
// access. The pruning passes (configuration dependency, unused hints) operate
// on raw source lines, so the manager keeps the full original text — including
// preprocessor-disabled regions that never reach the lexer.

#ifndef VALUECHECK_SRC_SUPPORT_SOURCE_MANAGER_H_
#define VALUECHECK_SRC_SUPPORT_SOURCE_MANAGER_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/support/source_location.h"
#include "src/support/string_util.h"

namespace vc {

class SourceManager {
 public:
  SourceManager() = default;

  // Registers a file. `path` is a display name (also the key used by the VCS
  // layer); `content` is the full text. Returns the new file's id. A path
  // registered twice gets two ids; FindByPath names the first.
  FileId AddFile(std::string path, std::string content);

  // Replaces the text of an already-registered file in place, recomputing its
  // line index. The id stays valid — the incremental engine relies on a path
  // keeping its FileId across recompiles so cached locations stay meaningful.
  void ReplaceContent(FileId id, std::string content);

  // Number of registered files.
  int NumFiles() const { return static_cast<int>(files_.size()); }

  const std::string& Path(FileId id) const { return files_[id].path; }
  const std::string& Content(FileId id) const { return files_[id].content; }

  // Looks up a file id by path (one hash lookup); returns kInvalidFileId if
  // not registered.
  FileId FindByPath(std::string_view path) const;

  // Number of lines in the file (a trailing newline does not add a line).
  int NumLines(FileId id) const;

  // Returns the text of 1-based `line` without its trailing newline.
  // Out-of-range lines yield an empty view.
  std::string_view Line(FileId id, int line) const;

  // Renders "path:line:col" for diagnostics and reports.
  std::string Render(const SourceLoc& loc) const;

 private:
  struct File {
    std::string path;
    std::string content;
    // Byte offset of the start of each line; line_starts[i] is line i+1.
    std::vector<size_t> line_starts;
  };

  std::vector<File> files_;
  // Path -> the first id registered under it. Keys are owned copies: a view
  // into File::path would dangle when files_ reallocates (short strings live
  // inside the File).
  std::unordered_map<std::string, FileId, StringViewHash, std::equal_to<>> by_path_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_SOURCE_MANAGER_H_
