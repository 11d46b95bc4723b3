#include "src/vcs/history_io.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <stdexcept>
#include <string_view>

#include "src/support/string_util.h"

namespace vc {

namespace {

// Reads a history forward once, a line at a time, in place. A line ends at
// '\n' or at the end of the text; a final '\n' starts no further line.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  bool Done() const { return pos_ >= text_.size(); }
  size_t pos() const { return pos_; }  // start of the next line

  std::string_view Take() {
    const size_t end = std::min(text_.find('\n', pos_), text_.size());
    std::string_view line = text_.substr(pos_, end - pos_);
    pos_ = std::min(end + 1, text_.size());
    return line;
  }

  // Takes a content block's lines through its close, the first line whose
  // trimmed text is ">>>", and returns the bytes before the close; nullopt
  // when no line closes it. Only lines containing ">>>" are looked at, and
  // a line that is not a close is skipped whole.
  std::optional<std::string_view> TakeBlock() {
    const size_t begin = pos_;
    size_t from = begin;
    while (from < text_.size()) {
      const size_t at = text_.find(">>>", from);
      if (at == std::string_view::npos) {
        return std::nullopt;
      }
      // A block starts right after a '\n', so its lines' starts are found
      // without leaving it.
      const size_t line_begin = text_.rfind('\n', at) + 1;
      const size_t line_end = std::min(text_.find('\n', at), text_.size());
      if (Trim(text_.substr(line_begin, line_end - line_begin)) == ">>>") {
        pos_ = std::min(line_end + 1, text_.size());
        return text_.substr(begin, line_begin - begin);
      }
      from = line_end + 1;
    }
    return std::nullopt;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// The 1-based number of the line starting at `pos`. Past the last line it is
// one more than the number of lines, whether or not the text ends in '\n'.
int LineNumber(std::string_view text, size_t pos) {
  int line = 1 + static_cast<int>(std::count(text.begin(), text.begin() + pos, '\n'));
  if (pos == text.size() && !text.empty() && text.back() != '\n') {
    ++line;
  }
  return line;
}

// Throws std::invalid_argument unless a path, author name or message reads
// back as written: loading takes the rest of its directive's line, trimmed.
void CheckField(CommitId id, const char* what, const std::string& value) {
  const char* problem = nullptr;
  if (value.find('\n') != std::string::npos) {
    problem = "holds a newline";
  } else if (value.empty() || Trim(value).size() != value.size()) {
    problem = "is empty or has leading or trailing whitespace, which loading would trim";
  }
  if (problem != nullptr) {
    throw std::invalid_argument("SaveHistory: commit " + std::to_string(id) + ": " + what +
                                " '" + value + "' " + problem);
  }
}

// Throws std::invalid_argument when a line of `content` would close its
// content block: its trimmed text is ">>>".
void CheckContent(CommitId id, const std::string& path, std::string_view content) {
  for (size_t at = content.find(">>>"); at != std::string_view::npos;
       at = content.find(">>>", at + 3)) {
    const size_t line_begin = at == 0 ? 0 : content.rfind('\n', at - 1) + 1;
    const size_t line_end = std::min(content.find('\n', at), content.size());
    if (Trim(content.substr(line_begin, line_end - line_begin)) == ">>>") {
      throw std::invalid_argument("SaveHistory: commit " + std::to_string(id) + ": '" + path +
                                  "' has a line that reads '>>>', which would close its "
                                  "content block");
    }
  }
}

}  // namespace

std::optional<Repository> LoadHistory(const std::string& text, std::string* error) {
  Repository repo;
  std::map<std::string, AuthorId> authors;
  LineReader reader(text);
  // Line numbers are counted only here, on the way out with an error.
  auto fail = [&](size_t line_begin, const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(LineNumber(text, line_begin)) + ": " + message;
    }
    return std::nullopt;
  };

  auto intern_author = [&](const std::string& name) {
    auto it = authors.find(name);
    if (it != authors.end()) {
      return it->second;
    }
    AuthorId id = repo.AddAuthor(name);
    authors[name] = id;
    return id;
  };

  while (!reader.Done()) {
    const size_t commit_at = reader.pos();
    std::string_view line = Trim(reader.Take());
    if (line.empty() || line.front() == '#') {
      continue;
    }
    if (line != "commit") {
      return fail(commit_at, "expected 'commit', got '" + std::string(line) + "'");
    }

    std::string author_name;
    int64_t timestamp = 0;
    std::string message;
    std::map<std::string, std::string> writes;
    std::set<std::string> deletes;
    bool ended = false;
    // A path written or deleted twice in one commit would be logged twice,
    // so it is an error.
    auto named_twice = [&](const std::string& path) {
      return writes.count(path) > 0 || deletes.count(path) > 0;
    };

    while (!reader.Done() && !ended) {
      const size_t at = reader.pos();
      std::string_view directive = Trim(reader.Take());
      if (directive.empty() || directive.front() == '#') {
        continue;
      }
      if (directive == "end") {
        ended = true;
      } else if (directive.rfind("author ", 0) == 0) {
        author_name = std::string(Trim(directive.substr(7)));
      } else if (directive.rfind("time ", 0) == 0) {
        std::string_view value = Trim(directive.substr(5));
        const char* end = value.data() + value.size();
        auto [parsed_end, status] = std::from_chars(value.data(), end, timestamp);
        if (status != std::errc() || parsed_end != end) {
          return fail(at, "time '" + std::string(value) + "' is not an integer");
        }
      } else if (directive.rfind("message ", 0) == 0) {
        message = std::string(Trim(directive.substr(8)));
      } else if (directive.rfind("delete ", 0) == 0) {
        std::string path(Trim(directive.substr(7)));
        if (named_twice(path)) {
          return fail(at, "'" + path + "' named twice in one commit");
        }
        deletes.insert(std::move(path));
      } else if (directive.rfind("write ", 0) == 0) {
        std::string path(Trim(directive.substr(6)));
        if (named_twice(path)) {
          return fail(at, "'" + path + "' named twice in one commit");
        }
        if (reader.Done() || Trim(reader.Take()) != "<<<") {
          return fail(at, "expected '<<<' after 'write " + path + "'");
        }
        std::optional<std::string_view> content = reader.TakeBlock();
        if (!content.has_value()) {
          return fail(at, "unterminated content block for '" + path + "'");
        }
        writes.emplace(std::move(path), std::string(*content));
      } else {
        return fail(at, "unknown directive '" + std::string(directive) + "'");
      }
    }
    if (!ended) {
      return fail(reader.pos(), "commit block missing 'end'");
    }
    if (author_name.empty()) {
      return fail(reader.pos(), "commit block missing 'author'");
    }
    repo.AddCommit(intern_author(author_name), timestamp, std::move(message),
                   std::move(writes), std::move(deletes));
  }
  return repo;
}

std::string SaveHistory(const Repository& repo) {
  std::string out;
  for (CommitId id = 0; id < repo.NumCommits(); ++id) {
    const Commit& commit = repo.GetCommit(id);
    const std::string& author = repo.GetAuthor(commit.author).name;
    CheckField(id, "author", author);
    out += "commit\n";
    out += "author " + author + "\n";
    out += "time " + std::to_string(commit.timestamp) + "\n";
    if (!commit.message.empty()) {  // no directive loads as an empty message
      CheckField(id, "message", commit.message);
      out += "message " + commit.message + "\n";
    }
    for (const auto& [path, content] : commit.files) {
      CheckField(id, "path", path);
      CheckContent(id, path, content);
      out += "write " + path + "\n<<<\n";
      out += content;
      if (!content.empty() && content.back() != '\n') {
        out += '\n';
      }
      out += ">>>\n";
    }
    for (const std::string& path : commit.deleted) {
      CheckField(id, "path", path);
      out += "delete " + path + "\n";
    }
    out += "end\n";
  }
  return out;
}

}  // namespace vc
