#include "src/vcs/history_io.h"

#include <charconv>
#include <map>

#include "src/support/string_util.h"
#include "src/vcs/diff.h"

namespace vc {

namespace {

struct Cursor {
  std::vector<std::string_view> lines;
  size_t index = 0;

  bool Done() const { return index >= lines.size(); }
  std::string_view Peek() const { return lines[index]; }
  std::string_view Take() { return lines[index++]; }
  int LineNo() const { return static_cast<int>(index) + 1; }
};

bool Fail(std::string* error, int line, const std::string& message) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + message;
  }
  return false;
}

}  // namespace

std::optional<Repository> LoadHistory(const std::string& text, std::string* error) {
  Repository repo;
  std::map<std::string, AuthorId> authors;
  Cursor cursor;
  cursor.lines = SplitLines(text);

  auto intern_author = [&](const std::string& name) {
    auto it = authors.find(name);
    if (it != authors.end()) {
      return it->second;
    }
    AuthorId id = repo.AddAuthor(name);
    authors[name] = id;
    return id;
  };

  while (!cursor.Done()) {
    std::string_view line = Trim(cursor.Peek());
    if (line.empty() || line.front() == '#') {
      cursor.Take();
      continue;
    }
    if (line != "commit") {
      Fail(error, cursor.LineNo(), "expected 'commit', got '" + std::string(line) + "'");
      return std::nullopt;
    }
    cursor.Take();

    std::string author_name;
    int64_t timestamp = 0;
    std::string message;
    std::map<std::string, std::string> writes;
    std::set<std::string> deletes;
    bool ended = false;
    // A path written or deleted twice in one commit would be logged twice,
    // so it is an error.
    auto named_twice = [&](const std::string& path, int at) {
      if (writes.count(path) == 0 && deletes.count(path) == 0) {
        return false;
      }
      Fail(error, at, "'" + path + "' named twice in one commit");
      return true;
    };

    while (!cursor.Done() && !ended) {
      int at = cursor.LineNo();
      std::string_view directive = Trim(cursor.Take());
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
          Fail(error, at, "time '" + std::string(value) + "' is not an integer");
          return std::nullopt;
        }
      } else if (directive.rfind("message ", 0) == 0) {
        message = std::string(Trim(directive.substr(8)));
      } else if (directive.rfind("delete ", 0) == 0) {
        std::string path(Trim(directive.substr(7)));
        if (named_twice(path, at)) {
          return std::nullopt;
        }
        deletes.insert(std::move(path));
      } else if (directive.rfind("write ", 0) == 0) {
        std::string path(Trim(directive.substr(6)));
        if (named_twice(path, at)) {
          return std::nullopt;
        }
        if (cursor.Done() || Trim(cursor.Take()) != "<<<") {
          Fail(error, at, "expected '<<<' after 'write " + path + "'");
          return std::nullopt;
        }
        std::string content;
        bool closed = false;
        while (!cursor.Done()) {
          std::string_view content_line = cursor.Take();
          if (Trim(content_line) == ">>>") {
            closed = true;
            break;
          }
          content += std::string(content_line);
          content += '\n';
        }
        if (!closed) {
          Fail(error, at, "unterminated content block for '" + path + "'");
          return std::nullopt;
        }
        writes[path] = std::move(content);
      } else {
        Fail(error, at, "unknown directive '" + std::string(directive) + "'");
        return std::nullopt;
      }
    }
    if (!ended) {
      Fail(error, cursor.LineNo(), "commit block missing 'end'");
      return std::nullopt;
    }
    if (author_name.empty()) {
      Fail(error, cursor.LineNo(), "commit block missing 'author'");
      return std::nullopt;
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
    out += "commit\n";
    out += "author " + repo.GetAuthor(commit.author).name + "\n";
    out += "time " + std::to_string(commit.timestamp) + "\n";
    out += "message " + commit.message + "\n";
    for (const auto& [path, content] : commit.files) {
      out += "write " + path + "\n<<<\n";
      out += content;
      if (!content.empty() && content.back() != '\n') {
        out += '\n';
      }
      out += ">>>\n";
    }
    for (const std::string& path : commit.deleted) {
      out += "delete " + path + "\n";
    }
    out += "end\n";
  }
  return out;
}

}  // namespace vc
