#include "src/vcs/repository.h"

#include <utility>

#include "src/support/thread_pool.h"

namespace vc {

AuthorId Repository::AddAuthor(std::string name) {
  authors_.push_back({std::move(name)});
  return static_cast<AuthorId>(authors_.size() - 1);
}

AuthorId Repository::FindAuthor(const std::string& name) const {
  for (size_t i = 0; i < authors_.size(); ++i) {
    if (authors_[i].name == name) {
      return static_cast<AuthorId>(i);
    }
  }
  return kInvalidAuthor;
}

CommitId Repository::AddCommit(AuthorId author, int64_t timestamp, std::string message,
                               std::map<std::string, std::string> changed_files,
                               std::set<std::string> deleted_files) {
  Commit commit;
  commit.id = static_cast<CommitId>(commits_.size());
  commit.author = author;
  commit.timestamp = timestamp;
  commit.message = std::move(message);
  commit.files = std::move(changed_files);
  commit.deleted = std::move(deleted_files);
  // Cached blame states are NOT invalidated here: they record how far into
  // the per-file log they have folded, and Blame() lazily advances them over
  // the new entries.
  for (const auto& [path, content] : commit.files) {
    file_log_[path].push_back(commit.id);
  }
  for (const std::string& path : commit.deleted) {
    file_log_[path].push_back(commit.id);
  }
  commits_.push_back(std::move(commit));
  return commits_.back().id;
}

std::optional<std::string> Repository::FileAt(const std::string& path, CommitId commit) const {
  auto it = file_log_.find(path);
  if (it == file_log_.end()) {
    return std::nullopt;
  }
  // Walk the per-file log backwards to the newest touch <= commit.
  const std::vector<CommitId>& log = it->second;
  for (size_t i = log.size(); i-- > 0;) {
    if (log[i] > commit) {
      continue;
    }
    const Commit& c = commits_[log[i]];
    if (c.deleted.count(path) > 0) {
      return std::nullopt;
    }
    auto file_it = c.files.find(path);
    if (file_it != c.files.end()) {
      return file_it->second;
    }
  }
  return std::nullopt;
}

std::optional<std::string> Repository::Head(const std::string& path) const {
  if (commits_.empty()) {
    return std::nullopt;
  }
  return FileAt(path, static_cast<CommitId>(commits_.size() - 1));
}

std::vector<std::string> Repository::ListFiles() const {
  std::vector<std::string> files;
  for (const auto& [path, log] : file_log_) {
    if (Head(path).has_value()) {
      files.push_back(path);
    }
  }
  return files;
}

std::vector<CommitId> Repository::LogOf(const std::string& path) const {
  auto it = file_log_.find(path);
  return it == file_log_.end() ? std::vector<CommitId>{} : it->second;
}

void Repository::AdvanceBlame(const std::string& path, CommitId up_to,
                              BlameReplayState& state) const {
  auto it = file_log_.find(path);
  if (it == file_log_.end()) {
    return;
  }
  const std::vector<CommitId>& log = it->second;
  for (; state.log_index < log.size(); ++state.log_index) {
    CommitId commit_id = log[state.log_index];
    if (commit_id > up_to) {
      break;
    }
    const Commit& commit = commits_[commit_id];
    if (commit.deleted.count(path) > 0) {
      state.attribution.clear();
      state.line_ends.clear();
      state.content_commit = kInvalidCommit;
      continue;
    }
    auto file_it = commit.files.find(path);
    if (file_it == commit.files.end()) {
      continue;
    }
    const std::string& next = file_it->second;
    std::vector<std::string_view> new_lines = SplitLines(next);
    if (state.content_commit == kInvalidCommit) {
      // (Re)creation: every line belongs to this commit.
      state.attribution.assign(new_lines.size(), {commit_id, commit.author});
    } else {
      std::string_view content = commits_[state.content_commit].files.at(path);
      std::vector<std::string_view> old_lines;
      old_lines.reserve(state.line_ends.size());
      size_t begin = 0;
      for (size_t end : state.line_ends) {
        old_lines.push_back(content.substr(begin, end - begin));
        begin = end + 1;
      }
      std::vector<LineOrigin> next_attr;
      next_attr.reserve(new_lines.size());
      for (const Edit& edit : DiffLines(old_lines, new_lines)) {
        if (edit.op == EditOp::kKeep) {
          next_attr.push_back(state.attribution[edit.old_index]);
        } else if (edit.op == EditOp::kInsert) {
          next_attr.push_back({commit_id, commit.author});
        }
      }
      state.attribution = std::move(next_attr);
    }
    state.line_ends.clear();
    state.line_ends.reserve(new_lines.size());
    for (std::string_view line : new_lines) {
      state.line_ends.push_back(static_cast<size_t>(line.data() - next.data()) + line.size());
    }
    state.content_commit = commit_id;
  }
}

const std::vector<LineOrigin>& Repository::Blame(const std::string& path) const {
  CommitId head = commits_.empty() ? kInvalidCommit : static_cast<CommitId>(commits_.size() - 1);
  BlameReplayState& state = blame_cache_[path];
  AdvanceBlame(path, head, state);
  return state.attribution;
}

std::vector<LineOrigin> Repository::BlameAt(const std::string& path, CommitId commit) const {
  BlameReplayState state;
  AdvanceBlame(path, commit, state);
  return std::move(state.attribution);
}

void Repository::WarmBlame(const std::vector<std::string>& paths, int jobs) const {
  // Serially: every cache entry exists before the parallel loop, because
  // inserting into blame_cache_ is not thread-safe. The set drops duplicate
  // paths, which would otherwise fold one state on two lanes.
  std::vector<std::pair<const std::string*, BlameReplayState*>> behind;
  for (const std::string& path : std::set<std::string>(paths.begin(), paths.end())) {
    auto log = file_log_.find(path);
    auto entry = blame_cache_.try_emplace(path).first;
    if (log != file_log_.end() && entry->second.log_index < log->second.size()) {
      behind.emplace_back(&entry->first, &entry->second);
    }
  }
  // In parallel: each lane folds one path's log into that path's own state;
  // commits_, file_log_ and the shape of blame_cache_ stay read-only.
  const CommitId head = static_cast<CommitId>(commits_.size()) - 1;
  ParallelFor(jobs, behind.size(),
              [&](size_t i) { AdvanceBlame(*behind[i].first, head, *behind[i].second); });
}

Repository Repository::PrefixCopy(CommitId up_to) const {
  Repository copy;
  for (const Author& author : authors_) {
    copy.AddAuthor(author.name);
  }
  for (const Commit& commit : commits_) {
    if (commit.id > up_to) {
      break;
    }
    copy.AddCommit(commit.author, commit.timestamp, commit.message, commit.files,
                   commit.deleted);
  }
  return copy;
}

}  // namespace vc
