#include "src/vcs/repository.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string_view>
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
  auto commit = std::make_shared<Commit>();
  commit->id = static_cast<CommitId>(commits_.size());
  commit->author = author;
  commit->timestamp = timestamp;
  commit->message = std::move(message);
  commit->files = std::move(changed_files);
  commit->deleted = std::move(deleted_files);
  Append(std::move(commit));
  return commits_.back()->id;
}

CommitId Repository::AddCommitFrom(const Repository& source, CommitId id) {
  if (id != NumCommits() || id >= source.NumCommits()) {
    throw std::invalid_argument("Repository::AddCommitFrom: commit " + std::to_string(id) +
                                " is not the next commit of this repository and of the source");
  }
  while (NumAuthors() < source.NumAuthors()) {
    AddAuthor(source.GetAuthor(NumAuthors()).name);
  }
  Append(source.commits_[id]);
  return id;
}

void Repository::Append(std::shared_ptr<const Commit> commit) {
  // Cached blame states are NOT invalidated here: they record how far into
  // the per-file log they have folded, and Blame() lazily advances them over
  // the new entries.
  for (const auto& [path, content] : commit->files) {
    file_log_[path].push_back(commit->id);
  }
  for (const std::string& path : commit->deleted) {
    file_log_[path].push_back(commit->id);
  }
  commits_.push_back(std::move(commit));
}

const std::string* Repository::ContentAt(const std::string& path,
                                         const std::vector<CommitId>& log,
                                         CommitId commit) const {
  // Every log entry touches the path, so the newest one <= commit decides.
  auto newest = std::upper_bound(log.begin(), log.end(), commit);
  if (newest == log.begin()) {
    return nullptr;
  }
  const Commit& c = *commits_[*std::prev(newest)];
  if (c.deleted.count(path) > 0) {
    return nullptr;
  }
  auto file_it = c.files.find(path);
  return file_it == c.files.end() ? nullptr : &file_it->second;
}

std::optional<std::string> Repository::FileAt(const std::string& path, CommitId commit) const {
  auto it = file_log_.find(path);
  const std::string* content =
      it == file_log_.end() ? nullptr : ContentAt(path, it->second, commit);
  if (content == nullptr) {
    return std::nullopt;
  }
  return *content;
}

std::optional<std::string> Repository::Head(const std::string& path) const {
  return FileAt(path, static_cast<CommitId>(commits_.size()) - 1);
}

std::vector<std::string> Repository::ListFilesAt(CommitId commit) const {
  std::vector<std::string> files;
  for (const auto& [path, log] : file_log_) {
    if (ContentAt(path, log, commit) != nullptr) {
      files.push_back(path);
    }
  }
  return files;
}

std::vector<std::string> Repository::ListFiles() const {
  return ListFilesAt(static_cast<CommitId>(commits_.size()) - 1);
}

const std::vector<CommitId>& Repository::LogOf(const std::string& path) const {
  static const std::vector<CommitId> kNoLog;
  auto it = file_log_.find(path);
  return it == file_log_.end() ? kNoLog : it->second;
}

namespace {

// The number of leading bytes `a` and `b` share: memcmp over 1 KiB blocks,
// then over 64-byte blocks, then byte by byte.
size_t CommonPrefixBytes(std::string_view a, std::string_view b) {
  const size_t limit = std::min(a.size(), b.size());
  size_t at = 0;
  for (size_t block : {size_t{1024}, size_t{64}}) {
    while (at + block <= limit && std::memcmp(a.data() + at, b.data() + at, block) == 0) {
      at += block;
    }
  }
  while (at < limit && a[at] == b[at]) {
    ++at;
  }
  return at;
}

// How many opening lines of `old_content`, whose lines end at `old_ends`,
// are also the opening lines of `next`, found by comparing bytes. Lines
// ending before the first differing byte are shared. The line ending at it
// is shared only when it ends there in `next` too: at a '\n', or at the end
// of `next` if it is not empty there (SplitLines yields no empty last line).
// The count never exceeds the line-wise common prefix DiffLines trims first.
size_t SharedOpeningLines(std::string_view old_content, const std::vector<size_t>& old_ends,
                          std::string_view next) {
  const size_t diff = CommonPrefixBytes(old_content, next);
  size_t kept = static_cast<size_t>(std::lower_bound(old_ends.begin(), old_ends.end(), diff) -
                                    old_ends.begin());
  if (kept < old_ends.size() && old_ends[kept] == diff) {
    const size_t begin = kept == 0 ? 0 : old_ends[kept - 1] + 1;
    if (diff < next.size() ? next[diff] == '\n' : begin < diff) {
      ++kept;
    }
  }
  return kept;
}

}  // namespace

size_t Repository::AdvanceBlame(const std::string& path, CommitId up_to,
                                BlameReplayState& state) const {
  auto it = file_log_.find(path);
  if (it == file_log_.end()) {
    return 0;
  }
  size_t split = 0;
  const std::vector<CommitId>& log = it->second;
  for (; state.log_index < log.size(); ++state.log_index) {
    CommitId commit_id = log[state.log_index];
    if (commit_id > up_to) {
      break;
    }
    const Commit& commit = *commits_[commit_id];
    if (commit.deleted.count(path) > 0) {
      state.attribution.clear();
      state.line_ends.clear();
      state.content = nullptr;
      continue;
    }
    auto file_it = commit.files.find(path);
    if (file_it == commit.files.end()) {
      continue;
    }
    const std::string& next = file_it->second;
    const LineOrigin inserted{commit_id, commit.author};
    // The lines both versions open with keep their attribution and line
    // ends; the tail after them starts at the same offset in both.
    size_t kept = 0;
    std::vector<LineOrigin> tail_attribution;
    std::vector<std::string_view> new_lines;
    if (state.content == nullptr) {
      // (Re)creation: every line belongs to this commit.
      new_lines = SplitLines(next);
      tail_attribution.assign(new_lines.size(), inserted);
    } else {
      const std::string_view old_content = *state.content;
      kept = SharedOpeningLines(old_content, state.line_ends, next);
      const size_t tail_begin = kept == 0 ? 0 : state.line_ends[kept - 1] + 1;
      new_lines = SplitLines(std::string_view(next).substr(std::min(tail_begin, next.size())));
      std::vector<std::string_view> old_lines;
      old_lines.reserve(state.line_ends.size() - kept);
      size_t begin = tail_begin;
      for (size_t i = kept; i < state.line_ends.size(); ++i) {
        old_lines.push_back(old_content.substr(begin, state.line_ends[i] - begin));
        begin = state.line_ends[i] + 1;
      }
      tail_attribution.reserve(new_lines.size());
      for (const Edit& edit : DiffLines(old_lines, new_lines)) {
        if (edit.op == EditOp::kKeep) {
          tail_attribution.push_back(state.attribution[kept + edit.old_index]);
        } else if (edit.op == EditOp::kInsert) {
          tail_attribution.push_back(inserted);
        }
      }
    }
    split += new_lines.size();
    if (kept == 0) {
      state.attribution.swap(tail_attribution);  // no copy when nothing is kept
    } else {
      state.attribution.resize(kept);
      state.attribution.insert(state.attribution.end(), tail_attribution.begin(),
                               tail_attribution.end());
    }
    state.line_ends.resize(kept);
    for (std::string_view line : new_lines) {
      state.line_ends.push_back(static_cast<size_t>(line.data() - next.data()) + line.size());
    }
    state.content = &next;
  }
  return split;
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

size_t Repository::WarmBlame(const std::vector<std::string_view>& paths, int jobs) const {
  // Serially: every cache entry exists before the parallel loop, because
  // inserting into blame_cache_ is not thread-safe. A path listed twice
  // names one entry, listed once, so no state folds on two lanes.
  std::vector<std::map<std::string, BlameReplayState, std::less<>>::value_type*> behind;
  for (std::string_view path : paths) {
    auto log = file_log_.find(path);
    if (log == file_log_.end()) {
      continue;
    }
    auto entry = blame_cache_.find(path);
    if (entry == blame_cache_.end()) {
      entry = blame_cache_.try_emplace(std::string(path)).first;
    }
    if (entry->second.log_index < log->second.size()) {
      behind.push_back(&*entry);
    }
  }
  std::sort(behind.begin(), behind.end());
  behind.erase(std::unique(behind.begin(), behind.end()), behind.end());
  // In parallel: each lane folds one path's log into that path's own state;
  // commits_, file_log_ and the shape of blame_cache_ stay read-only.
  const CommitId head = static_cast<CommitId>(commits_.size()) - 1;
  std::vector<size_t> split(behind.size());
  ParallelFor(jobs, behind.size(), [&](size_t i) {
    split[i] = AdvanceBlame(behind[i]->first, head, behind[i]->second);
  });
  return std::accumulate(split.begin(), split.end(), size_t{0});
}

Repository Repository::PrefixCopy(CommitId up_to) const {
  Repository copy;
  copy.authors_ = authors_;
  for (CommitId id = 0; id <= up_to && id < NumCommits(); ++id) {
    copy.AddCommitFrom(*this, id);
  }
  return copy;
}

}  // namespace vc
