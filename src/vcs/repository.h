// In-memory version-control store — the reproduction's stand-in for git.
//
// ValueCheck's authorship lookup and DOK familiarity metrics (§4.2, §6) need
// two capabilities from version control: line-level authorship of the current
// file contents (git blame) and per-file commit logs (who delivered how many
// commits to which file). The repository stores snapshot-based commits and
// reconstructs blame by replaying the history with Myers diffs: unchanged
// lines keep their attribution, inserted lines are attributed to the commit
// that introduced them.

#ifndef VALUECHECK_SRC_VCS_REPOSITORY_H_
#define VALUECHECK_SRC_VCS_REPOSITORY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/vcs/diff.h"

namespace vc {

using AuthorId = int32_t;
using CommitId = int32_t;
inline constexpr AuthorId kInvalidAuthor = -1;
inline constexpr CommitId kInvalidCommit = -1;

struct Author {
  std::string name;
};

struct Commit {
  CommitId id = kInvalidCommit;
  AuthorId author = kInvalidAuthor;
  int64_t timestamp = 0;  // seconds; drives "days before detected" (Fig. 7c)
  std::string message;
  // Full new content of every file changed by this commit.
  std::map<std::string, std::string> files;
  std::set<std::string> deleted;
};

// Line-level authorship: which commit (and author) introduced each line.
struct LineOrigin {
  CommitId commit = kInvalidCommit;
  AuthorId author = kInvalidAuthor;
};

class Repository {
 public:
  AuthorId AddAuthor(std::string name);
  const Author& GetAuthor(AuthorId id) const { return authors_[id]; }
  int NumAuthors() const { return static_cast<int>(authors_.size()); }
  AuthorId FindAuthor(const std::string& name) const;

  CommitId AddCommit(AuthorId author, int64_t timestamp, std::string message,
                     std::map<std::string, std::string> changed_files,
                     std::set<std::string> deleted_files = {});
  const Commit& GetCommit(CommitId id) const { return commits_[id]; }
  int NumCommits() const { return static_cast<int>(commits_.size()); }

  // File contents as of `commit` (inclusive); nullopt if absent or deleted.
  std::optional<std::string> FileAt(const std::string& path, CommitId commit) const;
  std::optional<std::string> Head(const std::string& path) const;
  std::vector<std::string> ListFiles() const;

  // Commits that changed `path`, oldest first.
  std::vector<CommitId> LogOf(const std::string& path) const;

  // Line attribution for head (or historical) contents. One entry per line.
  // Head results are cached as resumable replay states: a commit touching the
  // path advances the cached fold instead of replaying the whole log.
  const std::vector<LineOrigin>& Blame(const std::string& path) const;
  std::vector<LineOrigin> BlameAt(const std::string& path, CommitId commit) const;

  // Brings the cached head blame of every path in `paths` up to date across
  // up to `jobs` lanes, so later Blame() calls on them are lookups. Each
  // path's fold depends only on its own log, so the result is the same at
  // any `jobs`. Duplicate and unknown paths are fine. Not safe to call
  // concurrently with any other call on this repository.
  void WarmBlame(const std::vector<std::string>& paths, int jobs) const;

  // A new repository containing the same authors and commits 0..up_to — the
  // repository as it existed right after `up_to` landed. This is the baseline
  // the incremental engine is proven equivalent against: analyzing
  // PrefixCopy(c) from scratch must match the engine's per-commit result.
  Repository PrefixCopy(CommitId up_to) const;

 private:
  // Resumable blame replay for one path: the fold state after applying a
  // prefix of the path's commit log. Advancing one commit at a time yields
  // exactly the same attribution as a from-scratch replay, which makes
  // per-commit blame O(commit delta) instead of O(history).
  struct BlameReplayState {
    std::vector<LineOrigin> attribution;
    // The commit whose content of the path is the content at the replay
    // point (kInvalidCommit while the path does not exist), and the end
    // offset of each of its lines, so the next step does not split that
    // content again. Offsets rather than views keep a copied repository's
    // cache valid.
    CommitId content_commit = kInvalidCommit;
    std::vector<size_t> line_ends;
    size_t log_index = 0;  // next entry of the path's commit log to apply
  };

  // Advances `state` through every log entry of `path` with id <= up_to.
  // Starting from a default state this reproduces BlameAt(path, up_to).
  // Reads only commits_ and file_log_, so different states may advance on
  // different threads at once.
  void AdvanceBlame(const std::string& path, CommitId up_to, BlameReplayState& state) const;

  std::vector<Author> authors_;
  std::vector<Commit> commits_;
  // Per path: ids of commits touching it (including deletions), oldest first.
  std::map<std::string, std::vector<CommitId>> file_log_;
  // Head-blame cache as resumable states; Blame() advances a path's state to
  // the current head on demand, so AddCommit never discards earlier work.
  mutable std::map<std::string, BlameReplayState> blame_cache_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_VCS_REPOSITORY_H_
