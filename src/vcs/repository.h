// In-memory version-control store — the reproduction's stand-in for git.
//
// ValueCheck's authorship lookup and DOK familiarity metrics (§4.2, §6) need
// two capabilities from version control: line-level authorship of the current
// file contents (git blame) and per-file commit logs (who delivered how many
// commits to which file). The repository stores snapshot-based commits and
// reconstructs blame by replaying the history with Myers diffs: unchanged
// lines keep their attribution, inserted lines are attributed to the commit
// that introduced them.
//
// A commit is immutable once added, and repositories share commits instead
// of copying them: a copy, a PrefixCopy and AddCommitFrom hold the same
// Commit objects by shared ownership. A PrefixCopy costs O(commits) pointer
// copies plus the per-path logs (a plain copy also copies the blame cache),
// never the file contents, and each stays valid when the repository it was
// taken from goes away.

#ifndef VALUECHECK_SRC_VCS_REPOSITORY_H_
#define VALUECHECK_SRC_VCS_REPOSITORY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
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
  // Appends commit `id` of `source` by sharing it; throws
  // std::invalid_argument unless `id` == NumCommits() (ids are positions, so
  // the commit keeps its id) and `source` has it. Author ids are positions
  // too: this repository's authors must be a prefix of `source`'s, and any
  // it lacks are appended first.
  CommitId AddCommitFrom(const Repository& source, CommitId id);
  // The reference stays valid across later AddCommit/AddCommitFrom calls.
  const Commit& GetCommit(CommitId id) const { return *commits_[id]; }
  int NumCommits() const { return static_cast<int>(commits_.size()); }

  // File contents as of `commit` (inclusive); nullopt if absent or deleted.
  // The newest commit at or before `commit` that touches the path decides,
  // and a delete wins over a write in the same commit.
  std::optional<std::string> FileAt(const std::string& path, CommitId commit) const;
  std::optional<std::string> Head(const std::string& path) const;
  // Sorted paths live as of `commit` (inclusive): those FileAt finds,
  // decided from the per-path logs without copying any content.
  std::vector<std::string> ListFilesAt(CommitId commit) const;
  std::vector<std::string> ListFiles() const;  // ListFilesAt(head)

  // Commits that changed `path`, oldest first; empty for an unknown path.
  // The reference stays valid until the next commit is added.
  const std::vector<CommitId>& LogOf(const std::string& path) const;

  // Line attribution for head (or historical) contents. One entry per line.
  // Head results are cached as resumable replay states: a commit touching the
  // path advances the cached fold instead of replaying the whole log.
  const std::vector<LineOrigin>& Blame(const std::string& path) const;
  std::vector<LineOrigin> BlameAt(const std::string& path, CommitId commit) const;

  // Brings the cached head blame of every path in `paths` up to date across
  // up to `jobs` lanes, so later Blame() calls on them are lookups. Each
  // path's fold depends only on its own log, so the result is the same at
  // any `jobs`, and so is the returned count of lines the folds split (see
  // AdvanceBlame). Duplicate and unknown paths are fine. Not safe to call
  // concurrently with any other call on this repository.
  size_t WarmBlame(const std::vector<std::string_view>& paths, int jobs) const;

  // A new repository containing the same authors and commits 0..up_to — the
  // repository as it existed right after `up_to` landed — sharing those
  // commits. This is the baseline the incremental engine is proven
  // equivalent against: analyzing PrefixCopy(c) from scratch must match the
  // engine's per-commit result.
  Repository PrefixCopy(CommitId up_to) const;

 private:
  // Resumable blame replay for one path: the fold state after applying a
  // prefix of the path's commit log. Advancing one commit at a time yields
  // exactly the same attribution as a from-scratch replay, which makes
  // per-commit blame O(commit delta) instead of O(history).
  struct BlameReplayState {
    std::vector<LineOrigin> attribution;
    // The content at the replay point (null while the path does not exist)
    // and the end offset of each of its lines. The next step compares its
    // bytes with the next version's, keeps the lines the two share at their
    // start, and splits and diffs only the rest. The content belongs to an
    // immutable commit that every copy of the repository shares, so the
    // pointer stays valid in a copied cache.
    const std::string* content = nullptr;
    std::vector<size_t> line_ends;
    size_t log_index = 0;  // next entry of the path's commit log to apply
  };

  // Appends a commit whose id is NumCommits() and logs the paths it touches.
  void Append(std::shared_ptr<const Commit> commit);

  // The content of the path whose log is `log` as of `commit` (see FileAt);
  // null when absent or deleted.
  const std::string* ContentAt(const std::string& path, const std::vector<CommitId>& log,
                               CommitId commit) const;

  // Advances `state` through every log entry of `path` with id <= up_to and
  // returns how many lines it split: every line of a version that creates
  // the path, and the lines after the kept opening lines of any other.
  // Starting from a default state this reproduces BlameAt(path, up_to).
  // Reads only commits_ and file_log_, so different states may advance on
  // different threads at once.
  size_t AdvanceBlame(const std::string& path, CommitId up_to, BlameReplayState& state) const;

  std::vector<Author> authors_;
  std::vector<std::shared_ptr<const Commit>> commits_;
  // Per path: ids of commits touching it (including deletions), oldest first.
  std::map<std::string, std::vector<CommitId>, std::less<>> file_log_;
  // Head-blame cache as resumable states; Blame() advances a path's state to
  // the current head on demand, so AddCommit never discards earlier work.
  mutable std::map<std::string, BlameReplayState, std::less<>> blame_cache_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_VCS_REPOSITORY_H_
