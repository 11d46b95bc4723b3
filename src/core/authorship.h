// Inter-procedural authorship analysis (§4.2): classifies each detected
// unused definition as cross-scope or not by comparing line-level authorship
// (from the repository's blame) across the developer-interaction boundary:
//
//   1. unused return value  — call-site author vs the authors of every return
//      statement in the callee (library callees count as a different author);
//   2. unused/overwritten parameter — call-site authors vs the parameter's
//      author (or the author of the store that overwrites it in the callee);
//   3. overwritten definition — the definition's author vs the authors of the
//      nearest overwriting definitions on all successor paths (DefineSet).

#ifndef VALUECHECK_SRC_CORE_AUTHORSHIP_H_
#define VALUECHECK_SRC_CORE_AUTHORSHIP_H_

#include <deque>
#include <span>
#include <vector>

#include "src/core/project.h"
#include "src/core/unused_def.h"
#include "src/vcs/repository.h"

namespace vc {

class AuthorshipAnalyzer {
 public:
  // `repo` may be null; every author is then unknown and nothing classifies
  // as cross-scope except library return values. When `at_commit` is given,
  // blame is evaluated at that commit instead of head (incremental analysis
  // sees the history as of the commit under analysis). The repository must
  // not gain commits while the analyzer is in use: blame is read once per
  // file and kept.
  AuthorshipAnalyzer(const Project& project, const Repository* repo,
                     CommitId at_commit = kInvalidCommit)
      : project_(project), repo_(repo), at_commit_(at_commit) {}

  // Author of the line containing `loc` per blame, or kInvalidAuthor.
  AuthorId AuthorOfLoc(const SourceLoc& loc) const;

  // Fills cross_scope / kind / def_author / responsible_author.
  void Classify(UnusedDefCandidate& cand) const;

  // Classifies every one of `targets` across up to `jobs` lanes. Blame of
  // every project file is resolved serially first, so the lanes only read
  // it; each candidate's classification depends on nothing but the
  // candidate, so the result is the same at any `jobs`.
  void ClassifyAll(std::span<UnusedDefCandidate* const> targets, int jobs) const;
  // The same over every candidate of the list.
  void ClassifyAll(std::vector<UnusedDefCandidate>& candidates, int jobs = 1) const;

 private:
  bool AllDifferent(AuthorId author, const std::vector<AuthorId>& others) const;

  // Cross-scope classification for non-unused-def checkers: the checker owns
  // the kind; authorship decides the boundary bit via the overwriter rule
  // (overwriter_locs) or, failing that, the callee rule (callee_name).
  void ClassifyGeneric(UnusedDefCandidate& cand) const;

  // Blame of `file` (repo_ non-null), resolved on first use. Resolution
  // writes the per-file table, so concurrent callers are safe only once
  // every file they touch is resolved — what ClassifyAll arranges.
  const std::vector<LineOrigin>& BlameOf(FileId file) const;

  const Project& project_;
  const Repository* repo_;
  CommitId at_commit_ = kInvalidCommit;
  // Per FileId: the file's blame, null until resolved. Head blame points
  // into the repository's own cache; historical blame is computed per file
  // and owned by `historical_` (a deque, so the pointers stay valid).
  mutable std::vector<const std::vector<LineOrigin>*> blame_;
  mutable std::deque<std::vector<LineOrigin>> historical_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_AUTHORSHIP_H_
