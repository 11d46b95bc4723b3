#include "src/core/authorship.h"

#include "src/support/thread_pool.h"

namespace vc {

AuthorId AuthorshipAnalyzer::AuthorOfLoc(const SourceLoc& loc) const {
  if (repo_ == nullptr || !loc.IsValid() || loc.file >= project_.sources().NumFiles()) {
    return kInvalidAuthor;
  }
  const std::vector<LineOrigin>& blame = BlameOf(loc.file);
  int index = loc.line - 1;
  if (index < 0 || index >= static_cast<int>(blame.size())) {
    return kInvalidAuthor;
  }
  return blame[index].author;
}

const std::vector<LineOrigin>& AuthorshipAnalyzer::BlameOf(FileId file) const {
  if (blame_.empty()) {
    blame_.assign(static_cast<size_t>(project_.sources().NumFiles()), nullptr);
  }
  const std::vector<LineOrigin>*& slot = blame_[file];
  if (slot == nullptr) {
    const std::string& path = project_.sources().Path(file);
    if (at_commit_ == kInvalidCommit) {
      slot = &repo_->Blame(path);
    } else {
      slot = &historical_.emplace_back(repo_->BlameAt(path, at_commit_));
    }
  }
  return *slot;
}

void AuthorshipAnalyzer::ClassifyAll(std::span<UnusedDefCandidate* const> targets,
                                     int jobs) const {
  if (repo_ != nullptr && !targets.empty()) {
    for (FileId file = 0; file < project_.sources().NumFiles(); ++file) {
      BlameOf(file);
    }
  }
  ParallelFor(jobs, targets.size(), [&](size_t k) { Classify(*targets[k]); });
}

void AuthorshipAnalyzer::ClassifyAll(std::vector<UnusedDefCandidate>& candidates,
                                     int jobs) const {
  std::vector<UnusedDefCandidate*> all;
  all.reserve(candidates.size());
  for (UnusedDefCandidate& cand : candidates) {
    all.push_back(&cand);
  }
  ClassifyAll(all, jobs);
}

bool AuthorshipAnalyzer::AllDifferent(AuthorId author,
                                      const std::vector<AuthorId>& others) const {
  if (author == kInvalidAuthor || others.empty()) {
    return false;
  }
  for (AuthorId other : others) {
    if (other == author || other == kInvalidAuthor) {
      return false;
    }
  }
  return true;
}

void AuthorshipAnalyzer::Classify(UnusedDefCandidate& cand) const {
  if (cand.from_baseline) {
    // Baseline tools have no cross-scope notion; their findings pass the
    // filter untouched (the corpus benchmark evaluates the raw tool output).
    cand.def_author = AuthorOfLoc(cand.def_loc);
    cand.responsible_author = cand.def_author;
    cand.cross_scope = true;
    return;
  }
  if (cand.checker != "unused-def") {
    ClassifyGeneric(cand);
    return;
  }
  cand.def_author = AuthorOfLoc(cand.def_loc);
  cand.cross_scope = false;
  cand.kind = CandidateKind::kPlainUnused;
  cand.responsible_author = cand.def_author;

  if (cand.is_param) {
    // Scenario 2. The "inside" author is whoever ignores or overwrites the
    // caller-provided value: the overwriting store's author when the
    // parameter is overwritten, otherwise the parameter's own author.
    AuthorId inside = cand.def_author;
    if (cand.overwritten && !cand.overwriter_locs.empty()) {
      inside = AuthorOfLoc(cand.overwriter_locs.front());
      cand.kind = CandidateKind::kOverwrittenParam;
    } else {
      cand.kind = CandidateKind::kUnusedParam;
    }
    cand.responsible_author = inside;

    const FunctionInfo* info = project_.FindFunction(cand.function);
    if (info == nullptr || inside == kInvalidAuthor) {
      return;
    }
    for (const CallSite& site : info->call_sites) {
      AuthorId caller = AuthorOfLoc(site.loc);
      if (caller != kInvalidAuthor && caller != inside) {
        cand.cross_scope = true;
        break;
      }
    }
    if (!cand.cross_scope) {
      cand.kind = CandidateKind::kPlainUnused;
    }
    return;
  }

  // Scenario 3: overwritten by other developers on all successor paths.
  bool overwritten_cross = false;
  if (cand.overwritten) {
    std::vector<AuthorId> overwriters;
    overwriters.reserve(cand.overwriter_locs.size());
    for (const SourceLoc& loc : cand.overwriter_locs) {
      overwriters.push_back(AuthorOfLoc(loc));
    }
    overwritten_cross = AllDifferent(cand.def_author, overwriters);
    if (overwritten_cross) {
      cand.responsible_author = overwriters.front();
    }
  }

  // Scenario 1: return value written by other developers (all return
  // statements of the callee), or by a library outside the project.
  bool retval_cross = false;
  if (cand.FromCall()) {
    const FunctionInfo* callee =
        !cand.callee_name.empty() ? project_.FindFunction(cand.callee_name) : nullptr;
    if (callee == nullptr || !callee->InProject() || callee->ir == nullptr) {
      // Library call: the implementer is by definition a different author.
      retval_cross = cand.def_author != kInvalidAuthor;
    } else {
      std::vector<AuthorId> ret_authors;
      for (const SourceLoc& loc : callee->ir->return_locs) {
        ret_authors.push_back(AuthorOfLoc(loc));
      }
      retval_cross = AllDifferent(cand.def_author, ret_authors);
    }
  }

  if (overwritten_cross) {
    cand.cross_scope = true;
    cand.kind = CandidateKind::kOverwrittenDef;
  } else if (retval_cross) {
    cand.cross_scope = true;
    cand.kind = CandidateKind::kUnusedRetVal;
    cand.responsible_author = cand.def_author;
  }
}

void AuthorshipAnalyzer::ClassifyGeneric(UnusedDefCandidate& cand) const {
  // Checkers other than unused-def pre-set their kind; authorship only
  // decides the cross-scope bit and the responsible author, reusing the two
  // §3.1 boundary rules that generalize beyond unused definitions:
  // overwriter-vs-definer (scenario 3) and call-site-vs-callee (scenario 1).
  cand.def_author = AuthorOfLoc(cand.def_loc);
  cand.cross_scope = false;
  cand.responsible_author = cand.def_author;

  if (cand.overwritten && !cand.overwriter_locs.empty()) {
    std::vector<AuthorId> overwriters;
    overwriters.reserve(cand.overwriter_locs.size());
    for (const SourceLoc& loc : cand.overwriter_locs) {
      overwriters.push_back(AuthorOfLoc(loc));
    }
    if (AllDifferent(cand.def_author, overwriters)) {
      cand.cross_scope = true;
      cand.responsible_author = overwriters.front();
    }
    return;
  }

  if (!cand.callee_name.empty()) {
    const FunctionInfo* callee = project_.FindFunction(cand.callee_name);
    if (callee == nullptr || !callee->InProject() || callee->ir == nullptr) {
      // Library call: the implementer is by definition a different author.
      cand.cross_scope = cand.def_author != kInvalidAuthor;
      return;
    }
    std::vector<AuthorId> ret_authors;
    for (const SourceLoc& loc : callee->ir->return_locs) {
      ret_authors.push_back(AuthorOfLoc(loc));
    }
    cand.cross_scope = AllDifferent(cand.def_author, ret_authors);
  }
}

}  // namespace vc
