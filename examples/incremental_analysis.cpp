// Incremental analysis in a development loop (paper §8.6): simulate a series
// of commits and run the per-commit analysis a CI hook would run, printing
// findings and timings per commit versus a full re-analysis.
//
// Build & run:  ./build/examples/incremental_analysis

#include <cstdio>
#include <string>

#include "src/core/analysis.h"
#include "src/core/incremental.h"
#include "src/vcs/repository.h"

namespace {

// A small team working on a file server module over six commits; commit 4
// introduces a cross-scope unused definition.
struct Session {
  vc::Repository repo;
  std::vector<vc::CommitId> commits;
};

Session BuildSession() {
  using namespace vc;
  Session session;
  AuthorId dana = session.repo.AddAuthor("dana");
  AuthorId eli = session.repo.AddAuthor("eli");
  AuthorId fran = session.repo.AddAuthor("fran");

  std::string exports =
      "int parse_export(int spec) {\n"
      "  if (spec > 0) {\n"
      "    return spec;\n"
      "  }\n"
      "  return 0 - spec;\n"
      "}\n"
      "int mount_export(int spec) {\n"
      "  int id = parse_export(spec);\n"
      "  return id;\n"
      "}\n";
  session.commits.push_back(
      session.repo.AddCommit(dana, 1'700'000'000, "add export parsing", {{"exports.c", exports}}));

  std::string cache =
      "int cache_get(int key) {\n"
      "  return key * 3;\n"
      "}\n"
      "int cache_put(int key, int val) {\n"
      "  return key + val;\n"
      "}\n";
  session.commits.push_back(
      session.repo.AddCommit(eli, 1'700'100'000, "add attribute cache", {{"cache.c", cache}}));

  cache +=
      "int cache_refresh(int key) {\n"
      "  int cur = cache_get(key);\n"
      "  if (cur > 0) {\n"
      "    return cache_put(key, cur);\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  session.commits.push_back(session.repo.AddCommit(eli, 1'700'200'000, "add cache refresh",
                                                   {{"cache.c", cache}}));

  // Fran reworks mount_export and accidentally clobbers dana's parsed id
  // before it is used: the bug this session exists to catch.
  std::string exports_v2 = exports;
  exports_v2.replace(exports_v2.find("  return id;"), 12,
                     "  id = cache_get(spec);\n  return id;");
  session.commits.push_back(session.repo.AddCommit(fran, 1'700'300'000,
                                                   "route mounts through the cache",
                                                   {{"exports.c", exports_v2}}));

  // A clean follow-up commit.
  std::string main_c =
      "int dispatch(int op) {\n"
      "  int rc = op + 1;\n"
      "  return rc;\n"
      "}\n";
  session.commits.push_back(session.repo.AddCommit(dana, 1'700'400'000, "add dispatcher",
                                                   {{"main.c", main_c}}));
  return session;
}

}  // namespace

int main() {
  using namespace vc;
  Session session = BuildSession();

  std::printf("Per-commit incremental analysis (paper §8.6 workflow)\n\n");
  std::printf("%-8s %-36s %-6s %-6s %-8s %s\n", "commit", "message", "files", "dirty",
              "time", "findings at commit");

  // One engine, fed commits in order: it re-parses only each commit's files
  // and re-runs checkers only on the dirty function slice, while every row
  // still shows the complete finding set as of that commit.
  IncrementalEngine engine{AnalysisOptions{}};
  for (CommitId commit : session.commits) {
    IncrementalResult result = engine.AnalyzeCommit(session.repo, commit);
    std::string findings;
    for (const UnusedDefCandidate& finding : result.findings()) {
      if (!findings.empty()) {
        findings += ", ";
      }
      findings += finding.function + ":" + std::to_string(finding.def_loc.line) + " '" +
                  finding.slot_name + "'";
    }
    const Commit& meta = session.repo.GetCommit(commit);
    std::printf("%-8d %-36s %-6d %-6d %6.2fms %s\n", commit, meta.message.c_str(),
                result.files_reparsed, result.functions_dirty, result.seconds * 1000.0,
                findings.empty() ? "-" : findings.c_str());
  }

  // Compare with a full analysis at head.
  Project project = Project::FromRepository(session.repo);
  AnalysisReport full = Analysis().Run(project, &session.repo);
  std::printf("\nFull analysis at head: %d finding(s) in %.2fms\n",
              static_cast<int>(full.findings.size()), full.analysis_seconds * 1000.0);
  for (const UnusedDefCandidate& finding : full.findings) {
    std::printf("  %s:%d  %s '%s' — introduced by %s over %s's definition\n",
                finding.file.c_str(), finding.def_loc.line, finding.function.c_str(),
                finding.slot_name.c_str(),
                session.repo.GetAuthor(finding.responsible_author).name.c_str(),
                session.repo.GetAuthor(finding.def_author).name.c_str());
  }
  return 0;
}
