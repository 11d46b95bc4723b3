// Version-control substrate tests: Myers diff, repository storage, blame
// replay, per-file logs, changed-line extraction.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/testing/history_gen.h"
#include "src/vcs/diff.h"
#include "src/vcs/repository.h"

namespace vc {
namespace {

// --- SplitLines -------------------------------------------------------------

TEST(Diff, SplitLines) {
  auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_TRUE(SplitLines("").empty());
  EXPECT_EQ(SplitLines("no-newline").size(), 1u);
}

// --- Myers diff ----------------------------------------------------------------

std::vector<std::string_view> Views(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

TEST(Diff, IdenticalInputsAllKeep) {
  std::vector<std::string> a = {"x", "y", "z"};
  auto edits = DiffLines(Views(a), Views(a));
  ASSERT_EQ(edits.size(), 3u);
  for (const Edit& edit : edits) {
    EXPECT_EQ(edit.op, EditOp::kKeep);
  }
}

TEST(Diff, PureInsertion) {
  std::vector<std::string> a = {"x", "z"};
  std::vector<std::string> b = {"x", "y", "z"};
  auto edits = DiffLines(Views(a), Views(b));
  int inserts = 0;
  for (const Edit& edit : edits) {
    inserts += edit.op == EditOp::kInsert ? 1 : 0;
  }
  EXPECT_EQ(inserts, 1);
}

TEST(Diff, PureDeletion) {
  std::vector<std::string> a = {"x", "y", "z"};
  std::vector<std::string> b = {"x", "z"};
  auto edits = DiffLines(Views(a), Views(b));
  int deletes = 0;
  for (const Edit& edit : edits) {
    deletes += edit.op == EditOp::kDelete ? 1 : 0;
  }
  EXPECT_EQ(deletes, 1);
}

TEST(Diff, EmptySides) {
  std::vector<std::string> empty;
  std::vector<std::string> b = {"a", "b"};
  auto edits = DiffLines(Views(empty), Views(b));
  ASSERT_EQ(edits.size(), 2u);
  EXPECT_EQ(edits[0].op, EditOp::kInsert);
  edits = DiffLines(Views(b), Views(empty));
  ASSERT_EQ(edits.size(), 2u);
  EXPECT_EQ(edits[0].op, EditOp::kDelete);
  EXPECT_TRUE(DiffLines({}, {}).empty());
}

TEST(Diff, RoundTripReconstructsTarget) {
  std::vector<std::string> a = {"one", "two", "three", "four", "five"};
  std::vector<std::string> b = {"zero", "two", "three2", "four", "five", "six"};
  auto edits = DiffLines(Views(a), Views(b));
  EXPECT_EQ(ApplyEdits(Views(a), Views(b), edits), b);
}

TEST(Diff, ScriptIndicesAreOrderedAndComplete) {
  std::vector<std::string> a = {"k", "k", "a", "k"};
  std::vector<std::string> b = {"k", "b", "k", "k", "c"};
  auto edits = DiffLines(Views(a), Views(b));
  int next_old = 0;
  int next_new = 0;
  for (const Edit& edit : edits) {
    switch (edit.op) {
      case EditOp::kKeep:
        EXPECT_EQ(edit.old_index, next_old++);
        EXPECT_EQ(edit.new_index, next_new++);
        EXPECT_EQ(a[edit.old_index], b[edit.new_index]);
        break;
      case EditOp::kDelete:
        EXPECT_EQ(edit.old_index, next_old++);
        break;
      case EditOp::kInsert:
        EXPECT_EQ(edit.new_index, next_new++);
        break;
    }
  }
  EXPECT_EQ(next_old, static_cast<int>(a.size()));
  EXPECT_EQ(next_new, static_cast<int>(b.size()));
}

// --- DiffLines against textbook Myers --------------------------------------------

// Textbook Myers with no trimming and a full copy of `v` per step. DiffLines
// must match it edit for edit, because blame follows which of several equal
// lines a script keeps.
std::vector<Edit> ReferenceMyers(const std::vector<std::string_view>& a,
                                 const std::vector<std::string_view>& b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int max_d = n + m;

  // Myers' greedy algorithm. `v[k]` holds the furthest x on diagonal k; we
  // keep a copy of v per step to backtrack the edit script. One padding slot
  // on each side keeps the k±1 reads in bounds at the extreme diagonals
  // (notably k = -d = max_d = 0 when both inputs are empty).
  std::vector<std::vector<int>> trace;
  std::vector<int> v(2 * max_d + 3, 0);
  auto vk = [&](std::vector<int>& vec, int k) -> int& { return vec[k + max_d + 1]; };

  int final_d = -1;
  for (int d = 0; d <= max_d; ++d) {
    for (int k = -d; k <= d; k += 2) {
      int x;
      if (k == -d || (k != d && vk(v, k - 1) < vk(v, k + 1))) {
        x = vk(v, k + 1);  // move down (insert from b)
      } else {
        x = vk(v, k - 1) + 1;  // move right (delete from a)
      }
      int y = x - k;
      while (x < n && y < m && a[x] == b[y]) {
        ++x;
        ++y;
      }
      vk(v, k) = x;
      if (x >= n && y >= m) {
        final_d = d;
        break;
      }
    }
    trace.push_back(v);
    if (final_d >= 0) {
      break;
    }
  }

  // Backtrack from (n, m).
  std::vector<Edit> reversed;
  int x = n;
  int y = m;
  for (int d = final_d; d > 0; --d) {
    std::vector<int>& prev = trace[d - 1];
    int k = x - y;
    int prev_k;
    if (k == -d || (k != d && vk(prev, k - 1) < vk(prev, k + 1))) {
      prev_k = k + 1;
    } else {
      prev_k = k - 1;
    }
    int prev_x = vk(prev, prev_k);
    int prev_y = prev_x - prev_k;
    while (x > prev_x && y > prev_y) {
      reversed.push_back({EditOp::kKeep, x - 1, y - 1});
      --x;
      --y;
    }
    if (x == prev_x) {
      reversed.push_back({EditOp::kInsert, -1, y - 1});
      --y;
    } else {
      reversed.push_back({EditOp::kDelete, x - 1, -1});
      --x;
    }
  }
  while (x > 0 && y > 0) {
    reversed.push_back({EditOp::kKeep, x - 1, y - 1});
    --x;
    --y;
  }
  while (x > 0) {
    reversed.push_back({EditOp::kDelete, x - 1, -1});
    --x;
  }
  while (y > 0) {
    reversed.push_back({EditOp::kInsert, -1, y - 1});
    --y;
  }

  return {reversed.rbegin(), reversed.rend()};
}

using Script = std::vector<std::tuple<int, int, int>>;

Script AsScript(const std::vector<Edit>& edits) {
  Script script;
  for (const Edit& edit : edits) {
    script.emplace_back(static_cast<int>(edit.op), edit.old_index, edit.new_index);
  }
  return script;
}

void ExpectMatchesReference(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  ASSERT_EQ(AsScript(DiffLines(Views(a), Views(b))), AsScript(ReferenceMyers(Views(a), Views(b))))
      << "old " << a.size() << " lines, new " << b.size() << " lines";
}

std::string RandomLine(Rng& rng, int alphabet) {
  return "L" + std::to_string(rng.NextBelow(static_cast<uint64_t>(alphabet)));
}

std::vector<std::string> RandomLines(Rng& rng, int alphabet, int max_len) {
  std::vector<std::string> lines(rng.NextBelow(static_cast<uint64_t>(max_len) + 1));
  for (std::string& line : lines) {
    line = RandomLine(rng, alphabet);
  }
  return lines;
}

// `lines` with some lines deleted, replaced or preceded by a new one: the
// shape of a commit rather than of an unrelated file.
std::vector<std::string> Edited(Rng& rng, const std::vector<std::string>& lines, int alphabet) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    switch (rng.NextBelow(6)) {
      case 0:
        break;
      case 1:
        out.push_back(RandomLine(rng, alphabet));
        break;
      case 2:
        out.push_back(RandomLine(rng, alphabet));
        out.push_back(line);
        break;
      default:
        out.push_back(line);
    }
  }
  return out;
}

TEST(Diff, MatchesReferenceOnRandomSmallAlphabets) {
  Rng rng(20240613);
  for (int round = 0; round < 20000; ++round) {
    int alphabet = 1 + round % 6;
    std::vector<std::string> a = RandomLines(rng, alphabet, 12);
    std::vector<std::string> b =
        round % 2 == 0 ? RandomLines(rng, alphabet, 12) : Edited(rng, a, alphabet);
    ExpectMatchesReference(a, b);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(Diff, MatchesReferenceAfterLongSharedPrefix) {
  Rng rng(7);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::string> prefix = RandomLines(rng, 1 + round % 6, 300);
    std::vector<std::string> a = prefix;
    std::vector<std::string> b = prefix;
    for (const std::string& line : RandomLines(rng, 1 + round % 4, 10)) {
      a.push_back(line);
    }
    for (const std::string& line : RandomLines(rng, 1 + round % 4, 10)) {
      b.push_back(line);
    }
    ExpectMatchesReference(a, b);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(Diff, MatchesReferenceOnEmptySides) {
  std::vector<std::string> empty;
  std::vector<std::string> lines = {"a", "b", "a"};
  ExpectMatchesReference(empty, lines);
  ExpectMatchesReference(lines, empty);
  ExpectMatchesReference(empty, empty);
}

// A suffix trim would keep the last A: on its own for [A] -> [A, A], and after
// the prefix trim for [A] -> [B, A, A]. Myers keeps the first A, so the new
// commit is blamed for the last line.
TEST(Diff, DuplicatedLineKeepsTheFirstCopy) {
  std::vector<std::string> a = {"A"};
  std::vector<std::string> doubled = {"A", "A"};
  std::vector<std::string> prefixed = {"B", "A", "A"};
  ExpectMatchesReference(a, doubled);
  ExpectMatchesReference(a, prefixed);
  const int keep = static_cast<int>(EditOp::kKeep);
  const int insert = static_cast<int>(EditOp::kInsert);
  EXPECT_EQ(AsScript(DiffLines(Views(a), Views(doubled))), (Script{{keep, 0, 0}, {insert, -1, 1}}));
  EXPECT_EQ(AsScript(DiffLines(Views(a), Views(prefixed))),
            (Script{{insert, -1, 0}, {keep, 0, 1}, {insert, -1, 2}}));
}

// The blame fold diffs only what follows the opening lines two versions
// share, which rests on this: for every p up to the line-wise common prefix,
// the script of the two tails after p, shifted by p, is the tail of the
// whole script (DiffLines' and textbook Myers'), which keeps the first p
// lines.
TEST(Diff, ScriptAfterASharedPrefixIsTheTailsScriptShifted) {
  Rng rng(20261019);
  for (int round = 0; round < 4000; ++round) {
    const int alphabet = 1 + round % 5;
    std::vector<std::string> a = RandomLines(rng, alphabet, 14);
    std::vector<std::string> b = round % 2 == 0 ? Edited(rng, a, alphabet)
                                                : RandomLines(rng, alphabet, 14);
    size_t common = 0;
    while (common < a.size() && common < b.size() && a[common] == b[common]) {
      ++common;
    }
    const Script whole = AsScript(DiffLines(Views(a), Views(b)));
    ASSERT_EQ(whole, AsScript(ReferenceMyers(Views(a), Views(b)))) << "round " << round;
    for (size_t p = 0; p <= common; ++p) {
      const std::vector<std::string> a_tail(a.begin() + p, a.end());
      const std::vector<std::string> b_tail(b.begin() + p, b.end());
      const int shift = static_cast<int>(p);
      Script expected;
      for (int i = 0; i < shift; ++i) {
        expected.emplace_back(static_cast<int>(EditOp::kKeep), i, i);
      }
      for (const Edit& edit : DiffLines(Views(a_tail), Views(b_tail))) {
        expected.emplace_back(static_cast<int>(edit.op),
                              edit.old_index < 0 ? -1 : edit.old_index + shift,
                              edit.new_index < 0 ? -1 : edit.new_index + shift);
      }
      ASSERT_EQ(whole, expected) << "round " << round << ", p " << p;
    }
  }
}

// --- Repository -------------------------------------------------------------------

TEST(Repository, AuthorsInterned) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  EXPECT_NE(alice, bob);
  EXPECT_EQ(repo.GetAuthor(alice).name, "alice");
  EXPECT_EQ(repo.FindAuthor("bob"), bob);
  EXPECT_EQ(repo.FindAuthor("carol"), kInvalidAuthor);
}

TEST(Repository, FileAtWalksHistory) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c1 = repo.AddCommit(a, 100, "v1", {{"f.c", "one\n"}});
  CommitId c2 = repo.AddCommit(a, 200, "v2", {{"f.c", "two\n"}});
  EXPECT_EQ(repo.FileAt("f.c", c1).value(), "one\n");
  EXPECT_EQ(repo.FileAt("f.c", c2).value(), "two\n");
  EXPECT_EQ(repo.Head("f.c").value(), "two\n");
  EXPECT_FALSE(repo.FileAt("g.c", c2).has_value());
}

TEST(Repository, DeletionRemovesFromHead) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  repo.AddCommit(a, 100, "add", {{"f.c", "x\n"}});
  repo.AddCommit(a, 200, "rm", {}, {"f.c"});
  EXPECT_FALSE(repo.Head("f.c").has_value());
  EXPECT_TRUE(repo.ListFiles().empty());
}

TEST(Repository, LogTracksTouchesInOrder) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c1 = repo.AddCommit(a, 1, "1", {{"f.c", "1\n"}});
  repo.AddCommit(a, 2, "other", {{"g.c", "x\n"}});
  CommitId c3 = repo.AddCommit(a, 3, "2", {{"f.c", "2\n"}});
  EXPECT_EQ(repo.LogOf("f.c"), (std::vector<CommitId>{c1, c3}));
}

TEST(Repository, BlameAttributesInsertedLines) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  CommitId c1 = repo.AddCommit(alice, 1, "create", {{"f.c", "a1\na2\na3\n"}});
  CommitId c2 = repo.AddCommit(bob, 2, "insert", {{"f.c", "a1\nb1\na2\na3\n"}});
  const auto& blame = repo.Blame("f.c");
  ASSERT_EQ(blame.size(), 4u);
  EXPECT_EQ(blame[0].author, alice);
  EXPECT_EQ(blame[0].commit, c1);
  EXPECT_EQ(blame[1].author, bob);
  EXPECT_EQ(blame[1].commit, c2);
  EXPECT_EQ(blame[2].author, alice);
  EXPECT_EQ(blame[3].author, alice);
}

TEST(Repository, BlameModifiedLineReattributed) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 1, "create", {{"f.c", "keep\nchange-me\nkeep2\n"}});
  repo.AddCommit(bob, 2, "edit", {{"f.c", "keep\nchanged\nkeep2\n"}});
  const auto& blame = repo.Blame("f.c");
  EXPECT_EQ(blame[0].author, alice);
  EXPECT_EQ(blame[1].author, bob);
  EXPECT_EQ(blame[2].author, alice);
}

TEST(Repository, BlameAtHistoricalCommit) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  CommitId c1 = repo.AddCommit(alice, 1, "create", {{"f.c", "x\n"}});
  repo.AddCommit(bob, 2, "append", {{"f.c", "x\ny\n"}});
  auto historical = repo.BlameAt("f.c", c1);
  ASSERT_EQ(historical.size(), 1u);
  EXPECT_EQ(historical[0].author, alice);
  EXPECT_EQ(repo.Blame("f.c").size(), 2u);
}

TEST(Repository, BlameLineCountMatchesContent) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  std::string v1 = "l1\nl2\nl3\nl4\n";
  std::string v2 = "l1\nnew\nl3\nl4\nl5\n";  // l2 swapped, l5 appended
  repo.AddCommit(a, 1, "v1", {{"f.c", v1}});
  repo.AddCommit(b, 2, "v2", {{"f.c", v2}});
  EXPECT_EQ(repo.Blame("f.c").size(), SplitLines(v2).size());
}

TEST(Repository, BlameCacheInvalidatedByCommit) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  repo.AddCommit(a, 1, "v1", {{"f.c", "x\n"}});
  EXPECT_EQ(repo.Blame("f.c").size(), 1u);
  repo.AddCommit(b, 2, "v2", {{"f.c", "x\ny\n"}});
  ASSERT_EQ(repo.Blame("f.c").size(), 2u);
  EXPECT_EQ(repo.Blame("f.c")[1].author, b);
}

TEST(Repository, RecreatedFileOwnedByRecreator) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  repo.AddCommit(a, 1, "create", {{"f.c", "old\n"}});
  repo.AddCommit(a, 2, "delete", {}, {"f.c"});
  repo.AddCommit(b, 3, "recreate", {{"f.c", "old\n"}});
  const auto& blame = repo.Blame("f.c");
  ASSERT_EQ(blame.size(), 1u);
  EXPECT_EQ(blame[0].author, b);
}

std::vector<std::pair<CommitId, AuthorId>> Origins(const std::vector<LineOrigin>& blame) {
  std::vector<std::pair<CommitId, AuthorId>> origins;
  for (const LineOrigin& origin : blame) {
    origins.emplace_back(origin.commit, origin.author);
  }
  return origins;
}

TEST(Repository, ListFilesAtKeepsFilesDeletedLater) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c0 = repo.AddCommit(a, 1, "create", {{"f.c", "f\n"}, {"g.c", "g\n"}});
  CommitId c1 = repo.AddCommit(a, 2, "drop f", {}, {"f.c"});
  // Written and deleted by one commit: the delete wins, as in FileAt.
  CommitId c2 = repo.AddCommit(a, 3, "both", {{"h.c", "h\n"}}, {"h.c"});
  EXPECT_EQ(repo.ListFilesAt(c0), (std::vector<std::string>{"f.c", "g.c"}));
  EXPECT_EQ(repo.ListFilesAt(c1), (std::vector<std::string>{"g.c"}));
  EXPECT_EQ(repo.ListFilesAt(c2), (std::vector<std::string>{"g.c"}));
  EXPECT_FALSE(repo.FileAt("h.c", c2).has_value());
  EXPECT_EQ(repo.ListFiles(), repo.ListFilesAt(c2));
  EXPECT_TRUE(repo.ListFilesAt(kInvalidCommit).empty());
  EXPECT_TRUE(Repository().ListFiles().empty());
}

// --- Shared commits --------------------------------------------------------------

TEST(Repository, CopiesShareCommitObjects) {
  Repository source = GenerateApp(NfsGaneshaProfile().Scaled(0.1)).repo;
  ASSERT_GE(source.NumCommits(), 4);
  const CommitId up_to = source.NumCommits() / 2;
  Repository prefix = source.PrefixCopy(up_to);
  ASSERT_EQ(prefix.NumCommits(), up_to + 1);
  EXPECT_EQ(prefix.NumAuthors(), source.NumAuthors());
  Repository replica;
  for (CommitId id = 0; id < source.NumCommits(); ++id) {
    EXPECT_EQ(replica.AddCommitFrom(source, id), id);
  }
  EXPECT_EQ(replica.NumAuthors(), source.NumAuthors());
  for (CommitId id = 0; id < source.NumCommits(); ++id) {
    EXPECT_EQ(&replica.GetCommit(id), &source.GetCommit(id)) << id;
    if (id <= up_to) {
      EXPECT_EQ(&prefix.GetCommit(id), &source.GetCommit(id)) << id;
    }
  }
  EXPECT_EQ(replica.ListFiles(), source.ListFiles());
}

TEST(Repository, AddCommitFromRejectsAnythingButTheNextId) {
  Repository source;
  AuthorId a = source.AddAuthor("a");
  source.AddCommit(a, 1, "c0", {{"f.c", "1\n"}});
  source.AddCommit(a, 2, "c1", {{"f.c", "2\n"}});
  Repository copy;
  EXPECT_THROW(copy.AddCommitFrom(source, 1), std::invalid_argument);
  EXPECT_THROW(copy.AddCommitFrom(source, -1), std::invalid_argument);
  EXPECT_EQ(copy.AddCommitFrom(source, 0), 0);
  EXPECT_THROW(copy.AddCommitFrom(source, 0), std::invalid_argument);
  EXPECT_EQ(copy.AddCommitFrom(source, 1), 1);
  EXPECT_THROW(copy.AddCommitFrom(source, 2), std::invalid_argument);  // source has no 2
  EXPECT_EQ(copy.NumCommits(), 2);
}

TEST(Repository, CopyStaysRightAfterTheSourceGrowsOrGoesAway) {
  auto source = std::make_unique<Repository>(GenerateApp(NfsGaneshaProfile().Scaled(0.1)).repo);
  const CommitId head = source->NumCommits() - 1;
  const std::vector<std::string> paths = source->ListFiles();
  ASSERT_FALSE(paths.empty());
  Repository copy = source->PrefixCopy(head);
  // The source moves on: every live file is rewritten, one deleted.
  AuthorId late = source->AddAuthor("late");
  for (const std::string& path : paths) {
    source->AddCommit(late, 1, "rewrite", {{path, "int late;\n" + *source->Head(path)}});
  }
  source->AddCommit(late, 2, "remove", {}, {paths.front()});
  for (const std::string& path : paths) {
    EXPECT_EQ(Origins(copy.Blame(path)), Origins(source->BlameAt(path, head))) << path;
    EXPECT_EQ(copy.FileAt(path, head), source->FileAt(path, head)) << path;
  }
  // Blame and content outlive the repository the copy was taken from.
  std::vector<std::optional<std::string>> contents;
  std::vector<std::vector<std::pair<CommitId, AuthorId>>> blames;
  for (const std::string& path : paths) {
    contents.push_back(source->FileAt(path, head));
    blames.push_back(Origins(source->BlameAt(path, head)));
  }
  source.reset();
  Repository fresh = copy.PrefixCopy(head);
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(copy.Head(paths[i]), contents[i]) << paths[i];
    EXPECT_EQ(Origins(fresh.Blame(paths[i])), blames[i]) << paths[i];
  }
}

TEST(Repository, CommitReferenceSurvivesLaterCommits) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  repo.AddCommit(a, 1, "first", {{"f.c", "int f;\n"}});
  const Commit& first = repo.GetCommit(0);
  for (int i = 1; i <= 200; ++i) {
    repo.AddCommit(a, 1 + i, "more", {{"f.c", "int f" + std::to_string(i) + ";\n"}});
  }
  EXPECT_EQ(&first, &repo.GetCommit(0));
  EXPECT_EQ(first.message, "first");
  EXPECT_EQ(first.files.at("f.c"), "int f;\n");
}

// --- Parallel blame warm-up ----------------------------------------------------------

// Nine files over 386 commits; the profile scaled to 0.1 has only two files,
// too few to fill eight lanes.
Repository GeneratedHistory() { return GenerateApp(NfsGaneshaProfile()).repo; }

TEST(Repository, WarmBlameMatchesLazyBlameAtAnyJobs) {
  Repository history = GeneratedHistory();
  std::vector<std::string> live = history.ListFiles();
  ASSERT_GE(live.size(), 4u);
  history.AddCommit(0, 1, "remove", {}, {live.front()});
  const CommitId head = history.NumCommits() - 1;

  // Every path the history ever touched (one of them deleted at head), one
  // of them twice, and one it never touched.
  std::set<std::string> touched;
  for (CommitId id = 0; id <= head; ++id) {
    for (const auto& [path, content] : history.GetCommit(id).files) {
      touched.insert(path);
    }
  }
  std::vector<std::string> paths(touched.begin(), touched.end());
  paths.push_back(live[1]);
  paths.push_back("no/such/file.c");

  Repository lazy = history.PrefixCopy(head);
  std::set<size_t> split_counts;
  for (int jobs : {1, 2, 8}) {
    Repository warm = history.PrefixCopy(head);
    split_counts.insert(warm.WarmBlame(Views(paths), jobs));
    for (const std::string& path : paths) {
      EXPECT_EQ(Origins(warm.Blame(path)), Origins(lazy.Blame(path)))
          << path << " at jobs " << jobs;
    }
  }
  EXPECT_EQ(split_counts.size(), 1u);  // the same lines split at any jobs
  EXPECT_TRUE(lazy.Blame(live.front()).empty());
}

TEST(Repository, WarmBlameAdvancesOnlyPathsWithNewCommits) {
  Repository repo = GeneratedHistory();
  std::vector<std::string> paths = repo.ListFiles();
  ASSERT_GE(paths.size(), 4u);
  paths.push_back("later.c");
  repo.WarmBlame(Views(paths), 2);

  // Up to date: nothing is scheduled.
  ThreadPoolStats before = ThreadPool::Global().stats();
  repo.WarmBlame(Views(paths), 2);
  EXPECT_EQ(ThreadPool::Global().stats().Delta(before).parallel_fors, 0u);

  AuthorId late = repo.AddAuthor("late");
  repo.AddCommit(late, 1, "append", {{paths[0], *repo.Head(paths[0]) + "int late;\n"}});
  repo.AddCommit(late, 2, "remove", {}, {paths[1]});
  repo.AddCommit(late, 3, "create", {{"later.c", "int only;\n"}});
  before = ThreadPool::Global().stats();
  repo.WarmBlame(Views(paths), 2);
  ThreadPoolStats delta = ThreadPool::Global().stats().Delta(before);
  // One loop over the three touched paths (below 16 items at two lanes the
  // pool deals one item per chunk).
  EXPECT_EQ(delta.parallel_fors, 1u);
  EXPECT_EQ(delta.chunks_executed, 3u);

  Repository lazy = repo.PrefixCopy(repo.NumCommits() - 1);
  for (const std::string& path : paths) {
    EXPECT_EQ(Origins(repo.Blame(path)), Origins(lazy.Blame(path))) << path;
  }
  EXPECT_EQ(repo.Blame(paths[0]).back().author, late);
}

// --- The blame fold against the whole-version fold -------------------------------

// The fold as it was before it kept the opening lines two versions share:
// every version is split whole and diffed whole against the one before. It
// is the earlier Repository::AdvanceBlame line for line, reading the
// repository through its public API.
struct ReferenceBlameState {
  std::vector<LineOrigin> attribution;
  CommitId content_commit = kInvalidCommit;
  std::vector<size_t> line_ends;
  size_t log_index = 0;
};

void ReferenceAdvanceBlame(const Repository& repo, const std::string& path, CommitId up_to,
                           ReferenceBlameState& state) {
  const std::vector<CommitId> log = repo.LogOf(path);
  for (; state.log_index < log.size(); ++state.log_index) {
    CommitId commit_id = log[state.log_index];
    if (commit_id > up_to) {
      break;
    }
    const Commit& commit = repo.GetCommit(commit_id);
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
      std::string_view content = repo.GetCommit(state.content_commit).files.at(path);
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

// Every path any commit of `repo` writes or deletes.
std::set<std::string> TouchedPaths(const Repository& repo) {
  std::set<std::string> paths;
  for (CommitId id = 0; id < repo.NumCommits(); ++id) {
    const Commit& commit = repo.GetCommit(id);
    for (const auto& [path, content] : commit.files) {
      paths.insert(path);
    }
    paths.insert(commit.deleted.begin(), commit.deleted.end());
  }
  return paths;
}

// Requires the fold to give the reference's LineOrigins on `repo`: through
// BlameAt at every log entry of every path, and through Blame() on a replica
// that grows one AddCommitFrom at a time, as the incremental engine's does.
// Returns the number of comparisons.
int ExpectFoldMatchesReference(const Repository& repo, const std::string& label) {
  int compared = 0;
  const std::set<std::string> paths = TouchedPaths(repo);
  for (const std::string& path : paths) {
    ReferenceBlameState reference;
    for (CommitId entry : repo.LogOf(path)) {
      ReferenceAdvanceBlame(repo, path, entry, reference);
      EXPECT_EQ(Origins(repo.BlameAt(path, entry)), Origins(reference.attribution))
          << label << ": BlameAt(" << path << ", " << entry << ")";
      ++compared;
    }
  }
  Repository replica;
  std::map<std::string, ReferenceBlameState> references;
  for (CommitId id = 0; id < repo.NumCommits(); ++id) {
    replica.AddCommitFrom(repo, id);
    std::set<std::string> touched = repo.GetCommit(id).deleted;
    for (const auto& [path, content] : repo.GetCommit(id).files) {
      touched.insert(path);
    }
    for (const std::string& path : touched) {
      ReferenceAdvanceBlame(repo, path, id, references[path]);
      EXPECT_EQ(Origins(replica.Blame(path)), Origins(references[path].attribution))
          << label << ": replica Blame(" << path << ") at " << id;
      ++compared;
    }
  }
  return compared;
}

TEST(BlameFold, MatchesTheWholeVersionFoldOnGeneratedHistories) {
  int compared = 0;
  for (const ProjectProfile& profile : AllProfiles()) {
    compared += ExpectFoldMatchesReference(GenerateApp(profile.Scaled(0.1)).repo, profile.name);
  }
  for (uint64_t seed : {1, 7, 42}) {
    testing::HistoryGenOptions options;
    options.seed = seed;
    options.commits = 24;
    compared += ExpectFoldMatchesReference(testing::GenerateHistory(options),
                                           "history seed " + std::to_string(seed));
  }
  EXPECT_GT(compared, 1000);
}

// One line of a seeded edit sequence: a small alphabet in which "}" and the
// empty line recur and "\r" bytes appear.
std::string FoldLine(Rng& rng) {
  static const char* const kLines[] = {"}", "", "}", "", "{", "int x;", "x = 1;\r", "\r", "y;"};
  return kLines[rng.NextBelow(std::size(kLines))];
}

// A version of a file in a seeded edit sequence.
struct FoldVersion {
  std::vector<std::string> lines;
  bool final_newline = true;
  bool empty_next = false;  // the path's next touch writes an empty version

  std::string Content() const {
    std::string content;
    for (size_t i = 0; i < lines.size(); ++i) {
      content += lines[i];
      if (i + 1 < lines.size() || final_newline) {
        content += '\n';
      }
    }
    return content;
  }
};

// Replaces, inserts before or deletes the line at `at` (clamped).
void EditLineAt(Rng& rng, std::vector<std::string>& lines, size_t at) {
  at = std::min(at, lines.size());
  switch (rng.NextBelow(3)) {
    case 0:
      if (at < lines.size()) {
        lines[at] = FoldLine(rng);
        break;
      }
      [[fallthrough]];
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), FoldLine(rng));
      break;
    default:
      if (at < lines.size()) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      }
  }
}

// A seeded edit sequence over two paths: edits at the first, a middle and
// the last line, the final newline dropped and restored, a version emptied
// and refilled, a path deleted and recreated, "\r" bytes, and a version whose
// first line is empty followed by an empty version.
Repository SeededEditSequence(uint64_t seed) {
  Rng rng(seed);
  Repository repo;
  for (const char* name : {"ann", "bo", "cy"}) {
    repo.AddAuthor(name);
  }
  const std::string paths[] = {"a.c", "b.c"};
  std::map<std::string, FoldVersion> live;
  const int commits = 6 + static_cast<int>(rng.NextBelow(9));
  for (int c = 0; c < commits; ++c) {
    std::map<std::string, std::string> writes;
    std::set<std::string> deletes;
    for (const std::string& path : paths) {
      if (c > 0 && rng.NextBelow(3) == 0) {
        continue;  // this commit leaves the path alone
      }
      auto it = live.find(path);
      if (it == live.end()) {
        FoldVersion created;
        for (uint64_t n = rng.NextBelow(7); n > 0; --n) {
          created.lines.push_back(FoldLine(rng));
        }
        created.final_newline = rng.NextBelow(4) != 0;
        writes[path] = created.Content();
        live[path] = created;
        continue;
      }
      FoldVersion& version = it->second;
      std::vector<std::string>& lines = version.lines;
      if (version.empty_next) {
        version = FoldVersion();
        writes[path] = "";
        continue;
      }
      switch (rng.NextBelow(10)) {
        case 0:
          EditLineAt(rng, lines, 0);
          break;
        case 1:
          EditLineAt(rng, lines, lines.size() / 2);
          break;
        case 2:
          EditLineAt(rng, lines, lines.empty() ? 0 : lines.size() - 1);
          break;
        case 3:
          version.final_newline = !version.final_newline;
          break;
        case 4:
          lines.clear();  // emptied; a later edit refills it
          break;
        case 5:
          deletes.insert(path);
          live.erase(it);
          continue;
        case 6:
          // A "\r" joins a line, or a line gains one at its end.
          if (lines.empty()) {
            lines.push_back("\r");
          } else {
            lines[rng.NextBelow(lines.size())] += '\r';
          }
          break;
        case 7:
          // The first line empty now ("\n..."), the whole version empty at
          // the path's next touch.
          lines.insert(lines.begin(), "");
          version.empty_next = true;
          break;
        default:
          for (uint64_t n = 1 + rng.NextBelow(3); n > 0; --n) {
            EditLineAt(rng, lines, rng.NextBelow(lines.size() + 1));
          }
      }
      writes[path] = version.Content();
    }
    repo.AddCommit(static_cast<AuthorId>(c % 3), 100 + c, "step", std::move(writes),
                   std::move(deletes));
  }
  return repo;
}

TEST(BlameFold, MatchesTheWholeVersionFoldOnSeededEditSequences) {
  int compared = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    compared += ExpectFoldMatchesReference(SeededEditSequence(seed),
                                           "sequence " + std::to_string(seed));
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(compared, 30000);
}

// An old version whose first line is empty, then an empty version: the
// empty line ends where the two contents stop agreeing, at the end of the
// new one, but the new version has no lines at all, so none is kept.
TEST(BlameFold, AnEmptiedVersionKeepsNoLine) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  repo.AddCommit(a, 1, "create", {{"f.c", "\n}\n"}});
  CommitId emptied = repo.AddCommit(b, 2, "empty", {{"f.c", ""}});
  repo.AddCommit(b, 3, "refill", {{"f.c", "\n"}});
  EXPECT_TRUE(repo.BlameAt("f.c", emptied).empty());
  ASSERT_EQ(repo.Blame("f.c").size(), 1u);
  EXPECT_EQ(repo.Blame("f.c")[0].commit, 2);
  ExpectFoldMatchesReference(repo, "emptied");
}

// A line that ends where the two contents stop agreeing is kept only when it
// ends there in both: "a" -> "a\n" keeps it, "a" -> "ab" does not, and
// "a\n" -> "a" keeps it. Each case names whether the new version's last line
// keeps its origin, and how many lines the step splits.
TEST(BlameFold, LineEndingAtTheFirstDifferenceIsKeptOnlyWhenItEndsInBoth) {
  for (const auto& [before, after, kept, split] :
       std::vector<std::tuple<std::string, std::string, bool, size_t>>{
           {"a", "a\n", true, 0},
           {"a", "ab", false, 1},
           {"a\n", "a", true, 0},
           {"a\n", "a\nb", false, 1},
           {"a\nb", "a\nb\n", true, 0},
           {"a\nb", "a\nbc", false, 1},
           {"x\n\n}", "x\n", true, 0}}) {
    Repository repo;
    AuthorId a = repo.AddAuthor("a");
    repo.AddAuthor("b");
    repo.AddCommit(a, 1, "before", {{"f.c", before}});
    repo.WarmBlame({"f.c"}, 1);
    repo.AddCommit(a + 1, 2, "after", {{"f.c", after}});
    EXPECT_EQ(repo.WarmBlame({"f.c"}, 1), split) << before << " -> " << after;
    const std::vector<LineOrigin>& blame = repo.Blame("f.c");
    ASSERT_EQ(blame.size(), SplitLines(after).size()) << before << " -> " << after;
    EXPECT_EQ(blame.back().author == a, kept) << before << " -> " << after;
    ExpectFoldMatchesReference(repo, before + " -> " + after);
  }
}

// The warm-up counts the lines its folds split: a created file's every
// line, then only what follows the shared opening lines. The whole-version
// fold split 10,001 lines for the one-line append.
TEST(Repository, WarmBlameSplitsOnlyWhatFollowsTheSharedOpening) {
  std::vector<std::string> lines;
  for (int i = 1; i <= 10000; ++i) {
    lines.push_back("int v" + std::to_string(i) + ";");
  }
  auto join = [](const std::vector<std::string>& ls) {
    std::string content;
    for (const std::string& line : ls) {
      content += line + "\n";
    }
    return content;
  };
  std::vector<std::string> line_5000_changed = lines;
  line_5000_changed[4999] = "int changed;";
  const std::vector<std::string> paths = {"f.c", "g.c"};
  for (int jobs : {1, 2, 8}) {
    std::vector<size_t> counts;
    Repository repo;
    AuthorId a = repo.AddAuthor("a");
    AuthorId b = repo.AddAuthor("b");
    repo.AddCommit(a, 1, "create", {{"f.c", join(lines)}, {"g.c", join(lines)}});
    counts.push_back(repo.WarmBlame(Views(paths), jobs));
    repo.AddCommit(b, 2, "append", {{"f.c", join(lines) + "int tail;\n"}});
    counts.push_back(repo.WarmBlame(Views(paths), jobs));
    repo.AddCommit(b, 3, "change line 5,000", {{"g.c", join(line_5000_changed)}});
    counts.push_back(repo.WarmBlame(Views(paths), jobs));
    counts.push_back(repo.WarmBlame(Views(paths), jobs));  // up to date
    EXPECT_EQ(repo.Blame("f.c").back().author, b);
    EXPECT_EQ(repo.Blame("g.c")[4999].author, b);
    EXPECT_EQ(repo.Blame("g.c")[5000].author, a);
    EXPECT_EQ(counts, (std::vector<size_t>{20000, 1, 5001, 0})) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace vc
