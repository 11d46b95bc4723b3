// Version-control substrate tests: Myers diff, repository storage, blame
// replay, per-file logs, changed-line extraction.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
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

// --- Parallel blame warm-up ----------------------------------------------------------

std::vector<std::pair<CommitId, AuthorId>> Origins(const std::vector<LineOrigin>& blame) {
  std::vector<std::pair<CommitId, AuthorId>> origins;
  for (const LineOrigin& origin : blame) {
    origins.emplace_back(origin.commit, origin.author);
  }
  return origins;
}

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
  for (int jobs : {1, 2, 8}) {
    Repository warm = history.PrefixCopy(head);
    warm.WarmBlame(paths, jobs);
    for (const std::string& path : paths) {
      EXPECT_EQ(Origins(warm.Blame(path)), Origins(lazy.Blame(path)))
          << path << " at jobs " << jobs;
    }
  }
  EXPECT_TRUE(lazy.Blame(live.front()).empty());
}

TEST(Repository, WarmBlameAdvancesOnlyPathsWithNewCommits) {
  Repository repo = GeneratedHistory();
  std::vector<std::string> paths = repo.ListFiles();
  ASSERT_GE(paths.size(), 4u);
  paths.push_back("later.c");
  repo.WarmBlame(paths, 2);

  // Up to date: nothing is scheduled.
  ThreadPoolStats before = ThreadPool::Global().stats();
  repo.WarmBlame(paths, 2);
  EXPECT_EQ(ThreadPool::Global().stats().Delta(before).parallel_fors, 0u);

  AuthorId late = repo.AddAuthor("late");
  repo.AddCommit(late, 1, "append", {{paths[0], *repo.Head(paths[0]) + "int late;\n"}});
  repo.AddCommit(late, 2, "remove", {}, {paths[1]});
  repo.AddCommit(late, 3, "create", {{"later.c", "int only;\n"}});
  before = ThreadPool::Global().stats();
  repo.WarmBlame(paths, 2);
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

}  // namespace
}  // namespace vc
