// Tests for the vchist history serialization: parsing, error reporting, and
// save/load round-trips (including through the full pipeline), plus a
// differential test of the one-pass loader against the line-vector loader it
// replaced, over generated histories and thousands of seeded mutations.

#include <gtest/gtest.h>

#include <charconv>
#include <map>
#include <set>

#include "src/core/analysis.h"
#include "src/corpus/generator.h"
#include "src/support/rng.h"
#include "src/support/string_util.h"
#include "src/testing/history_gen.h"
#include "src/vcs/history_io.h"

namespace vc {
namespace {

TEST(HistoryIo, ParsesMinimalHistory) {
  std::string text =
      "# a comment\n"
      "commit\n"
      "author alice\n"
      "time 1000\n"
      "message first\n"
      "write a.c\n"
      "<<<\n"
      "int f(int x) {\n"
      "  return x;\n"
      "}\n"
      ">>>\n"
      "end\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->NumCommits(), 1);
  EXPECT_EQ(repo->NumAuthors(), 1);
  EXPECT_EQ(repo->Head("a.c").value(), "int f(int x) {\n  return x;\n}\n");
  const Commit& commit = repo->GetCommit(0);
  EXPECT_EQ(commit.timestamp, 1000);
  EXPECT_EQ(commit.message, "first");
}

TEST(HistoryIo, AuthorsInternedAcrossCommits) {
  std::string text =
      "commit\nauthor dev\ntime 1\nmessage a\nwrite x.c\n<<<\n1\n>>>\nend\n"
      "commit\nauthor dev\ntime 2\nmessage b\nwrite x.c\n<<<\n1\n2\n>>>\nend\n"
      "commit\nauthor other\ntime 3\nmessage c\ndelete x.c\nend\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->NumAuthors(), 2);
  EXPECT_EQ(repo->NumCommits(), 3);
  EXPECT_FALSE(repo->Head("x.c").has_value());  // deleted
}

TEST(HistoryIo, ErrorsCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(LoadHistory("bogus\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\nauthor a\nwrite f.c\nno-marker\n", &error).has_value());
  EXPECT_NE(error.find("'<<<'"), std::string::npos);

  EXPECT_FALSE(
      LoadHistory("commit\nauthor a\nwrite f.c\n<<<\nnever closed\n", &error).has_value());
  EXPECT_NE(error.find("unterminated"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\nauthor a\ntime 1\nmessage m\n", &error).has_value());
  EXPECT_NE(error.find("missing 'end'"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\ntime 1\nend\n", &error).has_value());
  EXPECT_NE(error.find("missing 'author'"), std::string::npos);
}

TEST(HistoryIo, RejectsNonIntegerTime) {
  std::string error;
  EXPECT_FALSE(LoadHistory("commit\nauthor a\ntime soon\nend\n", &error).has_value());
  EXPECT_NE(error.find("line 3: time 'soon' is not an integer"), std::string::npos) << error;

  EXPECT_FALSE(LoadHistory("commit\nauthor a\nend\ncommit\nauthor a\ntime 12x\nend\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 6: time '12x' is not an integer"), std::string::npos) << error;

  EXPECT_FALSE(LoadHistory("commit\nauthor a\ntime 99999999999999999999\nend\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;

  std::optional<Repository> repo = LoadHistory("commit\nauthor a\ntime -42\nend\n", &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->GetCommit(0).timestamp, -42);
}

TEST(HistoryIo, RejectsPathNamedTwiceInOneCommit) {
  const std::string write_a = "write a.c\n<<<\nint x;\n>>>\n";
  std::string error;
  EXPECT_FALSE(
      LoadHistory("commit\nauthor a\n" + write_a + "delete a.c\nend\n", &error).has_value());
  EXPECT_NE(error.find("line 7: 'a.c' named twice in one commit"), std::string::npos) << error;

  EXPECT_FALSE(LoadHistory("commit\nauthor a\n" + write_a + write_a + "end\n", &error).has_value());
  EXPECT_NE(error.find("line 7: 'a.c' named twice"), std::string::npos) << error;

  EXPECT_FALSE(
      LoadHistory("commit\nauthor a\ndelete a.c\ndelete a.c\nend\n", &error).has_value());
  EXPECT_NE(error.find("line 4: 'a.c' named twice"), std::string::npos) << error;

  // Once per commit is fine, across any number of commits.
  std::optional<Repository> repo = LoadHistory(
      "commit\nauthor a\n" + write_a + "end\ncommit\nauthor b\ndelete a.c\nend\n", &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->LogOf("a.c").size(), 2u);
}

TEST(HistoryIo, EmptyInputIsEmptyRepo) {
  std::string error;
  std::optional<Repository> repo = LoadHistory("", &error);
  ASSERT_TRUE(repo.has_value());
  EXPECT_EQ(repo->NumCommits(), 0);
}

TEST(HistoryIo, SaveLoadRoundTrip) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 100, "create module", {{"a.c", "line1\nline2\n"}});
  repo.AddCommit(bob, 200, "edit and add", {{"a.c", "line1\nnew\n"}, {"b.c", "other\n"}});
  repo.AddCommit(alice, 300, "remove b", {}, {"b.c"});

  std::string error;
  std::optional<Repository> loaded = LoadHistory(SaveHistory(repo), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->NumCommits(), repo.NumCommits());
  EXPECT_EQ(loaded->Head("a.c"), repo.Head("a.c"));
  EXPECT_EQ(loaded->Head("b.c").has_value(), false);
  // Blame survives the round trip.
  const auto& blame = loaded->Blame("a.c");
  ASSERT_EQ(blame.size(), 2u);
  EXPECT_EQ(loaded->GetAuthor(blame[0].author).name, "alice");
  EXPECT_EQ(loaded->GetAuthor(blame[1].author).name, "bob");
}

TEST(HistoryIo, PipelineOverLoadedHistoryFindsCrossScopeBug) {
  std::string text =
      "commit\n"
      "author alice\n"
      "time 1\n"
      "message add work\n"
      "write w.c\n"
      "<<<\n"
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  return ret;\n"
      "}\n"
      ">>>\n"
      "end\n"
      "commit\n"
      "author bob\n"
      "time 2\n"
      "message tweak work\n"
      "write w.c\n"
      "<<<\n"
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  ret = helper(x + 2);\n"
      "  return ret;\n"
      "}\n"
      ">>>\n"
      "end\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  AnalysisReport report = Analysis().RunOnRepository(*repo);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, CandidateKind::kOverwrittenDef);
  EXPECT_EQ(repo->GetAuthor(report.findings[0].responsible_author).name, "bob");
}

// --- Differential test against the line-vector loader ---------------------------

// The loader LoadHistory replaced, verbatim: it splits the whole text into a
// vector of lines and rebuilds each write a line at a time. The one-pass
// loader must accept exactly the inputs it accepts, build the same
// repository, and reject the rest with the same message.
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

std::optional<Repository> ReferenceLoadHistory(const std::string& text, std::string* error) {
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

// Both loaders accept `text` and build the same repository, or both reject
// it with the same message.
::testing::AssertionResult SameAsReference(const std::string& text) {
  std::string error;
  std::string reference_error;
  std::optional<Repository> loaded = LoadHistory(text, &error);
  std::optional<Repository> reference = ReferenceLoadHistory(text, &reference_error);
  auto failure = [&]() {
    return ::testing::AssertionFailure()
           << "input (" << text.size() << " bytes):\n" << text.substr(0, 2000)
           << "\n--- one-pass: " << (loaded ? "accepted" : error)
           << "\n--- reference: " << (reference ? "accepted" : reference_error);
  };
  if (loaded.has_value() != reference.has_value()) {
    return failure();
  }
  if (!loaded.has_value()) {
    return error == reference_error ? ::testing::AssertionSuccess() : failure();
  }
  if (loaded->NumAuthors() != reference->NumAuthors() ||
      SaveHistory(*loaded) != SaveHistory(*reference)) {
    return failure();
  }
  for (CommitId id = 0; id < loaded->NumCommits(); ++id) {
    if (loaded->GetCommit(id).files != reference->GetCommit(id).files) {
      return failure() << "\n--- contents differ at commit " << id;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(HistoryIo, OnePassLoaderMatchesReferenceOnGeneratedHistories) {
  std::vector<Repository> histories;
  for (const ProjectProfile& profile : AllProfiles()) {
    histories.push_back(GenerateApp(profile.Scaled(0.1)).repo);
  }
  for (uint64_t seed : {1, 7, 42}) {
    testing::HistoryGenOptions options;
    options.seed = seed;
    options.commits = 24;
    histories.push_back(testing::GenerateHistory(options));
  }
  for (const Repository& repo : histories) {
    const std::string text = SaveHistory(repo);
    EXPECT_TRUE(SameAsReference(text));
    std::string error;
    std::optional<Repository> loaded = LoadHistory(text, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(SaveHistory(*loaded), text);
  }
}

// Every directive, comments, a blank line, an empty file, a delete and a
// recreation; content lines hold a `>>` and a `>>>` inside other text.
const char kSmallHistory[] =
    "# seed history\n"
    "commit\n"
    "author alice\n"
    "time 100\n"
    "message create\n"
    "write a.c\n"
    "<<<\n"
    "int a(int x) {\n"
    "  return x >> 1; /* >>> */\n"
    "}\n"
    ">>>\n"
    "write b.c\n"
    "<<<\n"
    ">>>\n"
    "end\n"
    "\n"
    "commit\n"
    "author bob\n"
    "time 200\n"
    "message edit a, drop b\n"
    "write a.c\n"
    "<<<\n"
    "int a(int x) {\n"
    "  return x;\n"
    "}\n"
    ">>>\n"
    "delete b.c\n"
    "end\n"
    "commit\n"
    "author alice\n"
    "time 300\n"
    "message recreate b\n"
    "write b.c\n"
    "<<<\n"
    "int b;\n"
    ">>>\n"
    "end\n";

// Lines that look like block markers or directives, for content blocks and
// directive positions alike.
const char* const kTrickyLines[] = {
    ">>>>", "a >>> b", "  >>>  ", "\t>>>\t", ">>> x", "x>>>", ">> >", "<<<", "  <<<",
    "commit", "end", " end\t", "write x.c", "write a.c", "delete a.c", "author", "time 5x",
    "message", "# comment", "", "\r", ">>>\r",
};

std::string Pad(Rng& rng, const std::string& line) {
  static const char* const kPads[] = {" ", "\t", "  ", " \t", "\t "};
  std::string padded = line;
  if (rng.NextBool(0.5)) {
    padded = kPads[rng.NextBelow(5)] + padded;
  }
  if (rng.NextBool(0.7)) {
    padded += kPads[rng.NextBelow(5)];
  }
  return padded;
}

// One seeded mutation of `base`: one to three line edits, then maybe "\r\n"
// endings, then maybe a cut anywhere.
std::string Mutate(const std::string& base, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> lines;
  for (std::string_view line : SplitLines(base)) {
    lines.emplace_back(line);
  }
  auto any_line = [&]() { return static_cast<size_t>(rng.NextBelow(lines.size())); };
  auto lines_where = [&](auto predicate) {
    std::vector<size_t> found;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (predicate(Trim(lines[i]))) {
        found.push_back(i);
      }
    }
    return found;
  };
  const int edits = static_cast<int>(rng.NextInRange(1, 3));
  for (int e = 0; e < edits && !lines.empty(); ++e) {
    switch (rng.NextBelow(8)) {
      case 0:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(any_line()));
        break;
      case 1: {
        const size_t i = any_line();
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        break;
      }
      case 2:
        std::swap(lines[any_line()], lines[any_line()]);
        break;
      case 3: {
        std::vector<size_t> markers = lines_where([](std::string_view line) {
          return line == "<<<" || line == ">>>" || line == "end";
        });
        if (!markers.empty()) {
          const size_t i = markers[rng.NextBelow(markers.size())];
          lines[i] = Pad(rng, lines[i]);
        }
        break;
      }
      case 4:
      case 5: {
        // Right after a `<<<` (the start of a content block) or anywhere.
        std::vector<size_t> opens =
            lines_where([](std::string_view line) { return line == "<<<"; });
        const size_t i = !opens.empty() && rng.NextBool(0.5)
                             ? opens[rng.NextBelow(opens.size())] + 1
                             : static_cast<size_t>(rng.NextBelow(lines.size() + 1));
        const size_t n = sizeof(kTrickyLines) / sizeof(kTrickyLines[0]);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     kTrickyLines[rng.NextBelow(n)]);
        break;
      }
      case 6: {
        // An empty block before some `end`.
        std::vector<size_t> ends =
            lines_where([](std::string_view line) { return line == "end"; });
        const size_t i = ends.empty() ? any_line() : ends[rng.NextBelow(ends.size())];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), {"write e.c", "<<<", ">>>"});
        break;
      }
      default:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(any_line()), "# note >>>");
        break;
    }
  }
  const std::string newline = rng.NextBool(0.2) ? "\r\n" : "\n";
  std::string text;
  for (const std::string& line : lines) {
    text += line + newline;
  }
  switch (rng.NextBelow(6)) {
    case 0:  // cut anywhere, mid-directive and mid-line included
      text.resize(static_cast<size_t>(rng.NextBelow(text.size() + 1)));
      break;
    case 1:  // no trailing newline
      if (!text.empty()) {
        text.pop_back();
      }
      break;
    case 2: {  // right after a `<<<`, with or without its newline
      const size_t open = text.find("<<<");
      if (open != std::string::npos) {
        text.resize(open + 3 + (rng.NextBool(0.5) ? newline.size() : 0));
      }
      break;
    }
    default:
      break;
  }
  return text;
}

TEST(HistoryIo, OnePassLoaderMatchesReferenceOnMutations) {
  ASSERT_TRUE(SameAsReference(kSmallHistory));
  std::string error;
  ASSERT_TRUE(LoadHistory(kSmallHistory, &error).has_value()) << error;
  int accepted = 0;
  int rejected = 0;
  for (uint64_t seed = 0; seed < 2500; ++seed) {
    const std::string text = Mutate(kSmallHistory, seed);
    ASSERT_TRUE(SameAsReference(text)) << "mutation seed " << seed;
    if (LoadHistory(text, nullptr).has_value()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // The mutations reach both outcomes often.
  EXPECT_GT(accepted, 250);
  EXPECT_GT(rejected, 250);
}

TEST(HistoryIo, ContentEndsAtFirstLineTrimmingToClose) {
  std::string error;
  std::optional<Repository> repo = LoadHistory(
      "commit\nauthor a\nwrite f.c\n<<<\n>>>>\na >>> b\n>>> x\n \t>>>\r\nend\n", &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->Head("f.c").value(), ">>>>\na >>> b\n>>> x\n");

  // A close on the last line needs no newline; an empty block is an empty file.
  repo = LoadHistory("commit\nauthor a\nwrite e.c\n<<<\n>>>\nwrite f.c\n<<<\nx\n>>>\nend", &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->Head("e.c").value(), "");
  EXPECT_EQ(repo->Head("f.c").value(), "x\n");
}

TEST(HistoryIo, ErrorsAtEndOfInputCountOnePastTheLastLine) {
  std::string error;
  for (const char* text : {"commit\nauthor a\ntime 1", "commit\nauthor a\ntime 1\n"}) {
    EXPECT_FALSE(LoadHistory(text, &error).has_value());
    EXPECT_EQ(error, "line 4: commit block missing 'end'") << text;
  }
  for (const char* text : {"commit\ntime 1\nend", "commit\ntime 1\nend\n"}) {
    EXPECT_FALSE(LoadHistory(text, &error).has_value());
    EXPECT_EQ(error, "line 4: commit block missing 'author'") << text;
  }
  for (const char* text : {"commit\nauthor a\nwrite f.c\n<<<", "commit\nauthor a\nwrite f.c\n<<<\n",
                           "commit\nauthor a\nwrite f.c\n<<<\n>>>>\nx >>>"}) {
    EXPECT_FALSE(LoadHistory(text, &error).has_value());
    EXPECT_EQ(error, "line 3: unterminated content block for 'f.c'") << text;
  }
  EXPECT_FALSE(LoadHistory("commit\nauthor a\nwrite f.c", &error).has_value());
  EXPECT_EQ(error, "line 3: expected '<<<' after 'write f.c'");
}

}  // namespace
}  // namespace vc
