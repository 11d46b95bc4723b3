// Unit tests for the support layer: string utilities, source manager,
// diagnostics, table writer, least-squares regression, deterministic RNG.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/support/diagnostics.h"
#include "src/support/json_reader.h"
#include "src/support/json_writer.h"
#include "src/support/regression.h"
#include "src/support/rng.h"
#include "src/support/source_manager.h"
#include "src/support/string_util.h"
#include "src/support/table_writer.h"

namespace vc {
namespace {

// --- string_util -----------------------------------------------------------

TEST(StringUtil, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, SplitNoSeparator) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, SplitEmpty) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  x y \t"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a"), "a");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtil, ContainsWordMatchesIdentifierBoundaries) {
  EXPECT_TRUE(ContainsWord("n = lookup(host);", "host"));
  EXPECT_TRUE(ContainsWord("host = 1;", "host"));
  EXPECT_TRUE(ContainsWord("use(nc.host)", "nc"));
  EXPECT_FALSE(ContainsWord("hostname = 1;", "host"));
  EXPECT_FALSE(ContainsWord("the_host = 1;", "host"));
  EXPECT_FALSE(ContainsWord("", "host"));
  EXPECT_FALSE(ContainsWord("x", ""));
}

TEST(StringUtil, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("int x [[MAYBE_UNUSED]];", "unused"));
  EXPECT_TRUE(ContainsIgnoreCase("/* Unused on purpose */", "unused"));
  EXPECT_FALSE(ContainsIgnoreCase("int used = 1;", "unused"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

// --- SourceManager ----------------------------------------------------------

TEST(SourceManager, LineAccess) {
  SourceManager sm;
  FileId id = sm.AddFile("a.c", "first\nsecond\nthird");
  EXPECT_EQ(sm.NumLines(id), 3);
  EXPECT_EQ(sm.Line(id, 1), "first");
  EXPECT_EQ(sm.Line(id, 2), "second");
  EXPECT_EQ(sm.Line(id, 3), "third");
  EXPECT_EQ(sm.Line(id, 4), "");
  EXPECT_EQ(sm.Line(id, 0), "");
}

TEST(SourceManager, TrailingNewlineDoesNotAddLine) {
  SourceManager sm;
  FileId id = sm.AddFile("a.c", "one\ntwo\n");
  EXPECT_EQ(sm.NumLines(id), 2);
  EXPECT_EQ(sm.Line(id, 2), "two");
}

// The line table: no line starts after a final '\n', and a '\r' before a
// '\n' stays in its line. ReplaceContent rebuilds the table the same way.
TEST(SourceManager, LineTableEdges) {
  struct Case {
    std::string content;
    std::vector<std::string> lines;
  };
  const std::vector<Case> cases = {
      {"", {}},
      {"abc", {"abc"}},
      {"abc\n", {"abc"}},
      {"\n", {""}},
      {"\n\n", {"", ""}},
      {"a\n\nb", {"a", "", "b"}},
      {"a\r\nb\r\n", {"a\r", "b\r"}},
      {"\r\n", {"\r"}},
  };
  SourceManager sm;
  const FileId replaced = sm.AddFile("replaced.c", "x\ny\nz\n");
  for (const Case& c : cases) {
    const FileId id = sm.AddFile("c.c", c.content);
    sm.ReplaceContent(replaced, c.content);
    for (FileId file : {id, replaced}) {
      ASSERT_EQ(sm.NumLines(file), static_cast<int>(c.lines.size())) << '"' << c.content << '"';
      for (size_t i = 0; i < c.lines.size(); ++i) {
        EXPECT_EQ(sm.Line(file, static_cast<int>(i) + 1), c.lines[i]) << '"' << c.content << '"';
      }
      EXPECT_EQ(sm.Line(file, static_cast<int>(c.lines.size()) + 1), "");
    }
  }
}

TEST(SourceManager, FindByPath) {
  SourceManager sm;
  FileId x = sm.AddFile("x.c", "");
  FileId y = sm.AddFile("y.c", "a");
  EXPECT_EQ(sm.FindByPath("y.c"), y);
  EXPECT_EQ(sm.FindByPath("z.c"), kInvalidFileId);
  EXPECT_EQ(sm.FindByPath(""), kInvalidFileId);
  // A path registered twice resolves to its first registration.
  FileId x_again = sm.AddFile("x.c", "int b;\n");
  EXPECT_NE(x_again, x);
  EXPECT_EQ(sm.FindByPath("x.c"), x);
  // New content keeps the id.
  sm.ReplaceContent(y, "int c;\nint d;\n");
  EXPECT_EQ(sm.FindByPath("y.c"), y);
  EXPECT_EQ(sm.NumLines(y), 2);
  // Many paths, short ones that fit inside a std::string and long ones that
  // do not, each resolve to their own id as the file list grows.
  SourceManager many;
  std::vector<FileId> ids;
  for (int i = 0; i < 20000; ++i) {
    const std::string path = i % 2 == 0 ? std::to_string(i) + ".c"
                                        : "drivers/net/module_" + std::to_string(i) + ".c";
    ids.push_back(many.AddFile(path, ""));
  }
  for (int i = 0; i < 20000; ++i) {
    const std::string path = i % 2 == 0 ? std::to_string(i) + ".c"
                                        : "drivers/net/module_" + std::to_string(i) + ".c";
    ASSERT_EQ(many.FindByPath(path), ids[static_cast<size_t>(i)]) << path;
    ASSERT_EQ(many.Path(ids[static_cast<size_t>(i)]), path);
  }
}

TEST(SourceManager, Render) {
  SourceManager sm;
  FileId id = sm.AddFile("dir/file.c", "x\n");
  EXPECT_EQ(sm.Render({id, 1, 5}), "dir/file.c:1:5");
  EXPECT_EQ(sm.Render(SourceLoc{}), "<invalid>");
}

// --- SourceLoc/SourceRange ---------------------------------------------------

TEST(SourceLocation, Ordering) {
  SourceLoc a{0, 1, 1};
  SourceLoc b{0, 2, 1};
  SourceLoc c{1, 1, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (SourceLoc{0, 1, 1}));
}

TEST(SourceLocation, RangeContainsLine) {
  SourceRange range{{0, 10, 1}, {0, 20, 1}};
  EXPECT_TRUE(range.ContainsLine(10));
  EXPECT_TRUE(range.ContainsLine(15));
  EXPECT_TRUE(range.ContainsLine(20));
  EXPECT_FALSE(range.ContainsLine(9));
  EXPECT_FALSE(range.ContainsLine(21));
  EXPECT_FALSE(SourceRange{}.ContainsLine(1));
}

// --- Diagnostics -------------------------------------------------------------

TEST(Diagnostics, CountsAndRender) {
  SourceManager sm;
  FileId id = sm.AddFile("a.c", "x\n");
  DiagnosticEngine diags;
  diags.Warning({id, 1, 1}, "w");
  EXPECT_FALSE(diags.HasErrors());
  diags.Error({id, 1, 2}, "e");
  EXPECT_TRUE(diags.HasErrors());
  EXPECT_EQ(diags.ErrorCount(), 1);
  std::string rendered = diags.Render(sm);
  EXPECT_NE(rendered.find("a.c:1:1: warning: w"), std::string::npos);
  EXPECT_NE(rendered.find("a.c:1:2: error: e"), std::string::npos);
  diags.Clear();
  EXPECT_EQ(diags.ErrorCount(), 0);
  EXPECT_TRUE(diags.diagnostics().empty());
}

// --- TableWriter ---------------------------------------------------------------

TEST(TableWriter, TextAlignment) {
  TableWriter table({"App", "Bugs"});
  table.AddRow({"Linux", "63"});
  table.AddRow({"NFS-ganesha", "22"});
  std::string text = table.RenderText();
  EXPECT_NE(text.find("| App         | Bugs |"), std::string::npos);
  EXPECT_NE(text.find("| Linux       | 63   |"), std::string::npos);
}

TEST(TableWriter, CsvEscaping) {
  TableWriter table({"a", "b"});
  table.AddRow({"plain", "with,comma"});
  table.AddRow({"with\"quote", "x"});
  std::string csv = table.RenderCsv();
  EXPECT_NE(csv.find("plain,\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\",x"), std::string::npos);
}

TEST(TableWriter, ShortRowsPadded) {
  TableWriter table({"a", "b", "c"});
  table.AddRow({"1"});
  EXPECT_EQ(table.NumRows(), 1u);
  EXPECT_NE(table.RenderCsv().find("1,,"), std::string::npos);
}

TEST(TableWriter, Formatting) {
  EXPECT_EQ(FormatPercent(0.26), "26%");
  EXPECT_EQ(FormatPercent(0.975, 1), "97.5%");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

// --- Regression ------------------------------------------------------------------

TEST(Regression, RecoversExactLinearModel) {
  // y = 2 + 3*x1 - 0.5*x2, no noise.
  std::vector<Observation> data;
  for (int i = 0; i < 20; ++i) {
    double x1 = i * 0.7;
    double x2 = (i % 5) * 1.3;
    data.push_back({{x1, x2}, 2.0 + 3.0 * x1 - 0.5 * x2});
  }
  auto fit = FitLeastSquares(data);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(fit->coefficients[1], 3.0, 1e-9);
  EXPECT_NEAR(fit->coefficients[2], -0.5, 1e-9);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-9);
}

TEST(Regression, SingularSystemRejected) {
  // Two identical feature columns: collinear.
  std::vector<Observation> data;
  for (int i = 0; i < 10; ++i) {
    double x = i;
    data.push_back({{x, x}, 2.0 * x});
  }
  EXPECT_FALSE(FitLeastSquares(data).has_value());
}

TEST(Regression, TooFewObservationsRejected) {
  std::vector<Observation> data = {{{1.0, 2.0}, 3.0}};
  EXPECT_FALSE(FitLeastSquares(data).has_value());
}

TEST(Regression, EmptyRejected) { EXPECT_FALSE(FitLeastSquares({}).has_value()); }

// --- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextWeighted(weights), 1u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(99);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextGaussian(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// --- json_reader -----------------------------------------------------------

TEST(JsonReader, ParsesScalarsArraysObjects) {
  std::optional<JsonValue> value =
      ParseJson(R"({"s":"hi","n":3.5,"i":42,"b":true,"z":null,"a":[1,2,3]})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->GetString("s"), "hi");
  EXPECT_DOUBLE_EQ(value->GetDouble("n"), 3.5);
  EXPECT_EQ(value->GetInt("i"), 42);
  EXPECT_TRUE(value->GetBool("b"));
  EXPECT_TRUE(value->Get("z").IsNull());
  ASSERT_EQ(value->Get("a").Size(), 3u);
  EXPECT_EQ(value->Get("a").At(1).AsInt(), 2);
}

TEST(JsonReader, IntegralLiteralsSurviveInt64RoundTrip) {
  // Millisecond timestamps exceed double's exact-integer comfort zone only
  // past 2^53, but the int64 side must be lossless regardless.
  std::optional<JsonValue> value = ParseJson(R"({"ts":1700000000123})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->GetInt("ts"), 1700000000123);
}

TEST(JsonReader, StringEscapes) {
  std::optional<JsonValue> value = ParseJson(R"(["a\"b\\c\n\t","Aé"])");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->At(0).AsString(), "a\"b\\c\n\t");
  EXPECT_EQ(value->At(1).AsString(), "A\xc3\xa9");  // é as UTF-8
}

TEST(JsonReader, MissingKeysChainToNullSentinel) {
  std::optional<JsonValue> value = ParseJson(R"({"a":{"b":1}})");
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(value->Get("missing").IsNull());
  EXPECT_TRUE(value->Get("missing").Get("deeper").IsNull());
  EXPECT_EQ(value->Get("missing").GetInt("x", -7), -7);
  EXPECT_EQ(value->Get("a").GetInt("b"), 1);
}

TEST(JsonReader, MalformedInputReportsOffset) {
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(ParseJson("", &error).has_value());
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &error).has_value());
}

TEST(JsonReader, RoundTripsJsonWriterOutput) {
  JsonWriter writer;
  writer.BeginObject();
  writer.String("name", "weird \"chars\"\n\ttabs");
  writer.Int("count", -12);
  writer.Double("ratio", 0.125);
  writer.Key("list").BeginArray();
  writer.StringValue("x");
  writer.StringValue("y");
  writer.EndArray();
  writer.EndObject();

  std::optional<JsonValue> value = ParseJson(writer.str());
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->GetString("name"), "weird \"chars\"\n\ttabs");
  EXPECT_EQ(value->GetInt("count"), -12);
  EXPECT_DOUBLE_EQ(value->GetDouble("ratio"), 0.125);
  ASSERT_EQ(value->Get("list").Size(), 2u);
  EXPECT_EQ(value->Get("list").At(0).AsString(), "x");
}

TEST(JsonWriter, NonFiniteDoublesEmitNullAndStayParseable) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Double("nan", std::nan(""));
  writer.Double("pos_inf", std::numeric_limits<double>::infinity());
  writer.Double("neg_inf", -std::numeric_limits<double>::infinity());
  writer.Double("finite", 2.5);
  writer.EndObject();

  // JSON has no NaN/Infinity literals; anything else would corrupt reports
  // whose timings divide by zero.
  EXPECT_EQ(writer.str(),
            "{\"nan\":null,\"pos_inf\":null,\"neg_inf\":null,\"finite\":2.5}");
  std::string error;
  std::optional<JsonValue> value = ParseJson(writer.str(), &error);
  ASSERT_TRUE(value.has_value()) << error;
  EXPECT_TRUE(value->Get("nan").IsNull());
  EXPECT_DOUBLE_EQ(value->GetDouble("finite"), 2.5);
}

}  // namespace
}  // namespace vc
