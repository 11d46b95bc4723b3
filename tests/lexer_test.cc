// Tests for the Mini-C tokenizer and the conditional preprocessor.

#include <gtest/gtest.h>

#include "src/lexer/lexer.h"
#include "src/lexer/preprocessor.h"
#include "src/support/source_manager.h"

namespace vc {
namespace {

std::vector<Token> LexAll(const std::string& code, const Config& config = Config()) {
  // Tokens view the content in `sm`; each test reads its tokens before the
  // next AddFile, so one manager serves them all.
  static SourceManager sm;
  FileId file = sm.AddFile("test.c", code);
  PreprocessResult pp = Preprocess(code, config);
  DiagnosticEngine diags;
  std::vector<Token> tokens = Lex(sm, file, pp, diags);
  EXPECT_FALSE(diags.HasErrors()) << diags.Render(sm);
  return tokens;
}

std::vector<TokenKind> Kinds(const std::vector<Token>& tokens) {
  std::vector<TokenKind> kinds;
  for (const Token& tok : tokens) {
    kinds.push_back(tok.kind);
  }
  return kinds;
}

// --- Lexer -------------------------------------------------------------------

TEST(Lexer, KeywordsAndIdentifiers) {
  auto tokens = LexAll("int foo; struct Bar b;");
  auto kinds = Kinds(tokens);
  std::vector<TokenKind> expected = {
      TokenKind::kKwInt,   TokenKind::kIdentifier, TokenKind::kSemi,
      TokenKind::kKwStruct, TokenKind::kIdentifier, TokenKind::kIdentifier,
      TokenKind::kSemi,    TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(tokens[1].text, "foo");
  EXPECT_EQ(tokens[4].text, "Bar");
}

TEST(Lexer, IntegerLiterals) {
  auto tokens = LexAll("42 0x1f 0 100UL");
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].int_value, 31);
  EXPECT_EQ(tokens[2].int_value, 0);
  EXPECT_EQ(tokens[3].int_value, 100);
}

TEST(Lexer, CharLiterals) {
  auto tokens = LexAll("'a' '\\n' '\\0'");
  EXPECT_EQ(tokens[0].int_value, 'a');
  EXPECT_EQ(tokens[1].int_value, '\n');
  EXPECT_EQ(tokens[2].int_value, 0);
}

TEST(Lexer, StringLiteral) {
  auto tokens = LexAll("\"hello world\"");
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "hello world");
}

TEST(Lexer, TwoCharOperators) {
  auto tokens = LexAll("-> ++ -- += -= == != <= >= && || << >>");
  auto kinds = Kinds(tokens);
  std::vector<TokenKind> expected = {
      TokenKind::kArrow,     TokenKind::kPlusPlus, TokenKind::kMinusMinus,
      TokenKind::kPlusAssign, TokenKind::kMinusAssign, TokenKind::kEq,
      TokenKind::kNe,        TokenKind::kLe,       TokenKind::kGe,
      TokenKind::kAmpAmp,    TokenKind::kPipePipe, TokenKind::kShl,
      TokenKind::kShr,       TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, LineCommentsSkipped) {
  auto tokens = LexAll("int x; // trailing comment with unused keyword\nint y;");
  EXPECT_EQ(Kinds(tokens).size(), 7u);  // int x ; int y ; eof
}

TEST(Lexer, BlockCommentsSpanLines) {
  auto tokens = LexAll("int a; /* multi\nline\ncomment */ int b;");
  auto kinds = Kinds(tokens);
  std::vector<TokenKind> expected = {TokenKind::kKwInt, TokenKind::kIdentifier,
                                     TokenKind::kSemi,  TokenKind::kKwInt,
                                     TokenKind::kIdentifier, TokenKind::kSemi, TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, AttributeDoubleBracket) {
  auto tokens = LexAll("int x [[maybe_unused]];");
  EXPECT_EQ(tokens[2].kind, TokenKind::kAttribute);
  EXPECT_EQ(tokens[2].text, "[[maybe_unused]]");
}

TEST(Lexer, AttributeGnu) {
  auto tokens = LexAll("int x __attribute__((unused));");
  EXPECT_EQ(tokens[2].kind, TokenKind::kAttribute);
  EXPECT_EQ(tokens[2].text, "__attribute__((unused))");
}

TEST(Lexer, AttributeIsTheWholeWordThenParens) {
  // A longer word is an identifier, even with "((" and "))" later on the line.
  auto tokens = LexAll("int __attribute__count = 1; return g((a)) + __attribute__count;");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "__attribute__count");
  EXPECT_EQ(tokens[tokens.size() - 3].text, "__attribute__count");
  EXPECT_EQ(tokens[tokens.size() - 2].kind, TokenKind::kSemi);
  // Spaces may sit between the word and "((".
  tokens = LexAll("__attribute__ ((unused))");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kAttribute);
  EXPECT_EQ(tokens[0].text, "__attribute__ ((unused))");
}

TEST(Lexer, LocationsAreOneBased) {
  auto tokens = LexAll("int x;\n  foo();");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[0].loc.column, 1);
  EXPECT_EQ(tokens[3].text, "foo");
  EXPECT_EQ(tokens[3].loc.line, 2);
  EXPECT_EQ(tokens[3].loc.column, 3);
}

TEST(Lexer, ErrorOnUnterminatedString) {
  SourceManager sm;
  FileId file = sm.AddFile("bad.c", "\"oops");
  PreprocessResult pp = Preprocess("\"oops", Config());
  DiagnosticEngine diags;
  Lex(sm, file, pp, diags);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(Lexer, TokenKindNamesCoverOperators) {
  EXPECT_STREQ(TokenKindName(TokenKind::kArrow), "->");
  EXPECT_STREQ(TokenKindName(TokenKind::kKwReturn), "return");
  EXPECT_STREQ(TokenKindName(TokenKind::kIdentifier), "identifier");
}

// --- Preprocessor ---------------------------------------------------------------

TEST(Preprocessor, UndefinedIfDisablesRegion) {
  std::string code = "a\n#if FOO\nb\n#endif\nc\n";
  PreprocessResult pp = Preprocess(code, Config());
  EXPECT_TRUE(pp.LineActive(1));
  EXPECT_FALSE(pp.LineActive(2));  // directive
  EXPECT_FALSE(pp.LineActive(3));  // disabled
  EXPECT_FALSE(pp.LineActive(4));  // directive
  EXPECT_TRUE(pp.LineActive(5));
  ASSERT_EQ(pp.regions.size(), 1u);
  EXPECT_EQ(pp.regions[0].begin_line, 2);
  EXPECT_EQ(pp.regions[0].end_line, 4);
  EXPECT_EQ(pp.regions[0].condition, "FOO");
  EXPECT_FALSE(pp.regions[0].taken);
}

TEST(Preprocessor, DefinedMacroEnablesRegion) {
  Config config;
  config.Define("FOO");
  PreprocessResult pp = Preprocess("#if FOO\nx\n#endif\n", config);
  EXPECT_TRUE(pp.LineActive(2));
  EXPECT_TRUE(pp.regions[0].taken);
}

TEST(Preprocessor, MacroDefinedZeroIsFalseUnderIf) {
  Config config;
  config.Define("FOO", 0);
  PreprocessResult pp = Preprocess("#if FOO\nx\n#endif\n", config);
  EXPECT_FALSE(pp.LineActive(2));
  // ...but #ifdef sees it as defined.
  pp = Preprocess("#ifdef FOO\nx\n#endif\n", config);
  EXPECT_TRUE(pp.LineActive(2));
}

TEST(Preprocessor, IfndefAndElse) {
  PreprocessResult pp = Preprocess("#ifndef BAR\na\n#else\nb\n#endif\n", Config());
  EXPECT_TRUE(pp.LineActive(2));
  EXPECT_FALSE(pp.LineActive(4));
  Config config;
  config.Define("BAR");
  pp = Preprocess("#ifndef BAR\na\n#else\nb\n#endif\n", config);
  EXPECT_FALSE(pp.LineActive(2));
  EXPECT_TRUE(pp.LineActive(4));
}

TEST(Preprocessor, NestedConditionals) {
  Config config;
  config.Define("OUTER");
  std::string code =
      "#if OUTER\n"   // 1
      "a\n"           // 2 active
      "#if INNER\n"   // 3
      "b\n"           // 4 inactive
      "#endif\n"      // 5
      "c\n"           // 6 active
      "#endif\n"      // 7
      "d\n";          // 8 active
  PreprocessResult pp = Preprocess(code, config);
  EXPECT_TRUE(pp.LineActive(2));
  EXPECT_FALSE(pp.LineActive(4));
  EXPECT_TRUE(pp.LineActive(6));
  EXPECT_TRUE(pp.LineActive(8));
  EXPECT_EQ(pp.regions.size(), 2u);  // inner closes first
  EXPECT_EQ(pp.regions[0].begin_line, 3);
  EXPECT_EQ(pp.regions[0].end_line, 5);
  EXPECT_EQ(pp.regions[1].begin_line, 1);
  EXPECT_EQ(pp.regions[1].end_line, 7);
}

TEST(Preprocessor, DisabledOuterSuppressesInnerEvenIfTrue) {
  Config config;
  config.Define("INNER");
  std::string code = "#if OUTER\n#if INNER\nx\n#endif\n#endif\n";
  PreprocessResult pp = Preprocess(code, config);
  EXPECT_FALSE(pp.LineActive(3));
}

TEST(Preprocessor, InlineDefineAffectsLaterConditionals) {
  std::string code = "#define FEATURE 1\n#if FEATURE\nx\n#endif\n";
  PreprocessResult pp = Preprocess(code, Config());
  EXPECT_TRUE(pp.LineActive(3));
}

TEST(Preprocessor, DefinedFunctionForm) {
  Config config;
  config.Define("X", 0);
  PreprocessResult pp = Preprocess("#if defined(X)\na\n#endif\n", config);
  EXPECT_TRUE(pp.LineActive(2));
  pp = Preprocess("#if !defined(X)\na\n#endif\n", config);
  EXPECT_FALSE(pp.LineActive(2));
}

TEST(Preprocessor, LiteralConditions) {
  PreprocessResult pp = Preprocess("#if 0\na\n#endif\n#if 1\nb\n#endif\n", Config());
  EXPECT_FALSE(pp.LineActive(2));
  EXPECT_TRUE(pp.LineActive(5));
}

TEST(Preprocessor, ErrorsOnStrayEndifAndUnterminated) {
  PreprocessResult pp = Preprocess("#endif\n", Config());
  EXPECT_EQ(pp.errors.size(), 1u);
  pp = Preprocess("#if A\nx\n", Config());
  EXPECT_EQ(pp.errors.size(), 1u);
  // Unterminated blocks still record a region to the end of the file.
  ASSERT_EQ(pp.regions.size(), 1u);
  EXPECT_EQ(pp.regions[0].end_line, 2);
}

TEST(Preprocessor, IncludeIsInert) {
  PreprocessResult pp = Preprocess("#include \"other.h\"\nint x;\n", Config());
  EXPECT_TRUE(pp.errors.empty());
  EXPECT_FALSE(pp.LineActive(1));
  EXPECT_TRUE(pp.LineActive(2));
}

}  // namespace
}  // namespace vc
