// Differential test of the lexer. The scanner from before tokens viewed the
// source — a std::map keyword table, <cctype> calls, a std::string per
// spelling and strtoll — is kept verbatim below as ReferenceLex, with its own
// token type; only its __attribute__ rule changed since, together with
// Lex's (the word itself, optional spaces, then "(("). Lex must give the same tokens (kind, location, spelling,
// integer value) and the same diagnostics (count, location, message) on the
// head files of the four generated apps, on testgen programs, and on seeded
// byte mutations of both that reach every error path and literal edge case.

#include <gtest/gtest.h>

#include <cctype>
#include <climits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/lexer/lexer.h"
#include "src/lexer/preprocessor.h"
#include "src/support/rng.h"
#include "src/support/source_manager.h"
#include "src/testing/testgen.h"

namespace vc {
namespace {

// The reference lexer's token: its spelling is an owned copy.
struct ReferenceToken {
  TokenKind kind = TokenKind::kEof;
  SourceLoc loc;
  std::string text;
  long long int_value = 0;
};

const std::map<std::string, TokenKind>& KeywordTable() {
  static const std::map<std::string, TokenKind> kTable = {
      {"void", TokenKind::kKwVoid},         {"int", TokenKind::kKwInt},
      {"char", TokenKind::kKwChar},         {"long", TokenKind::kKwLong},
      {"bool", TokenKind::kKwBool},         {"unsigned", TokenKind::kKwUnsigned},
      {"size_t", TokenKind::kKwSizeT},      {"struct", TokenKind::kKwStruct},
      {"enum", TokenKind::kKwEnum},         {"typedef", TokenKind::kKwTypedef},
      {"const", TokenKind::kKwConst},       {"static", TokenKind::kKwStatic},
      {"if", TokenKind::kKwIf},             {"else", TokenKind::kKwElse},
      {"while", TokenKind::kKwWhile},       {"for", TokenKind::kKwFor},
      {"do", TokenKind::kKwDo},             {"switch", TokenKind::kKwSwitch},
      {"case", TokenKind::kKwCase},         {"default", TokenKind::kKwDefault},
      {"return", TokenKind::kKwReturn},     {"break", TokenKind::kKwBreak},
      {"continue", TokenKind::kKwContinue}, {"sizeof", TokenKind::kKwSizeof},
      {"true", TokenKind::kKwTrue},         {"false", TokenKind::kKwFalse},
      {"NULL", TokenKind::kKwNull},         {"nullptr", TokenKind::kKwNull},
  };
  return kTable;
}

// Per-line scanner that carries block-comment state across lines.
class ReferenceScanner {
 public:
  ReferenceScanner(const SourceManager& sm, FileId file, const PreprocessResult& pp,
              DiagnosticEngine& diags)
      : sm_(sm), file_(file), pp_(pp), diags_(diags) {}

  std::vector<ReferenceToken> Run() {
    const int num_lines = sm_.NumLines(file_);
    for (int line = 1; line <= num_lines; ++line) {
      if (!pp_.LineActive(line)) {
        continue;
      }
      ScanLine(line, sm_.Line(file_, line));
    }
    ReferenceToken eof;
    eof.kind = TokenKind::kEof;
    eof.loc = {file_, num_lines, 1};
    tokens_.push_back(std::move(eof));
    return std::move(tokens_);
  }

 private:
  void Emit(TokenKind kind, int line, int col, std::string text = {}, long long value = 0) {
    ReferenceToken tok;
    tok.kind = kind;
    tok.loc = {file_, line, col};
    tok.text = std::move(text);
    tok.int_value = value;
    tokens_.push_back(std::move(tok));
  }

  void ScanLine(int line, std::string_view text) {
    size_t i = 0;
    const size_t n = text.size();
    while (i < n) {
      if (in_block_comment_) {
        size_t close = text.find("*/", i);
        if (close == std::string_view::npos) {
          return;  // comment continues on the next line
        }
        i = close + 2;
        in_block_comment_ = false;
        continue;
      }

      char c = text[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      const int col = static_cast<int>(i) + 1;

      // Comments.
      if (c == '/' && i + 1 < n && text[i + 1] == '/') {
        return;
      }
      if (c == '/' && i + 1 < n && text[i + 1] == '*') {
        in_block_comment_ = true;
        i += 2;
        continue;
      }

      // Attributes: [[...]]
      if (c == '[' && i + 1 < n && text[i + 1] == '[') {
        size_t close = text.find("]]", i + 2);
        if (close == std::string_view::npos) {
          diags_.Error({file_, line, col}, "unterminated [[attribute]]");
          return;
        }
        Emit(TokenKind::kAttribute, line, col, std::string(text.substr(i, close + 2 - i)));
        i = close + 2;
        continue;
      }

      // Attributes: the word __attribute__, optional spaces, then ((...))
      const size_t after = i + 13;
      if (c == '_' && text.substr(i).rfind("__attribute__", 0) == 0 &&
          (after == n ||
           !(std::isalnum(static_cast<unsigned char>(text[after])) || text[after] == '_'))) {
        size_t open = after;
        while (open < n && std::isspace(static_cast<unsigned char>(text[open]))) {
          ++open;
        }
        size_t close = text.substr(open).rfind("((", 0) == 0 ? text.find("))", open)
                                                            : std::string_view::npos;
        if (close == std::string_view::npos) {
          diags_.Error({file_, line, col}, "unterminated __attribute__");
          return;
        }
        Emit(TokenKind::kAttribute, line, col, std::string(text.substr(i, close + 2 - i)));
        i = close + 2;
        continue;
      }

      // Identifiers and keywords.
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) || text[i] == '_')) {
          ++i;
        }
        std::string word(text.substr(start, i - start));
        auto it = KeywordTable().find(word);
        if (it != KeywordTable().end()) {
          Emit(it->second, line, col);
        } else {
          Emit(TokenKind::kIdentifier, line, col, std::move(word));
        }
        continue;
      }

      // Numeric literals (decimal or 0x hex).
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = i;
        if (c == '0' && i + 1 < n && (text[i + 1] == 'x' || text[i + 1] == 'X')) {
          i += 2;
          while (i < n && std::isxdigit(static_cast<unsigned char>(text[i]))) {
            ++i;
          }
        } else {
          while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) {
            ++i;
          }
        }
        // Integer suffixes (u, l, ul, ...) are accepted and ignored.
        while (i < n && (text[i] == 'u' || text[i] == 'U' || text[i] == 'l' || text[i] == 'L')) {
          ++i;
        }
        std::string spelling(text.substr(start, i - start));
        long long value = std::strtoll(spelling.c_str(), nullptr, 0);
        Emit(TokenKind::kIntLiteral, line, col, std::move(spelling), value);
        continue;
      }

      // Character literal.
      if (c == '\'') {
        size_t j = i + 1;
        long long value = 0;
        if (j < n && text[j] == '\\' && j + 1 < n) {
          switch (text[j + 1]) {
            case 'n':
              value = '\n';
              break;
            case 't':
              value = '\t';
              break;
            case '0':
              value = 0;
              break;
            case '\\':
              value = '\\';
              break;
            case '\'':
              value = '\'';
              break;
            default:
              value = text[j + 1];
              break;
          }
          j += 2;
        } else if (j < n) {
          value = text[j];
          j += 1;
        }
        if (j >= n || text[j] != '\'') {
          diags_.Error({file_, line, col}, "unterminated character literal");
          return;
        }
        Emit(TokenKind::kCharLiteral, line, col, std::string(text.substr(i, j + 1 - i)), value);
        i = j + 1;
        continue;
      }

      // String literal.
      if (c == '"') {
        size_t j = i + 1;
        while (j < n && text[j] != '"') {
          if (text[j] == '\\' && j + 1 < n) {
            ++j;
          }
          ++j;
        }
        if (j >= n) {
          diags_.Error({file_, line, col}, "unterminated string literal");
          return;
        }
        Emit(TokenKind::kStringLiteral, line, col, std::string(text.substr(i + 1, j - i - 1)));
        i = j + 1;
        continue;
      }

      // Operators and punctuation (longest match first).
      auto two = (i + 1 < n) ? text.substr(i, 2) : std::string_view{};
      TokenKind kind = TokenKind::kEof;
      int len = 0;
      if (two == "->") {
        kind = TokenKind::kArrow;
        len = 2;
      } else if (two == "++") {
        kind = TokenKind::kPlusPlus;
        len = 2;
      } else if (two == "--") {
        kind = TokenKind::kMinusMinus;
        len = 2;
      } else if (two == "+=") {
        kind = TokenKind::kPlusAssign;
        len = 2;
      } else if (two == "-=") {
        kind = TokenKind::kMinusAssign;
        len = 2;
      } else if (two == "*=") {
        kind = TokenKind::kStarAssign;
        len = 2;
      } else if (two == "/=") {
        kind = TokenKind::kSlashAssign;
        len = 2;
      } else if (two == "&=") {
        kind = TokenKind::kAmpAssign;
        len = 2;
      } else if (two == "|=") {
        kind = TokenKind::kPipeAssign;
        len = 2;
      } else if (two == "==") {
        kind = TokenKind::kEq;
        len = 2;
      } else if (two == "!=") {
        kind = TokenKind::kNe;
        len = 2;
      } else if (two == "<=") {
        kind = TokenKind::kLe;
        len = 2;
      } else if (two == ">=") {
        kind = TokenKind::kGe;
        len = 2;
      } else if (two == "&&") {
        kind = TokenKind::kAmpAmp;
        len = 2;
      } else if (two == "||") {
        kind = TokenKind::kPipePipe;
        len = 2;
      } else if (two == "<<") {
        kind = TokenKind::kShl;
        len = 2;
      } else if (two == ">>") {
        kind = TokenKind::kShr;
        len = 2;
      } else {
        len = 1;
        switch (c) {
          case '(':
            kind = TokenKind::kLParen;
            break;
          case ')':
            kind = TokenKind::kRParen;
            break;
          case '{':
            kind = TokenKind::kLBrace;
            break;
          case '}':
            kind = TokenKind::kRBrace;
            break;
          case '[':
            kind = TokenKind::kLBracket;
            break;
          case ']':
            kind = TokenKind::kRBracket;
            break;
          case ';':
            kind = TokenKind::kSemi;
            break;
          case ',':
            kind = TokenKind::kComma;
            break;
          case '.':
            kind = TokenKind::kDot;
            break;
          case '+':
            kind = TokenKind::kPlus;
            break;
          case '-':
            kind = TokenKind::kMinus;
            break;
          case '*':
            kind = TokenKind::kStar;
            break;
          case '/':
            kind = TokenKind::kSlash;
            break;
          case '%':
            kind = TokenKind::kPercent;
            break;
          case '&':
            kind = TokenKind::kAmp;
            break;
          case '|':
            kind = TokenKind::kPipe;
            break;
          case '^':
            kind = TokenKind::kCaret;
            break;
          case '~':
            kind = TokenKind::kTilde;
            break;
          case '!':
            kind = TokenKind::kBang;
            break;
          case '=':
            kind = TokenKind::kAssign;
            break;
          case '<':
            kind = TokenKind::kLt;
            break;
          case '>':
            kind = TokenKind::kGt;
            break;
          case '?':
            kind = TokenKind::kQuestion;
            break;
          case ':':
            kind = TokenKind::kColon;
            break;
          default:
            diags_.Error({file_, line, col},
                         std::string("unexpected character '") + c + "'");
            ++i;
            continue;
        }
      }
      Emit(kind, line, col);
      i += len;
    }
  }

  const SourceManager& sm_;
  FileId file_;
  const PreprocessResult& pp_;
  DiagnosticEngine& diags_;
  std::vector<ReferenceToken> tokens_;
  bool in_block_comment_ = false;
};

std::vector<ReferenceToken> ReferenceLex(const SourceManager& sm, FileId file,
                                         const PreprocessResult& pp, DiagnosticEngine& diags) {
  ReferenceScanner scanner(sm, file, pp, diags);
  return scanner.Run();
}

// What the inputs exercised, read off the reference lexer's output.
struct Coverage {
  std::map<std::string, int> errors;  // diagnostic message, up to its first quote
  int octal = 0;                      // integer literals with a leading '0'
  int hex = 0;                        // ... with "0x" or "0X"
  int suffixed = 0;                   // ... with a u or l suffix
  int overflowed = 0;                 // ... whose value clamps to LLONG_MAX
  int carriage_returns = 0;           // active lines ending in '\r'
};

// Lexes `content` both ways; on the first difference, fails naming `what`.
void ExpectSameLex(const std::string& what, const std::string& content, Coverage& coverage) {
  SourceManager sm;
  const FileId file = sm.AddFile("input.c", content);
  const PreprocessResult pp = Preprocess(sm.Content(file), Config());
  DiagnosticEngine want_diags;
  DiagnosticEngine got_diags;
  const std::vector<ReferenceToken> want = ReferenceLex(sm, file, pp, want_diags);
  const std::vector<Token> got = Lex(sm, file, pp, got_diags);

  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const ReferenceToken& w = want[i];
    const Token& g = got[i];
    ASSERT_TRUE(g.kind == w.kind && g.loc == w.loc && g.text == w.text &&
                g.int_value == w.int_value)
        << what << ": token " << i << " is '" << TokenKindName(g.kind) << "' \"" << g.text
        << "\" " << g.int_value << " at " << g.loc.line << ":" << g.loc.column << ", want '"
        << TokenKindName(w.kind) << "' \"" << w.text << "\" " << w.int_value << " at "
        << w.loc.line << ":" << w.loc.column;
  }
  const std::vector<Diagnostic>& wd = want_diags.diagnostics();
  const std::vector<Diagnostic>& gd = got_diags.diagnostics();
  ASSERT_EQ(gd.size(), wd.size()) << what;
  for (size_t i = 0; i < wd.size(); ++i) {
    ASSERT_TRUE(gd[i].loc == wd[i].loc && gd[i].message == wd[i].message)
        << what << ": diagnostic " << i << " is " << gd[i].loc.line << ":" << gd[i].loc.column
        << " " << gd[i].message << ", want " << wd[i].loc.line << ":" << wd[i].loc.column << " "
        << wd[i].message;
  }

  for (const Diagnostic& diag : wd) {
    ++coverage.errors[diag.message.substr(0, diag.message.find('\''))];
  }
  for (const ReferenceToken& tok : want) {
    if (tok.kind != TokenKind::kIntLiteral) {
      continue;
    }
    const bool hex = tok.text.size() > 1 && (tok.text[1] == 'x' || tok.text[1] == 'X');
    coverage.hex += hex;
    coverage.octal += !hex && tok.text.size() > 1 && tok.text[0] == '0';
    coverage.suffixed += tok.text.find_first_of("uUlL") != std::string::npos;
    coverage.overflowed += tok.int_value == LLONG_MAX;
  }
  for (int line = 1; line <= sm.NumLines(file); ++line) {
    const std::string_view text = sm.Line(file, line);
    coverage.carriage_returns += pp.LineActive(line) && !text.empty() && text.back() == '\r';
  }
}

// The head snapshot of each generated app at scale 0.1, as (path, content).
std::vector<std::pair<std::string, std::string>> AppHeadFiles() {
  std::vector<std::pair<std::string, std::string>> files;
  for (const ProjectProfile& profile : AllProfiles()) {
    GeneratedApp app = GenerateApp(profile.Scaled(0.1));
    for (const std::string& path : app.repo.ListFiles()) {
      files.emplace_back(app.name + "/" + path,
                         *app.repo.FileAt(path, app.repo.NumCommits() - 1));
    }
  }
  return files;
}

std::vector<std::pair<std::string, std::string>> TestgenFiles(int seeds) {
  std::vector<std::pair<std::string, std::string>> files;
  for (int seed = 0; seed < seeds; ++seed) {
    const testing::TestProgram program = testing::GenerateProgram(static_cast<uint64_t>(seed));
    for (const testing::SourceFile& file : program.files) {
      files.emplace_back("seed" + std::to_string(seed) + "/" + file.path, file.Content());
    }
  }
  return files;
}

// Snippets a mutation inserts: openers without their closers, quotes, stray
// bytes, comment delimiters, line ends, and integer spellings at the edges
// of the decoder (leading zero, 0x, suffixes, values past LLONG_MAX).
const std::vector<std::string>& Snippets() {
  static const std::vector<std::string> kSnippets = {
      "[[", "]]", "[[maybe_unused", "[[maybe_unused]]", "__attribute__((",
      "__attribute__((unused", "__attribute__", "__attribute__((unused))",
      "__attribute__ ((unused))", "__attribute__count", "))", "'", "'\\",
      "'a", "'\\n'", "'\\q'", "''", "\"", "\"abc\\\"", "\"\\", "@", "$", "`", "\\", "#",
      std::string(1, '\0'), "\x80", "\xff", "/*", "*/", "//", "/", "\r\n", "\r", "\t", "\v",
      "\f", "0", "00", "0x", "0X", "0xg", "0x_", "07", "08", "019", "0777", "0x7fffffffffffffff",
      "0x8000000000000000", "0xFFFFFFFFFFFFFFFFFFFF", "9223372036854775807",
      "9223372036854775808", "99999999999999999999999", "01777777777777777777777",
      "02000000000000000000000", "1u", "2U", "3l", "4L", "5ul", "6LLU", "0x1fUL", "0u", "0lu",
      "0xu", "->", ">=", ">>", "<=", "<<", "&&", "||", "!=", "==", "&=", "|=", "+=", "-=", "*=",
      "/=", "++", "--", "?", ":", "~", "^", "%", "nullptr", "NULL", "size_t", "sizeof", "_",
      "__x", "continue", "default", "unsigned"};
  return kSnippets;
}

// Applies one seeded mutation to `text`.
void Mutate(Rng& rng, std::string& text) {
  const size_t at = text.empty() ? 0 : rng.NextBelow(text.size() + 1);
  // Start of the line holding `at`.
  const size_t line_start = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
  switch (rng.NextBelow(8)) {
    case 0:  // one byte replaced by any byte
      if (!text.empty()) {
        text[rng.NextBelow(text.size())] = static_cast<char>(rng.NextBelow(256));
      }
      break;
    case 1:
    case 2: {  // a snippet inserted
      const std::vector<std::string>& snippets = Snippets();
      text.insert(at, snippets[rng.NextBelow(snippets.size())]);
      break;
    }
    case 3:  // a few bytes deleted
      text.erase(at, 1 + rng.NextBelow(8));
      break;
    case 4: {  // every line end from here on becomes "\r\n"
      std::string tail;
      for (char c : text.substr(at)) {
        if (c == '\n') {
          tail += '\r';
        }
        tail += c;
      }
      text.replace(at, std::string::npos, tail);
      break;
    }
    case 5: {  // a block comment opened here and closed a few lines later
      size_t close = at;
      for (uint64_t lines = 1 + rng.NextBelow(4); lines > 0 && close != std::string::npos;
           --lines) {
        close = text.find('\n', close + 1);
      }
      if (close != std::string::npos) {
        text.insert(close, " */");
      }
      text.insert(at, "/* ");
      break;
    }
    case 6:  // a block comment across inactive lines, one of which reads "*/"
      text.insert(line_start,
                  "int before; /* opened\n#if 0\n*/ int inactive;\n#endif\nclosed */ int after;\n");
      break;
    default:  // the file cut short
      text.resize(at);
      break;
  }
}

TEST(LexerDifferential, GeneratedAppHeadFiles) {
  Coverage coverage;
  const auto files = AppHeadFiles();
  ASSERT_FALSE(files.empty());
  for (const auto& [path, content] : files) {
    ExpectSameLex(path, content, coverage);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(LexerDifferential, TestgenPrograms) {
  Coverage coverage;
  for (const auto& [path, content] : TestgenFiles(200)) {
    ExpectSameLex(path, content, coverage);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(LexerDifferential, SeededMutationsReachEveryPath) {
  std::vector<std::pair<std::string, std::string>> bases = AppHeadFiles();
  for (auto& file : TestgenFiles(40)) {
    bases.push_back(std::move(file));
  }
  Coverage coverage;
  constexpr int kMutants = 2500;
  for (int seed = 0; seed < kMutants; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const auto& [path, base] = bases[rng.NextBelow(bases.size())];
    std::string text = base;
    for (uint64_t edits = 1 + rng.NextBelow(4); edits > 0; --edits) {
      Mutate(rng, text);
    }
    ExpectSameLex(path + " mutant " + std::to_string(seed), text, coverage);
    if (HasFatalFailure()) {
      return;
    }
  }
  for (const char* error :
       {"unterminated [[attribute]]", "unterminated __attribute__",
        "unterminated character literal", "unterminated string literal",
        "unexpected character "}) {
    EXPECT_GT(coverage.errors[error], 0) << error;
  }
  EXPECT_GT(coverage.octal, 0);
  EXPECT_GT(coverage.hex, 0);
  EXPECT_GT(coverage.suffixed, 0);
  EXPECT_GT(coverage.overflowed, 0);
  EXPECT_GT(coverage.carriage_returns, 0);
}

}  // namespace
}  // namespace vc
