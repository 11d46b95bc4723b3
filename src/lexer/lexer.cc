#include "src/lexer/lexer.h"

#include <array>
#include <climits>
#include <cstdint>
#include <string>

namespace vc {

namespace {

// Byte classes of the C locale's <cctype> predicates, one table lookup each.
enum ByteClass : uint8_t {
  kSpace = 1,       // isspace
  kIdentStart = 2,  // isalpha or '_'
  kIdentChar = 4,   // isalnum or '_'
  kDigit = 8,       // isdigit
  kHexDigit = 16,   // isxdigit
};

constexpr std::array<uint8_t, 256> kByteClasses = [] {
  std::array<uint8_t, 256> table{};
  for (int c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[c] |= kSpace;
  }
  for (int c = 0; c < 256; ++c) {
    const bool upper = c >= 'A' && c <= 'Z';
    const bool lower = c >= 'a' && c <= 'z';
    const bool digit = c >= '0' && c <= '9';
    if (upper || lower || c == '_') {
      table[c] |= kIdentStart | kIdentChar;
    }
    if (digit) {
      table[c] |= kDigit | kIdentChar | kHexDigit;
    }
    if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) {
      table[c] |= kHexDigit;
    }
  }
  return table;
}();

bool Is(char c, ByteClass cls) { return (kByteClasses[static_cast<unsigned char>(c)] & cls) != 0; }

// The keyword spelled by `word`, or kIdentifier. `word` is not empty.
TokenKind KeywordKind(std::string_view word) {
  switch (word[0]) {
    case 'b':
      if (word == "bool") return TokenKind::kKwBool;
      if (word == "break") return TokenKind::kKwBreak;
      break;
    case 'c':
      if (word == "char") return TokenKind::kKwChar;
      if (word == "const") return TokenKind::kKwConst;
      if (word == "case") return TokenKind::kKwCase;
      if (word == "continue") return TokenKind::kKwContinue;
      break;
    case 'd':
      if (word == "do") return TokenKind::kKwDo;
      if (word == "default") return TokenKind::kKwDefault;
      break;
    case 'e':
      if (word == "else") return TokenKind::kKwElse;
      if (word == "enum") return TokenKind::kKwEnum;
      break;
    case 'f':
      if (word == "for") return TokenKind::kKwFor;
      if (word == "false") return TokenKind::kKwFalse;
      break;
    case 'i':
      if (word == "int") return TokenKind::kKwInt;
      if (word == "if") return TokenKind::kKwIf;
      break;
    case 'l':
      if (word == "long") return TokenKind::kKwLong;
      break;
    case 'n':
      if (word == "nullptr") return TokenKind::kKwNull;
      break;
    case 'r':
      if (word == "return") return TokenKind::kKwReturn;
      break;
    case 's':
      if (word == "struct") return TokenKind::kKwStruct;
      if (word == "static") return TokenKind::kKwStatic;
      if (word == "switch") return TokenKind::kKwSwitch;
      if (word == "sizeof") return TokenKind::kKwSizeof;
      if (word == "size_t") return TokenKind::kKwSizeT;
      break;
    case 't':
      if (word == "typedef") return TokenKind::kKwTypedef;
      if (word == "true") return TokenKind::kKwTrue;
      break;
    case 'u':
      if (word == "unsigned") return TokenKind::kKwUnsigned;
      break;
    case 'v':
      if (word == "void") return TokenKind::kKwVoid;
      break;
    case 'w':
      if (word == "while") return TokenKind::kKwWhile;
      break;
    case 'N':
      if (word == "NULL") return TokenKind::kKwNull;
      break;
    default:
      break;
  }
  return TokenKind::kIdentifier;
}

// The value std::strtoll(spelling, nullptr, 0) gives an integer literal's
// spelling: a digit run (hex after "0x" followed by a hex digit, octal after
// a leading '0', decimal otherwise) that stops at the first byte outside its
// base, LLONG_MAX when it overflows.
long long DecodeInt(std::string_view spelling) {
  size_t i = 0;
  unsigned base = 10;
  if (spelling[0] == '0') {
    base = 8;
    if (spelling.size() > 2 && (spelling[1] == 'x' || spelling[1] == 'X') &&
        Is(spelling[2], kHexDigit)) {
      base = 16;
      i = 2;
    }
  }
  unsigned long long value = 0;
  bool overflow = false;
  for (; i < spelling.size(); ++i) {
    const char c = spelling[i];
    unsigned digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<unsigned>(c - 'A' + 10);
    } else {
      break;
    }
    if (digit >= base) {
      break;
    }
    if (value > (static_cast<unsigned long long>(LLONG_MAX) - digit) / base) {
      overflow = true;
    } else {
      value = value * base + digit;
    }
  }
  return overflow ? LLONG_MAX : static_cast<long long>(value);
}

// Per-line scanner that carries block-comment state across lines.
class LineScanner {
 public:
  LineScanner(const SourceManager& sm, FileId file, const PreprocessResult& pp,
              DiagnosticEngine& diags)
      : sm_(sm), file_(file), pp_(pp), diags_(diags) {}

  std::vector<Token> Run() {
    // The generated paper apps run 4.3 bytes per token; a denser file grows
    // the vector once or twice.
    tokens_.reserve(sm_.Content(file_).size() / 4 + 1);
    const int num_lines = sm_.NumLines(file_);
    for (int line = 1; line <= num_lines; ++line) {
      if (!pp_.LineActive(line)) {
        continue;
      }
      ScanLine(line, sm_.Line(file_, line));
    }
    tokens_.push_back({TokenKind::kEof, {file_, num_lines, 1}, {}, 0});
    return std::move(tokens_);
  }

 private:
  void Emit(TokenKind kind, int line, size_t i, std::string_view text = {}, long long value = 0) {
    tokens_.push_back({kind, {file_, line, static_cast<int>(i) + 1}, text, value});
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

      const char c = text[i];
      const uint8_t cls = kByteClasses[static_cast<unsigned char>(c)];
      if (cls & kSpace) {
        ++i;
        continue;
      }
      const int col = static_cast<int>(i) + 1;
      const char next = i + 1 < n ? text[i + 1] : '\0';

      // Identifiers and keywords. The word __attribute__ itself, then
      // optional spaces and "((", is an attribute up to the first "))".
      if (cls & kIdentStart) {
        const size_t start = i;
        constexpr std::string_view kAttribute = "__attribute__";
        const size_t after = i + kAttribute.size();
        if (c == '_' && text.substr(i).starts_with(kAttribute) &&
            (after == n || !Is(text[after], kIdentChar))) {
          size_t open = after;
          while (open < n && Is(text[open], kSpace)) {
            ++open;
          }
          const size_t close = text.substr(open).starts_with("((") ? text.find("))", open)
                                                                   : std::string_view::npos;
          if (close == std::string_view::npos) {
            diags_.Error({file_, line, col}, "unterminated __attribute__");
            return;
          }
          i = close + 2;
          Emit(TokenKind::kAttribute, line, start, text.substr(start, i - start));
          continue;
        }
        while (i < n && Is(text[i], kIdentChar)) {
          ++i;
        }
        const std::string_view word = text.substr(start, i - start);
        const TokenKind kind = KeywordKind(word);
        Emit(kind, line, start, kind == TokenKind::kIdentifier ? word : std::string_view{});
        continue;
      }

      // Numeric literals (decimal, octal or 0x hex).
      if (cls & kDigit) {
        const size_t start = i;
        if (c == '0' && (next == 'x' || next == 'X')) {
          i += 2;
          while (i < n && Is(text[i], kHexDigit)) {
            ++i;
          }
        } else {
          while (i < n && Is(text[i], kDigit)) {
            ++i;
          }
        }
        // Integer suffixes (u, l, ul, ...) are accepted and ignored.
        while (i < n && (text[i] == 'u' || text[i] == 'U' || text[i] == 'l' || text[i] == 'L')) {
          ++i;
        }
        const std::string_view spelling = text.substr(start, i - start);
        Emit(TokenKind::kIntLiteral, line, start, spelling, DecodeInt(spelling));
        continue;
      }

      // Operators, punctuation, comments, attributes and quoted literals:
      // one switch on the first byte, longest match first.
      TokenKind kind = TokenKind::kEof;
      size_t len = 1;
      switch (c) {
        case '/':
          if (next == '/') {
            return;
          }
          if (next == '*') {
            in_block_comment_ = true;
            i += 2;
            continue;
          }
          kind = next == '=' ? (len = 2, TokenKind::kSlashAssign) : TokenKind::kSlash;
          break;
        case '[':
          if (next == '[') {
            size_t close = text.find("]]", i + 2);
            if (close == std::string_view::npos) {
              diags_.Error({file_, line, col}, "unterminated [[attribute]]");
              return;
            }
            Emit(TokenKind::kAttribute, line, i, text.substr(i, close + 2 - i));
            i = close + 2;
            continue;
          }
          kind = TokenKind::kLBracket;
          break;
        case '\'':
          if (!ScanChar(line, i, text)) {
            return;
          }
          continue;
        case '"':
          if (!ScanString(line, i, text)) {
            return;
          }
          continue;
        case '-':
          kind = next == '>'   ? (len = 2, TokenKind::kArrow)
                 : next == '-' ? (len = 2, TokenKind::kMinusMinus)
                 : next == '=' ? (len = 2, TokenKind::kMinusAssign)
                               : TokenKind::kMinus;
          break;
        case '+':
          kind = next == '+'   ? (len = 2, TokenKind::kPlusPlus)
                 : next == '=' ? (len = 2, TokenKind::kPlusAssign)
                               : TokenKind::kPlus;
          break;
        case '*':
          kind = next == '=' ? (len = 2, TokenKind::kStarAssign) : TokenKind::kStar;
          break;
        case '&':
          kind = next == '='   ? (len = 2, TokenKind::kAmpAssign)
                 : next == '&' ? (len = 2, TokenKind::kAmpAmp)
                               : TokenKind::kAmp;
          break;
        case '|':
          kind = next == '='   ? (len = 2, TokenKind::kPipeAssign)
                 : next == '|' ? (len = 2, TokenKind::kPipePipe)
                               : TokenKind::kPipe;
          break;
        case '=':
          kind = next == '=' ? (len = 2, TokenKind::kEq) : TokenKind::kAssign;
          break;
        case '!':
          kind = next == '=' ? (len = 2, TokenKind::kNe) : TokenKind::kBang;
          break;
        case '<':
          kind = next == '='   ? (len = 2, TokenKind::kLe)
                 : next == '<' ? (len = 2, TokenKind::kShl)
                               : TokenKind::kLt;
          break;
        case '>':
          kind = next == '='   ? (len = 2, TokenKind::kGe)
                 : next == '>' ? (len = 2, TokenKind::kShr)
                               : TokenKind::kGt;
          break;
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
        case '%':
          kind = TokenKind::kPercent;
          break;
        case '^':
          kind = TokenKind::kCaret;
          break;
        case '~':
          kind = TokenKind::kTilde;
          break;
        case '?':
          kind = TokenKind::kQuestion;
          break;
        case ':':
          kind = TokenKind::kColon;
          break;
        default:
          diags_.Error({file_, line, col}, std::string("unexpected character '") + c + "'");
          ++i;
          continue;
      }
      Emit(kind, line, i);
      i += len;
    }
  }

  // Scans the character literal at text[i]; false (after a diagnostic) when
  // it is unterminated, which ends the line.
  bool ScanChar(int line, size_t& i, std::string_view text) {
    const size_t n = text.size();
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
      diags_.Error({file_, line, static_cast<int>(i) + 1}, "unterminated character literal");
      return false;
    }
    Emit(TokenKind::kCharLiteral, line, i, text.substr(i, j + 1 - i), value);
    i = j + 1;
    return true;
  }

  // Scans the string literal at text[i]; false (after a diagnostic) when it
  // is unterminated, which ends the line.
  bool ScanString(int line, size_t& i, std::string_view text) {
    const size_t n = text.size();
    size_t j = i + 1;
    while (j < n && text[j] != '"') {
      if (text[j] == '\\' && j + 1 < n) {
        ++j;
      }
      ++j;
    }
    if (j >= n) {
      diags_.Error({file_, line, static_cast<int>(i) + 1}, "unterminated string literal");
      return false;
    }
    Emit(TokenKind::kStringLiteral, line, i, text.substr(i + 1, j - i - 1));
    i = j + 1;
    return true;
  }

  const SourceManager& sm_;
  FileId file_;
  const PreprocessResult& pp_;
  DiagnosticEngine& diags_;
  std::vector<Token> tokens_;
  bool in_block_comment_ = false;
};

}  // namespace

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof:
      return "eof";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kIntLiteral:
      return "int-literal";
    case TokenKind::kCharLiteral:
      return "char-literal";
    case TokenKind::kStringLiteral:
      return "string-literal";
    case TokenKind::kAttribute:
      return "attribute";
    case TokenKind::kKwVoid:
      return "void";
    case TokenKind::kKwInt:
      return "int";
    case TokenKind::kKwChar:
      return "char";
    case TokenKind::kKwLong:
      return "long";
    case TokenKind::kKwBool:
      return "bool";
    case TokenKind::kKwUnsigned:
      return "unsigned";
    case TokenKind::kKwSizeT:
      return "size_t";
    case TokenKind::kKwStruct:
      return "struct";
    case TokenKind::kKwEnum:
      return "enum";
    case TokenKind::kKwTypedef:
      return "typedef";
    case TokenKind::kKwConst:
      return "const";
    case TokenKind::kKwStatic:
      return "static";
    case TokenKind::kKwIf:
      return "if";
    case TokenKind::kKwElse:
      return "else";
    case TokenKind::kKwWhile:
      return "while";
    case TokenKind::kKwDo:
      return "do";
    case TokenKind::kKwSwitch:
      return "switch";
    case TokenKind::kKwCase:
      return "case";
    case TokenKind::kKwDefault:
      return "default";
    case TokenKind::kKwFor:
      return "for";
    case TokenKind::kKwReturn:
      return "return";
    case TokenKind::kKwBreak:
      return "break";
    case TokenKind::kKwContinue:
      return "continue";
    case TokenKind::kKwSizeof:
      return "sizeof";
    case TokenKind::kKwTrue:
      return "true";
    case TokenKind::kKwFalse:
      return "false";
    case TokenKind::kKwNull:
      return "NULL";
    case TokenKind::kLParen:
      return "(";
    case TokenKind::kRParen:
      return ")";
    case TokenKind::kLBrace:
      return "{";
    case TokenKind::kRBrace:
      return "}";
    case TokenKind::kLBracket:
      return "[";
    case TokenKind::kRBracket:
      return "]";
    case TokenKind::kSemi:
      return ";";
    case TokenKind::kComma:
      return ",";
    case TokenKind::kDot:
      return ".";
    case TokenKind::kArrow:
      return "->";
    case TokenKind::kPlus:
      return "+";
    case TokenKind::kMinus:
      return "-";
    case TokenKind::kStar:
      return "*";
    case TokenKind::kSlash:
      return "/";
    case TokenKind::kPercent:
      return "%";
    case TokenKind::kAmp:
      return "&";
    case TokenKind::kPipe:
      return "|";
    case TokenKind::kCaret:
      return "^";
    case TokenKind::kTilde:
      return "~";
    case TokenKind::kBang:
      return "!";
    case TokenKind::kAssign:
      return "=";
    case TokenKind::kPlusAssign:
      return "+=";
    case TokenKind::kMinusAssign:
      return "-=";
    case TokenKind::kStarAssign:
      return "*=";
    case TokenKind::kSlashAssign:
      return "/=";
    case TokenKind::kAmpAssign:
      return "&=";
    case TokenKind::kPipeAssign:
      return "|=";
    case TokenKind::kPlusPlus:
      return "++";
    case TokenKind::kMinusMinus:
      return "--";
    case TokenKind::kEq:
      return "==";
    case TokenKind::kNe:
      return "!=";
    case TokenKind::kLt:
      return "<";
    case TokenKind::kGt:
      return ">";
    case TokenKind::kLe:
      return "<=";
    case TokenKind::kGe:
      return ">=";
    case TokenKind::kAmpAmp:
      return "&&";
    case TokenKind::kPipePipe:
      return "||";
    case TokenKind::kShl:
      return "<<";
    case TokenKind::kShr:
      return ">>";
    case TokenKind::kQuestion:
      return "?";
    case TokenKind::kColon:
      return ":";
  }
  return "unknown";
}

std::vector<Token> Lex(const SourceManager& sm, FileId file, const PreprocessResult& pp,
                       DiagnosticEngine& diags) {
  LineScanner scanner(sm, file, pp, diags);
  return scanner.Run();
}

}  // namespace vc
