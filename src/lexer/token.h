// Token definitions for the Mini-C front end.
//
// Mini-C is the from-scratch C subset this reproduction analyzes in place of
// LLVM bitcode compiled from real C/C++ (see DESIGN.md §1). It covers the
// constructs ValueCheck's algorithm observes: assignments, calls, field and
// pointer accesses, control flow, preprocessor conditionals, and unused-hint
// attributes.

#ifndef VALUECHECK_SRC_LEXER_TOKEN_H_
#define VALUECHECK_SRC_LEXER_TOKEN_H_

#include <string_view>

#include "src/support/source_location.h"

namespace vc {

enum class TokenKind {
  kEof,
  kIdentifier,
  kIntLiteral,
  kCharLiteral,
  kStringLiteral,
  // Attribute blob: "[[maybe_unused]]" or "__attribute__((unused))"; the
  // token text carries the attribute spelling for hint matching.
  kAttribute,

  // Type and declaration keywords.
  kKwVoid,
  kKwInt,
  kKwChar,
  kKwLong,
  kKwBool,
  kKwUnsigned,
  kKwSizeT,
  kKwStruct,
  kKwEnum,
  kKwTypedef,
  kKwConst,
  kKwStatic,

  // Statement keywords.
  kKwIf,
  kKwElse,
  kKwWhile,
  kKwDo,
  kKwFor,
  kKwSwitch,
  kKwCase,
  kKwDefault,
  kKwReturn,
  kKwBreak,
  kKwContinue,
  kKwSizeof,
  kKwTrue,
  kKwFalse,
  kKwNull,

  // Punctuation and operators.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kSemi,
  kComma,
  kDot,
  kArrow,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kAmp,
  kPipe,
  kCaret,
  kTilde,
  kBang,
  kAssign,
  kPlusAssign,
  kMinusAssign,
  kStarAssign,
  kSlashAssign,
  kAmpAssign,
  kPipeAssign,
  kPlusPlus,
  kMinusMinus,
  kEq,
  kNe,
  kLt,
  kGt,
  kLe,
  kGe,
  kAmpAmp,
  kPipePipe,
  kShl,
  kShr,
  kQuestion,
  kColon,
};

const char* TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEof;
  SourceLoc loc;
  // Spelling for identifiers, literals, and attributes; empty otherwise. It
  // views the file's content in the SourceManager, so a token is not kept
  // past the manager's next AddFile or ReplaceContent; the parser copies
  // every name the AST keeps.
  std::string_view text;
  // Decoded value for kIntLiteral / kCharLiteral.
  long long int_value = 0;

  bool Is(TokenKind k) const { return kind == k; }
};

}  // namespace vc

#endif  // VALUECHECK_SRC_LEXER_TOKEN_H_
