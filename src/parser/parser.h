// Recursive-descent parser for Mini-C. Produces a fully resolved
// TranslationUnit: identifier expressions are bound to their VarDecl /
// FunctionDecl, member expressions to FieldDecls, and every expression carries
// a best-effort type. Parse errors are reported to the DiagnosticEngine and
// recovered at statement boundaries so one bad construct does not sink a file.

#ifndef VALUECHECK_SRC_PARSER_PARSER_H_
#define VALUECHECK_SRC_PARSER_PARSER_H_

#include <vector>

#include "src/ast/ast.h"
#include "src/lexer/preprocessor.h"
#include "src/support/diagnostics.h"
#include "src/support/source_manager.h"

namespace vc {

// Recursion-depth cap for statement/expression nesting. Each guarded level
// costs a handful of real stack frames, so 512 keeps the worst case well
// under typical 8 MiB stacks even with sanitizer-inflated frames. Exceeding
// the cap emits one diagnostic and skips the rest of the file instead of
// overflowing the stack.
inline constexpr int kDefaultParseDepth = 512;

// Preprocesses, lexes, and parses one file. The returned unit owns its AST.
// `max_depth` overrides the nesting cap (0 = kDefaultParseDepth).
TranslationUnit ParseFile(const SourceManager& sm, FileId file, const Config& config,
                          DiagnosticEngine& diags, int max_depth = 0);

// Lexes and parses one file already preprocessed into `pp`. Reports no
// preprocessor errors: the caller that ran Preprocess owns those.
TranslationUnit ParseFile(const SourceManager& sm, FileId file, const PreprocessResult& pp,
                          DiagnosticEngine& diags, int max_depth = 0);

// Convenience for tests: parses from a bare string (registers it in `sm`).
TranslationUnit ParseString(SourceManager& sm, const std::string& path, const std::string& code,
                            DiagnosticEngine& diags);

}  // namespace vc

#endif  // VALUECHECK_SRC_PARSER_PARSER_H_
