// Plain-text serialization of a Repository — the "vchist" format the CLI
// consumes so real projects can feed ValueCheck authorship data without a
// git binding. One block per commit:
//
//   commit
//   author <name>
//   time <unix-seconds>
//   message <single line>
//   write <path>
//   <<<
//   ...file content verbatim...
//   >>>
//   delete <path>
//   end
//
// A line ends at '\n' or at the end of the text, and directives are read
// with surrounding whitespace trimmed (so "\r\n" endings work). A write's
// content is the bytes between its `<<<` line and the first later line
// whose trimmed text is `>>>`, verbatim: every content line keeps its '\n',
// and a content line can hold anything else, `>>>>` or `a >>> b` included.
// `write`/`delete` may repeat within a commit, naming each path at most
// once; `#` starts a comment line outside content blocks. SaveHistory emits
// the same format, so histories round-trip.

#ifndef VALUECHECK_SRC_VCS_HISTORY_IO_H_
#define VALUECHECK_SRC_VCS_HISTORY_IO_H_

#include <optional>
#include <string>

#include "src/vcs/repository.h"

namespace vc {

// Parses `text` in one forward pass, building each write's content once at
// its exact size; on failure returns nullopt and fills *error with a
// line-numbered message.
std::optional<Repository> LoadHistory(const std::string& text, std::string* error);

std::string SaveHistory(const Repository& repo);

}  // namespace vc

#endif  // VALUECHECK_SRC_VCS_HISTORY_IO_H_
