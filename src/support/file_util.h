// The one whole-file reader: the CLI's inputs and histories and the
// incremental engine's disk cache all load through it.

#ifndef VALUECHECK_SRC_SUPPORT_FILE_UTIL_H_
#define VALUECHECK_SRC_SUPPORT_FILE_UTIL_H_

#include <optional>
#include <string>

namespace vc {

// Returns the file's bytes, or nullopt when it cannot be opened or read (a
// directory included). A regular file is read with one read into a buffer
// sized from its length, so the peak is one copy of the file; a pipe or
// other stream is read in chunks until end of file.
std::optional<std::string> ReadWholeFile(const std::string& path);

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_FILE_UTIL_H_
