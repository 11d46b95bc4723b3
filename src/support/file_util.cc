#include "src/support/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace vc {

std::optional<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return std::nullopt;
  }
  struct stat info {};
  std::optional<std::string> bytes;
  if (::fstat(fd, &info) == 0 && !S_ISDIR(info.st_mode)) {
    // A regular file that reports no length (procfs) is read like a pipe.
    const bool sized = S_ISREG(info.st_mode) && info.st_size > 0;
    std::string buffer(sized ? static_cast<size_t>(info.st_size) : 0, '\0');
    size_t filled = 0;
    while (true) {
      if (filled == buffer.size()) {
        if (sized) {
          bytes = std::move(buffer);
          break;
        }
        buffer.resize(filled + (64 << 10));
      }
      const ssize_t n = ::read(fd, buffer.data() + filled, buffer.size() - filled);
      if (n > 0) {
        filled += static_cast<size_t>(n);
      } else if (n == 0) {  // end of file (a regular file may have shrunk)
        buffer.resize(filled);
        bytes = std::move(buffer);
        break;
      } else if (errno != EINTR) {
        break;
      }
    }
  }
  ::close(fd);
  return bytes;
}

}  // namespace vc
