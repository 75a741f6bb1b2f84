#include "util/check.h"

#include <cstdio>
#include <cstdlib>

namespace skyup {
namespace internal {

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace skyup
