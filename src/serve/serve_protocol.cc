#include "serve/serve_protocol.h"

namespace mjoin {

const char* ServeBackendName(ServeBackend backend) {
  switch (backend) {
    case ServeBackend::kThread:
      return "thread";
    case ServeBackend::kProcess:
      return "process";
  }
  return "unknown";
}

}  // namespace mjoin
