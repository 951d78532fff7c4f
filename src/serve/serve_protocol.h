#ifndef MJOIN_SERVE_SERVE_PROTOCOL_H_
#define MJOIN_SERVE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "net/wire.h"

namespace mjoin {

/// Which engine backend a submitted query runs on.
enum class ServeBackend : uint8_t {
  /// The in-process ThreadExecutor (shared across queries; warm pools).
  kThread = 0,
  /// The warm process-worker fleet (shared-nothing; persistent workers).
  kProcess = 1,
};

const char* ServeBackendName(ServeBackend backend);

/// Payload of a kSubmit frame: one query, client -> server. `client_seq`
/// is an opaque correlation id — the matching kQueryResult echoes it, and
/// results may return in any order (the server runs queries concurrently),
/// so a pipelining client matches on it rather than on arrival order.
struct SubmitMsg {
  uint64_t client_seq = 0;
  /// Scheduling key: queries queue FIFO per tenant and tenants are served
  /// round-robin, so one chatty tenant cannot starve the rest.
  std::string tenant;
  ServeBackend backend = ServeBackend::kThread;
  /// The parallel plan in textual XRA (the same format the process
  /// backend ships to workers).
  std::string plan_text;
  uint32_t batch_size = 256;
  /// Wall-clock budget from submission, queue time included; 0 = none.
  int64_t deadline_ms = 0;
  /// Per-query operator-memory budget, also the amount admission control
  /// reserves from the server's global budget; 0 = unmetered (admission
  /// charges a minimal placeholder).
  uint64_t memory_budget_bytes = 0;
};

template <class V, WireFieldsOf<SubmitMsg> M>
void Fields(V& v, M& m) {
  v(m.client_seq, m.tenant,
    WireEnumAs<uint8_t>(m.backend, ServeBackend::kProcess), m.plan_text,
    m.batch_size, m.deadline_ms, m.memory_budget_bytes);
}

/// Payload of a kQueryResult frame: the outcome of one kSubmit,
/// server -> client. Carries the result summary (cardinality + row-hash
/// checksum — the serving layer never materializes rows back to clients)
/// plus enough provenance to benchmark the server from the outside.
struct QueryResultMsg {
  uint64_t client_seq = 0;
  /// StatusCode of the outcome (0 = OK); `message` holds the error text.
  int32_t status_code = 0;
  std::string message;
  uint64_t cardinality = 0;
  uint64_t checksum = 0;
  /// Execution wall time (backend-measured) and time spent queued before
  /// admission, both in seconds.
  double wall_seconds = 0;
  double queue_seconds = 0;
  bool plan_cache_hit = false;
  ServeBackend backend = ServeBackend::kThread;
  /// Process-backend attempts (1 = no retry); 1 for the thread backend.
  uint32_t attempts = 1;
};

template <class V, WireFieldsOf<QueryResultMsg> M>
void Fields(V& v, M& m) {
  v(m.client_seq, m.status_code, m.message, m.cardinality, m.checksum,
    m.wall_seconds, m.queue_seconds, m.plan_cache_hit,
    WireEnumAs<uint8_t>(m.backend, ServeBackend::kProcess), m.attempts);
}

}  // namespace mjoin

#endif  // MJOIN_SERVE_SERVE_PROTOCOL_H_
