#ifndef MJOIN_EXEC_OPERATOR_H_
#define MJOIN_EXEC_OPERATOR_H_

#include <memory>

#include "common/memory_budget.h"
#include "common/stats.h"
#include "common/status.h"
#include "exec/batch.h"
#include "sim/cost_params.h"
#include "storage/schema.h"

namespace mjoin {

class EmitWriter;

/// Runtime metrics of one operation process, filled by hosts that observe
/// execution (the threaded backend) and by the operator itself via
/// Operator::CollectMetrics(). Plain fields, no synchronization: one
/// instance's callbacks all run on one thread, and hosts aggregate across
/// instances only after the workers have been joined.
struct OpMetrics {
  /// Tuples / batches received per input port (ports as in the operator:
  /// joins use [0]=build/left, [1]=probe/right).
  uint64_t rows_in[2] = {0, 0};
  uint64_t batches_in[2] = {0, 0};
  /// Tuples emitted, before routing.
  uint64_t rows_out = 0;

  /// Wall-clock seconds spent inside operator callbacks, bucketed by the
  /// kind of work the callback performed (the same work types the trace
  /// labels use). Summed over instances these are CPU-seconds, so they can
  /// exceed the query's wall time.
  double build_seconds = 0;     // hash-table build / run-buffer fill
  double probe_seconds = 0;     // probe phase, probe replay, merge phase
  double pipeline_seconds = 0;  // symmetric pipelining work, filters
  double scan_seconds = 0;      // source Produce() calls
  double emit_seconds = 0;      // aggregation output, result summary
  double other_seconds = 0;     // Open(), bookkeeping callbacks

  /// Join/aggregation hash-table detail (lifetime counters: rows ever
  /// inserted and linear-probing collisions, surviving table clears).
  uint64_t hash_table_rows = 0;
  uint64_t hash_collisions = 0;

  /// Peak operator-held memory (hash tables, run buffers), in bytes.
  size_t peak_memory_bytes = 0;

  /// Skew-defense detail (zero when the defense is off). Detection and
  /// replication are attributed to the defended join; the drop/re-route
  /// counters are attributed to the producer whose EmitWriter carried the
  /// defense (the op that *saved* the wire bytes).
  uint64_t skew_hot_keys = 0;           // hot keys detected at build time
  uint64_t skew_replicated_rows = 0;    // build rows inserted from directives
  uint64_t skew_repartitioned_rows = 0; // probe rows sprayed round-robin
  uint64_t skew_bloom_filtered_rows = 0;  // probe rows dropped pre-wire
  double skew_bloom_build_seconds = 0;  // sketch + Bloom arena scans
  /// Estimated false-positive rate of the Bloom filter this op's writer
  /// probed against (max over instances; 0 when no filter was installed).
  double skew_bloom_fp_rate = 0;

  /// Per-batch consume latency samples, in seconds.
  PercentileTracker batch_seconds;

  double busy_seconds() const {
    return build_seconds + probe_seconds + pipeline_seconds + scan_seconds +
           emit_seconds + other_seconds + skew_bloom_build_seconds;
  }

  /// Accumulates `other` into this (merging instances of one operation).
  void MergeFrom(const OpMetrics& other) {
    for (int port = 0; port < 2; ++port) {
      rows_in[port] += other.rows_in[port];
      batches_in[port] += other.batches_in[port];
    }
    rows_out += other.rows_out;
    build_seconds += other.build_seconds;
    probe_seconds += other.probe_seconds;
    pipeline_seconds += other.pipeline_seconds;
    scan_seconds += other.scan_seconds;
    emit_seconds += other.emit_seconds;
    other_seconds += other.other_seconds;
    hash_table_rows += other.hash_table_rows;
    hash_collisions += other.hash_collisions;
    peak_memory_bytes += other.peak_memory_bytes;
    skew_hot_keys += other.skew_hot_keys;
    skew_replicated_rows += other.skew_replicated_rows;
    skew_repartitioned_rows += other.skew_repartitioned_rows;
    skew_bloom_filtered_rows += other.skew_bloom_filtered_rows;
    skew_bloom_build_seconds += other.skew_bloom_build_seconds;
    if (other.skew_bloom_fp_rate > skew_bloom_fp_rate) {
      skew_bloom_fp_rate = other.skew_bloom_fp_rate;
    }
    batch_seconds.Merge(other.batch_seconds);
  }
};

/// Services an operator needs from its host (an operation process on a
/// simulated node or on a real thread): CPU-cost accounting and routed
/// output. Operators only charge their *processing* costs; the host charges
/// network send/receive and handshake costs.
class OpContext {
 public:
  virtual ~OpContext() = default;

  /// Accounts `cost` simulated CPU ticks to the current task. A no-op in
  /// the wall-clock (threaded) backend.
  virtual void Charge(Ticks cost) = 0;

  /// The instance's output channel (see exec/emit.h): every output row is
  /// built in place in its destination batch through it. Never null; the
  /// host configures it before Open() and keeps it for the instance's
  /// lifetime.
  virtual EmitWriter& emit_writer() = 0;

  /// Cost model in effect.
  virtual const CostParams& costs() const = 0;

  /// Per-query memory budget, or null when the host does not enforce one
  /// (the simulator models memory pressure its own way). Operators attach
  /// their hash tables and run buffers to it in Open().
  virtual MemoryBudget* memory_budget() const { return nullptr; }

  /// True once the query is being torn down (cancellation, deadline, an
  /// earlier error). Operators poll this at batch boundaries and inside
  /// long result loops, and drop remaining work when it fires.
  virtual bool cancelled() const { return false; }

  /// Reports a runtime failure (budget exhausted, injected fault). Hosts
  /// with an abort path stop the query and surface `status` to the caller;
  /// the default ignores it (infallible backends never call this with a
  /// non-OK status).
  virtual void ReportError(const Status& status) {}

  /// This instance's metrics sink, or null when the host does not collect
  /// metrics. Operators may add detail counters here during execution; the
  /// host owns the struct and merges it across instances after the run.
  virtual OpMetrics* metrics() const { return nullptr; }
};

/// A physical relational operator, written push-based so that both the
/// discrete-event backend and the threaded backend can drive it:
///
///   - sources (scans) implement Produce(), called repeatedly, one batch of
///     work per call, until it returns false;
///   - non-sources implement Consume()/InputDone() per input port.
///
/// The host checks finished() after every callback; when it turns true the
/// host flushes remaining output and propagates end-of-stream downstream.
class Operator {
 public:
  virtual ~Operator() = default;

  /// True for scans (no input ports, driven by Produce).
  virtual bool is_source() const { return false; }

  /// Number of input ports (0 for sources, 2 for joins, 1 otherwise).
  virtual int num_input_ports() const { return 0; }

  /// Called once before any other callback.
  virtual void Open(OpContext* ctx) {}

  /// Sources: perform one batch of work; return true while more remains.
  virtual bool Produce(OpContext* ctx) { return false; }

  /// Non-sources: consume one input batch arriving on `port`.
  virtual void Consume(int port, const TupleBatch& batch, OpContext* ctx) {}

  /// All producers of `port` have finished.
  virtual void InputDone(int port, OpContext* ctx) {}

  /// True when the operator will emit no more output.
  virtual bool finished() const = 0;

  /// Schema of emitted rows.
  virtual const std::shared_ptr<const Schema>& output_schema() const = 0;

  /// Peak extra memory held (hash tables, buffered batches), in bytes.
  virtual size_t peak_memory_bytes() const { return 0; }

  /// Extra memory currently held; drives the memory-pressure simulation
  /// (paper's disk-based discussion: joins sharing a too-small memory
  /// cause extra disk traffic).
  virtual size_t memory_bytes() const { return 0; }

  /// Drops all retained memory; called by the host when the operator
  /// finished (PRISMA frees a join's hash tables when the join completes).
  virtual void ReleaseMemory() {}

  /// Adds operator-specific detail (hash-table fill and collisions, group
  /// counts) into `metrics`. Observing hosts call this once per instance
  /// when gathering stats; implementations must *add to* the fields, not
  /// overwrite them.
  virtual void CollectMetrics(OpMetrics* metrics) const {}
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_OPERATOR_H_
