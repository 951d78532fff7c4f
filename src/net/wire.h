#ifndef MJOIN_NET_WIRE_H_
#define MJOIN_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "exec/batch.h"
#include "net/frame_table.h"
#include "storage/schema.h"

namespace mjoin {

struct ParallelPlan;

/// The process backend's frame protocol. Every message on a coordinator <->
/// worker socket is one frame:
///
///   u32  length   (bytes that follow: 1 type byte + payload + 4 crc bytes)
///   u8   type     (FrameType)
///   ...  payload  (type-specific, little-endian)
///   u32  crc32    over the type byte and the payload
///
/// Frames are self-delimiting, so a FrameChannel can reassemble them from
/// arbitrary read() boundaries. `length` is bounded by kMaxFrameBytes; an
/// out-of-bounds length or a checksum mismatch is corrupt wire — the
/// channel poisons itself with kUnavailable (an environmental failure: the
/// stream is unrecoverable, but retrying on a fresh fleet may succeed).
/// The trailer makes any single corrupted byte detectable, so a damaged
/// link can never silently mis-route or mis-decode a frame.
///
/// The enum is generated from MJOIN_FRAME_TABLE (net/frame_table.h), the
/// protocol's single definition site: per-frame documentation, directions,
/// and phase rules all live in the table rows.
enum class FrameType : uint8_t {
#define MJOIN_FRAME_ENUM_ROW(id, name, wire, klass, dirs, phases, next) \
  k##name = id,
  MJOIN_FRAME_TABLE(MJOIN_FRAME_ENUM_ROW)
#undef MJOIN_FRAME_ENUM_ROW
};

const char* FrameTypeName(FrameType type);

/// True when `raw` is a FrameType the table defines. The channel rejects
/// frames whose type byte is not in the table as corrupt wire, so a
/// handler switch can never be reached with an out-of-enum value.
bool ValidFrameType(uint8_t raw);

/// Table lookups for the conformance checker: the directions a frame may
/// legally travel (FrameDir mask), the link phases it may be observed in
/// (FramePhase mask), and the phase it advances the link to (kPhKeep when
/// it leaves the phase alone).
uint32_t FrameDirs(FrameType type);
uint32_t FramePhases(FrameType type);
uint32_t FrameNextPhase(FrameType type);

/// Hard upper bound on one frame's length field. Generous (a skew report
/// carries its candidate build rows inline) but small enough that a
/// corrupted length cannot drive a multi-gigabyte allocation.
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;

/// Protocol version spoken by this build; bumped on any wire change.
/// v2: kPing/kPong heartbeat frames, PlanEnvelope attempt counter.
/// v3: shm data plane — PlanEnvelope ships the ring configuration, kHello
///     echoes the ring-directory hash, kNetStats carries shm counters.
/// v4: warm fleets and the serving layer — PlanEnvelope `persistent` flag,
///     kIdle end-of-query ack, kSubmit/kQueryResult serve frames.
/// v5: skew defense — PlanEnvelope ships SkewDefenseOptions, kOpStats
///     carries the skew counters, kSkewReport/kSkewDirective frames.
/// v6: one data plane — the socket data frames (fragment, data, eos,
///     credit, result-rows) are retired; PlanEnvelope drops the plane
///     switch and the credit window, kNetStats drops data_frames_sent.
/// v7: one fleet lifecycle — PlanEnvelope drops the `persistent` flag;
///     every worker acks each query's kShutdown with kIdle and parks, and
///     a bare kShutdown while parked exits it.
inline constexpr uint32_t kNetProtocolVersion = 7;

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) over `size` bytes.
uint32_t Crc32(const std::byte* data, size_t size);

/// Little-endian primitive append/read helpers. Writers append to a byte
/// vector; WireReader consumes a byte span with bounds checking, so a
/// truncated or malformed payload surfaces as a Status instead of UB.
void PutU8(std::vector<std::byte>* out, uint8_t v);
void PutU16(std::vector<std::byte>* out, uint16_t v);
void PutU32(std::vector<std::byte>* out, uint32_t v);
void PutU64(std::vector<std::byte>* out, uint64_t v);
void PutI32(std::vector<std::byte>* out, int32_t v);
void PutI64(std::vector<std::byte>* out, int64_t v);
void PutF64(std::vector<std::byte>* out, double v);
void PutString(std::vector<std::byte>* out, const std::string& s);

class WireReader {
 public:
  WireReader(const std::byte* data, size_t size) : data_(data), end_(size) {}
  explicit WireReader(const std::vector<std::byte>& buf)
      : WireReader(buf.data(), buf.size()) {}

  size_t remaining() const { return end_ - pos_; }
  bool exhausted() const { return pos_ == end_; }
  const std::byte* cursor() const { return data_ + pos_; }

  [[nodiscard]] Status ReadU8(uint8_t* v);
  [[nodiscard]] Status ReadU16(uint16_t* v);
  [[nodiscard]] Status ReadU32(uint32_t* v);
  [[nodiscard]] Status ReadU64(uint64_t* v);
  [[nodiscard]] Status ReadI32(int32_t* v);
  [[nodiscard]] Status ReadI64(int64_t* v);
  [[nodiscard]] Status ReadF64(double* v);
  [[nodiscard]] Status ReadString(std::string* s);
  /// Advances past `size` raw bytes, exposing them via `*data`.
  [[nodiscard]] Status ReadBytes(size_t size, const std::byte** data);

 private:
  const std::byte* data_;
  size_t pos_ = 0;
  size_t end_;
};

/// Deterministic structural interning of every schema a plan can put on
/// the wire. Coordinator and workers build their registry from the same
/// plan (the worker from the handshake's parsed text), visiting ops in
/// plan order, so a schema id means the same row layout on both ends — the
/// wire format's schema check rests on this.
class SchemaRegistry {
 public:
  explicit SchemaRegistry(const ParallelPlan& plan);

  size_t size() const { return schemas_.size(); }
  const std::shared_ptr<const Schema>& Get(uint32_t id) const {
    return schemas_[id];
  }
  /// Id of a structurally equal schema; NotFound when the plan never
  /// declared this layout.
  [[nodiscard]] StatusOr<uint32_t> IdOf(const Schema& schema) const;

 private:
  void Intern(const std::shared_ptr<const Schema>& schema);

  std::vector<std::shared_ptr<const Schema>> schemas_;
};

/// TupleBatch wire format: a self-checking serialization of one batch.
/// The process backend moves batches over the shm rings instead (raw rows
/// behind a fixed header, engine/process_protocol.h); this codec is kept
/// as the portable format the net benchmarks measure:
///
///   u32  magic      'MJTB' (0x4254'4A4D little-endian on the wire)
///   u16  version    kBatchWireVersion
///   u16  flags      0 (reserved)
///   u32  schema_id  index into the run's SchemaRegistry
///   u32  tuple_size redundant with schema_id; cross-checked on decode
///   u32  num_tuples
///   ...  rows       num_tuples * tuple_size bytes, the batch's raw bytes
///   u32  crc32      over everything from magic through the last row byte
///
/// Decoding validates magic, version, schema id, the tuple-size agreement,
/// the byte count, and the CRC; any mismatch is an error, never a partial
/// batch.
inline constexpr uint32_t kBatchWireMagic = 0x4254'4A4Du;  // "MJTB"
inline constexpr uint16_t kBatchWireVersion = 1;

/// Appends the wire encoding of `count` rows of `tuple_size` bytes each.
void AppendRowsWire(uint32_t schema_id, uint32_t tuple_size,
                    const std::byte* rows, size_t count,
                    std::vector<std::byte>* out);

/// Appends the wire encoding of a whole batch.
void AppendBatchWire(const TupleBatch& batch, uint32_t schema_id,
                     std::vector<std::byte>* out);

/// Bytes AppendRowsWire will produce for `count` rows of `tuple_size`.
size_t BatchWireSize(uint32_t tuple_size, size_t count);

/// Decodes one batch from `reader` into `out`, which must be bound to the
/// decoded schema id's layout already or is rebound via `registry`. The
/// batch's previous contents are discarded; its buffer capacity survives.
[[nodiscard]] Status ReadBatchWire(WireReader* reader,
                                   const SchemaRegistry& registry,
                     TupleBatch* out);

}  // namespace mjoin

#endif  // MJOIN_NET_WIRE_H_
