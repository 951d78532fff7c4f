#ifndef MJOIN_NET_WIRE_H_
#define MJOIN_NET_WIRE_H_

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "common/string_util.h"
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
/// v8: scans read the base relations each worker inherited at fork — the
///     coordinator -> worker relay rings and the shm fragment record are
///     gone; kNetStats carries the peak ring backlog.
/// v9: one report per worker per query — kReport (WorkerReport) replaces
///     kSummary, kOpStats, kNetStats, kTraceEvents and the worker's kBye;
///     kBye is the serve-layer close notice only.
/// v10: one end-of-query exchange — kReport parks the worker and returns
///     its link to await-plan; kIdle is retired and kShutdown is legal
///     only on a parked link (the fleet's teardown).
/// v11: one run ledger — WorkerReport carries the result's own types,
///     ResultSummary, QueryStats (per-op stats in it) and ProcessNetStats,
///     in place of their wire copies. The frame table is unchanged.
inline constexpr uint32_t kNetProtocolVersion = 11;

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) over `size` bytes.
uint32_t Crc32(const std::byte* data, size_t size);

/// Little-endian primitive append/read helpers for the frame envelope and
/// the batch codec. Writers append to a byte vector; WireReader consumes a
/// byte span with bounds checking, so a truncated or malformed payload
/// surfaces as a Status instead of UB. Message payloads never call these
/// directly: they go through EncodeMsg/DecodeMsg below (mjoin_lint's
/// wire-primitive check enforces this outside src/net/).
void PutU8(std::vector<std::byte>* out, uint8_t v);
void PutU16(std::vector<std::byte>* out, uint16_t v);
void PutU32(std::vector<std::byte>* out, uint32_t v);
void PutU64(std::vector<std::byte>* out, uint64_t v);
void PutString(std::vector<std::byte>* out, const std::string& s);

class WireReader {
 public:
  WireReader(const std::byte* data, size_t size) : data_(data), end_(size) {}
  explicit WireReader(const std::vector<std::byte>& buf)
      : WireReader(buf.data(), buf.size()) {}

  size_t remaining() const { return end_ - pos_; }
  bool exhausted() const { return pos_ == end_; }
  const std::byte* cursor() const { return data_ + pos_; }

  [[nodiscard]] Status ReadU16(uint16_t* v);
  [[nodiscard]] Status ReadU32(uint32_t* v);
  [[nodiscard]] Status ReadString(std::string* s);
  /// Advances past `size` raw bytes, exposing them via `*data`.
  [[nodiscard]] Status ReadBytes(size_t size, const std::byte** data);

 private:
  const std::byte* data_;
  size_t pos_ = 0;
  size_t end_;
};

// --- Message schemas -------------------------------------------------------
//
// Every control payload (engine/process_protocol.h, serve/serve_protocol.h)
// is a struct with one field list that names its fields in wire order:
//
//   template <class V, WireFieldsOf<HelloMsg> M>
//   void Fields(V& v, M& m) {
//     v(m.protocol_version, m.plan_hash, m.ring_directory_hash);
//   }
//
// MessageWriter walks the list over a const message and MessageReader over
// a mutable one, so the encoder and decoder cannot drift apart. Each field
// kind has one encoding, all little-endian:
//
//   bool             one byte, 0 or 1
//   integer          sizeof(T) bytes (size_t travels as u64)
//   double           its IEEE-754 bits as a u64
//   std::string      u32 length, then the bytes
//   std::vector<T>   u32 count, then the elements
//   WireEnumAs<W>    the enumerator's value as a W
//   a struct         its own field list, inline
//   v.Checksum()     u32 CRC-32 over the message's bytes before it
//
// DecodeMsg owns every validation rule, the same for every message:
//   - a vector's count times its element's smallest wire size must fit in
//     the bytes that remain before anything is reserved (OutOfRange);
//   - a bool byte must be 0 or 1, and an enum code must lie in 0..max, the
//     max named in the field list (InvalidArgument);
//   - a checksum must match, and no byte may trail the last field
//     (InvalidArgument);
//   - then a message's cross-field rules, when it defines
//     `Status CheckFields(const M&)`, run once on the decoded fields.

static_assert(sizeof(size_t) == sizeof(uint64_t),
              "size_t message fields travel as u64");

/// True when `M` is `T` or `const T`: lets one Fields function serve both
/// the writer (const messages) and the reader.
template <class M, class T>
concept WireFieldsOf = std::same_as<std::remove_const_t<M>, T>;

/// An enum field that travels as the integer type `Wire` and decodes only
/// in [0, max]. Build it with WireEnumAs<Wire>(field, max).
template <class Wire, class E>
struct WireEnum {
  E& value;
  std::remove_const_t<E> max;
};

template <class Wire, class E>
WireEnum<Wire, E> WireEnumAs(E& value, std::remove_const_t<E> max) {
  return {value, max};
}

template <class T>
inline constexpr bool kWireByte =
    std::is_same_v<T, std::byte> || std::is_same_v<T, uint8_t>;

/// Appends one message's fields to a byte vector.
class MessageWriter {
 public:
  explicit MessageWriter(std::vector<std::byte>* out)
      : out_(out), start_(out->size()) {}

  template <class... T>
  void operator()(const T&... fields) {
    (Write(fields), ...);
  }
  void Checksum() {
    Write(Crc32(out_->data() + start_, out_->size() - start_));
  }

 private:
  template <class T>
  void Write(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      Write(static_cast<uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_same_v<T, std::byte>) {
      out_->push_back(v);
    } else if constexpr (std::is_same_v<T, double>) {
      Write(std::bit_cast<uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      const auto bits = static_cast<std::make_unsigned_t<T>>(v);
      for (size_t i = 0; i < sizeof(T); ++i) {
        out_->push_back(static_cast<std::byte>(
            static_cast<uint8_t>(bits >> (8 * i))));
      }
    } else {
      Fields(*this, v);
    }
  }
  template <class Wire, class E>
  void Write(const WireEnum<Wire, E>& e) {
    Write(static_cast<Wire>(e.value));
  }
  void Write(const std::string& s) { PutString(out_, s); }
  template <class T>
  void Write(const std::vector<T>& v) {
    Write(static_cast<uint32_t>(v.size()));
    if constexpr (kWireByte<T>) {
      const auto* p = reinterpret_cast<const std::byte*>(v.data());
      out_->insert(out_->end(), p, p + v.size());
    } else {
      for (const T& e : v) Write(e);
    }
  }

  std::vector<std::byte>* out_;
  size_t start_;
};

/// The smallest encoding of a `T`: that of a default-constructed one, whose
/// strings and vectors are empty.
template <class T>
size_t MinWireBytes() {
  static const size_t bytes = [] {
    std::vector<std::byte> out;
    MessageWriter writer(&out);
    writer(T{});
    return out.size();
  }();
  return bytes;
}

/// Decodes one message's fields from a WireReader. The first failure is
/// kept and turns every later field into a no-op, so a field list needs no
/// error handling of its own.
class MessageReader {
 public:
  explicit MessageReader(WireReader* in) : in_(in), start_(in->cursor()) {}

  const Status& status() const { return status_; }
  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }

  template <class... T>
  void operator()(T&&... fields) {
    (Read(fields), ...);
  }
  void Checksum();

 private:
  template <class T>
  void Read(T& v) {
    if (!status_.ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t byte = 0;
      Read(byte);
      if (byte > 1) {
        Fail(Status::InvalidArgument(
            StrCat("bool byte ", int{byte}, " is not 0 or 1")));
      }
      v = byte == 1;
    } else if constexpr (std::is_same_v<T, double>) {
      uint64_t bits = 0;
      Read(bits);
      v = std::bit_cast<double>(bits);
    } else if constexpr (std::is_integral_v<T>) {
      const std::byte* p = nullptr;
      if (!Take(sizeof(T), &p)) return;
      std::make_unsigned_t<T> bits = 0;
      for (size_t i = sizeof(T); i-- > 0;) {
        bits = static_cast<std::make_unsigned_t<T>>(
            (bits << 8) | static_cast<uint8_t>(p[i]));
      }
      v = static_cast<T>(bits);
    } else {
      Fields(*this, v);
    }
  }
  template <class Wire, class E>
  void Read(WireEnum<Wire, E>& e) {
    Wire raw{};
    Read(raw);
    if (!status_.ok()) return;
    const auto max = static_cast<std::underlying_type_t<E>>(e.max);
    if (std::cmp_less(raw, 0) || std::cmp_greater(raw, max)) {
      Fail(Status::InvalidArgument(
          StrCat("enum code ", +raw, " is outside 0..", +max)));
      return;
    }
    e.value = static_cast<E>(raw);
  }
  void Read(std::string& s);
  template <class T>
  void Read(std::vector<T>& v) {
    uint32_t count = 0;
    Read(count);
    if (!status_.ok()) return;
    const size_t min_bytes = MinWireBytes<T>();
    if (count * min_bytes > in_->remaining()) {
      Fail(Status::OutOfRange(StrCat("payload claims ", count,
                                     " elements of at least ", min_bytes,
                                     " bytes but only ", in_->remaining(),
                                     " remain")));
      return;
    }
    v.clear();
    if constexpr (kWireByte<T>) {
      const std::byte* p = nullptr;
      if (!Take(count, &p)) return;
      v.assign(reinterpret_cast<const T*>(p),
               reinterpret_cast<const T*>(p) + count);
    } else {
      v.reserve(count);
      for (uint32_t i = 0; i < count && status_.ok(); ++i) {
        Read(v.emplace_back());
      }
    }
  }
  /// Advances past `size` bytes; false (and failed) when they are missing.
  bool Take(size_t size, const std::byte** data);

  WireReader* in_;
  const std::byte* start_;
  Status status_;
};

/// Appends the encoding of `msg` to `out`.
template <class M>
void EncodeMsg(const M& msg, std::vector<std::byte>* out) {
  MessageWriter writer(out);
  writer(msg);
}

/// Decodes `*msg` from the whole of what `in` has left: every rule in the
/// schema comment above applies.
template <class M>
[[nodiscard]] Status DecodeMsg(WireReader* in, M* msg) {
  MessageReader reader(in);
  reader(*msg);
  MJOIN_RETURN_IF_ERROR(reader.status());
  if (!in->exhausted()) {
    return Status::InvalidArgument(
        StrCat(in->remaining(), " trailing bytes after the message"));
  }
  if constexpr (requires { CheckFields(*msg); }) return CheckFields(*msg);
  return Status::OK();
}

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
