#include "net/wire.h"


#include "common/string_util.h"
#include "xra/plan.h"

namespace mjoin {

namespace {

/// CRC-32 lookup table for the IEEE polynomial, built on first use.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
    return entries;
  }();
  return table;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_NAME_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                              \
    return wire;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_NAME_ROW)
#undef MJOIN_FRAME_NAME_ROW
  }
  return "unknown";
}

bool ValidFrameType(uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
#define MJOIN_FRAME_VALID_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                               \
    return true;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_VALID_ROW)
#undef MJOIN_FRAME_VALID_ROW
  }
  return false;
}

uint32_t FrameDirs(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_DIRS_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                              \
    return dirs;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_DIRS_ROW)
#undef MJOIN_FRAME_DIRS_ROW
  }
  return 0;
}

uint32_t FramePhases(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_PHASES_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                                \
    return phases;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_PHASES_ROW)
#undef MJOIN_FRAME_PHASES_ROW
  }
  return 0;
}

// `next` is a bare phase token (or Keep); map it through these constants.
namespace {
inline constexpr uint32_t kPhNextKeep = kPhKeep;
inline constexpr uint32_t kPhNextAwaitPlan = kPhAwaitPlan;
inline constexpr uint32_t kPhNextHandshake = kPhHandshake;
inline constexpr uint32_t kPhNextExecute = kPhExecute;
inline constexpr uint32_t kPhNextReport = kPhReport;
inline constexpr uint32_t kPhNextDone = kPhDone;
}  // namespace

uint32_t FrameNextPhase(FrameType type) {
  switch (type) {
#define MJOIN_FRAME_NEXT_ROW(id, name, wire, klass, dirs, phases, next) \
  case FrameType::k##name:                                              \
    return kPhNext##next;
    MJOIN_FRAME_TABLE(MJOIN_FRAME_NEXT_ROW)
#undef MJOIN_FRAME_NEXT_ROW
  }
  return kPhKeep;
}

uint32_t Crc32(const std::byte* data, size_t size) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFF'FFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<uint8_t>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFF'FFFFu;
}

void PutU8(std::vector<std::byte>* out, uint8_t v) {
  out->push_back(static_cast<std::byte>(v));
}

void PutU16(std::vector<std::byte>* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<std::byte>* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    PutU8(out, static_cast<uint8_t>(v >> shift));
  }
}

void PutU64(std::vector<std::byte>* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    PutU8(out, static_cast<uint8_t>(v >> shift));
  }
}

void PutString(std::vector<std::byte>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  const std::byte* data = reinterpret_cast<const std::byte*>(s.data());
  out->insert(out->end(), data, data + s.size());
}

Status WireReader::ReadBytes(size_t size, const std::byte** data) {
  if (remaining() < size) {
    return Status::OutOfRange(
        StrCat("wire payload truncated: need ", size, " bytes, have ",
               remaining()));
  }
  *data = data_ + pos_;
  pos_ += size;
  return Status::OK();
}

Status WireReader::ReadU16(uint16_t* v) {
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(2, &p));
  *v = static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                             static_cast<uint16_t>(static_cast<uint8_t>(p[1]))
                                 << 8);
  return Status::OK();
}

Status WireReader::ReadU32(uint32_t* v) {
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(4, &p));
  uint32_t out = 0;
  for (int i = 3; i >= 0; --i) {
    out = (out << 8) | static_cast<uint8_t>(p[i]);
  }
  *v = out;
  return Status::OK();
}

Status WireReader::ReadString(std::string* s) {
  uint32_t size;
  MJOIN_RETURN_IF_ERROR(ReadU32(&size));
  const std::byte* p;
  MJOIN_RETURN_IF_ERROR(ReadBytes(size, &p));
  s->assign(reinterpret_cast<const char*>(p), size);
  return Status::OK();
}

bool MessageReader::Take(size_t size, const std::byte** data) {
  if (!status_.ok()) return false;
  Fail(in_->ReadBytes(size, data));
  return status_.ok();
}

void MessageReader::Read(std::string& s) {
  if (status_.ok()) Fail(in_->ReadString(&s));
}

void MessageReader::Checksum() {
  const size_t covered = static_cast<size_t>(in_->cursor() - start_);
  uint32_t crc = 0;
  Read(crc);
  if (status_.ok() && crc != Crc32(start_, covered)) {
    Fail(Status::InvalidArgument("message checksum mismatch"));
  }
}

SchemaRegistry::SchemaRegistry(const ParallelPlan& plan) {
  for (const XraOp& op : plan.ops) {
    Intern(op.input_schema);
    Intern(op.output_schema);
  }
}

void SchemaRegistry::Intern(const std::shared_ptr<const Schema>& schema) {
  if (schema == nullptr) return;
  for (const auto& known : schemas_) {
    if (*known == *schema) return;
  }
  schemas_.push_back(schema);
}

StatusOr<uint32_t> SchemaRegistry::IdOf(const Schema& schema) const {
  for (size_t i = 0; i < schemas_.size(); ++i) {
    if (*schemas_[i] == schema) return static_cast<uint32_t>(i);
  }
  return Status::NotFound(
      StrCat("schema not declared by the plan: ", schema.ToString()));
}

size_t BatchWireSize(uint32_t tuple_size, size_t count) {
  // magic + version + flags + schema_id + tuple_size + num_tuples + rows
  // + crc.
  return 4 + 2 + 2 + 4 + 4 + 4 + count * tuple_size + 4;
}

void AppendRowsWire(uint32_t schema_id, uint32_t tuple_size,
                    const std::byte* rows, size_t count,
                    std::vector<std::byte>* out) {
  size_t start = out->size();
  out->reserve(start + BatchWireSize(tuple_size, count));
  PutU32(out, kBatchWireMagic);
  PutU16(out, kBatchWireVersion);
  PutU16(out, 0);  // flags
  PutU32(out, schema_id);
  PutU32(out, tuple_size);
  PutU32(out, static_cast<uint32_t>(count));
  out->insert(out->end(), rows, rows + count * tuple_size);
  PutU32(out, Crc32(out->data() + start, out->size() - start));
}

void AppendBatchWire(const TupleBatch& batch, uint32_t schema_id,
                     std::vector<std::byte>* out) {
  AppendRowsWire(schema_id, batch.schema().tuple_size(), batch.raw_data(),
                 batch.num_tuples(), out);
}

Status ReadBatchWire(WireReader* reader, const SchemaRegistry& registry,
                     TupleBatch* out) {
  const std::byte* start = reader->cursor();
  uint32_t magic, schema_id, tuple_size, num_tuples;
  uint16_t version, flags;
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&magic));
  if (magic != kBatchWireMagic) {
    return Status::InvalidArgument(
        StrCat("batch wire magic mismatch: got ", magic));
  }
  MJOIN_RETURN_IF_ERROR(reader->ReadU16(&version));
  if (version != kBatchWireVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported batch wire version ", version));
  }
  MJOIN_RETURN_IF_ERROR(reader->ReadU16(&flags));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&schema_id));
  if (schema_id >= registry.size()) {
    return Status::InvalidArgument(
        StrCat("batch schema id ", schema_id, " out of range (",
               registry.size(), " schemas)"));
  }
  const std::shared_ptr<const Schema>& schema = registry.Get(schema_id);
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&tuple_size));
  if (tuple_size != schema->tuple_size()) {
    return Status::InvalidArgument(
        StrCat("batch tuple size ", tuple_size, " disagrees with schema ",
               schema_id, " (", schema->tuple_size(), " bytes)"));
  }
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&num_tuples));
  const std::byte* rows;
  MJOIN_RETURN_IF_ERROR(
      reader->ReadBytes(static_cast<size_t>(num_tuples) * tuple_size, &rows));
  uint32_t crc;
  size_t covered = static_cast<size_t>(reader->cursor() - start);
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&crc));
  uint32_t actual = Crc32(start, covered);
  if (crc != actual) {
    return Status::InvalidArgument(StrCat("batch CRC mismatch: frame says ",
                                          crc, ", payload hashes to ",
                                          actual));
  }
  out->ResetSchema(schema);
  out->AppendRows(rows, num_tuples);
  return Status::OK();
}

}  // namespace mjoin
