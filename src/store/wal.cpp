#include "store/wal.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "wire/serialize.hpp"

namespace hyperfile {
namespace {

Counter& wal_appends() {
  static Counter& c = metrics().counter("store.wal_appends");
  return c;
}
Counter& wal_replayed() {
  static Counter& c = metrics().counter("store.wal_replayed");
  return c;
}

void append_u64le(wire::Bytes& bytes, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

WalRecord WalRecord::put(Object obj, LocalSeq next_seq) {
  WalRecord rec;
  rec.op = Op::kPut;
  rec.next_seq = next_seq;
  rec.id = obj.id();
  rec.object = std::move(obj);
  return rec;
}

WalRecord WalRecord::erase(const ObjectId& id, LocalSeq next_seq) {
  WalRecord rec;
  rec.op = Op::kErase;
  rec.next_seq = next_seq;
  rec.id = id;
  return rec;
}

WalRecord WalRecord::bind_set(std::string name, const ObjectId& id,
                              LocalSeq next_seq) {
  WalRecord rec;
  rec.op = Op::kBindSet;
  rec.next_seq = next_seq;
  rec.id = id;
  rec.name = std::move(name);
  return rec;
}

WalRecord WalRecord::set_append(const ObjectId& set_id, std::uint64_t set_size,
                                std::vector<ObjectId> members,
                                LocalSeq next_seq) {
  WalRecord rec;
  rec.op = Op::kSetAppend;
  rec.next_seq = next_seq;
  rec.id = set_id;
  rec.set_size = set_size;
  rec.members = std::move(members);
  return rec;
}

wire::Bytes encode_wal_record(const WalRecord& rec) {
  wire::Encoder e;
  e.u8(static_cast<std::uint8_t>(rec.op));
  e.varint(rec.next_seq);
  switch (rec.op) {
    case WalRecord::Op::kPut:
      wire::encode(e, rec.object);
      break;
    case WalRecord::Op::kErase:
      wire::encode(e, rec.id);
      break;
    case WalRecord::Op::kBindSet:
      e.string(rec.name);
      wire::encode(e, rec.id);
      break;
    case WalRecord::Op::kSetAppend:
      wire::encode(e, rec.id);
      e.varint(rec.set_size);
      e.varint(rec.members.size());
      for (const ObjectId& m : rec.members) wire::encode(e, m);
      break;
  }
  return e.take();
}

Result<WalRecord> decode_wal_record(std::span<const std::uint8_t> payload) {
  wire::Decoder d(payload);
  auto op = d.u8();
  if (!op.ok()) return op.error();
  auto next_seq = d.varint();
  if (!next_seq.ok()) return next_seq.error();
  WalRecord rec;
  rec.next_seq = next_seq.value();
  switch (op.value()) {
    case static_cast<std::uint8_t>(WalRecord::Op::kPut): {
      rec.op = WalRecord::Op::kPut;
      auto obj = wire::decode_object(d);
      if (!obj.ok()) return obj.error();
      rec.id = obj.value().id();
      rec.object = std::move(obj).value();
      break;
    }
    case static_cast<std::uint8_t>(WalRecord::Op::kErase): {
      rec.op = WalRecord::Op::kErase;
      auto id = wire::decode_object_id(d);
      if (!id.ok()) return id.error();
      rec.id = id.value();
      break;
    }
    case static_cast<std::uint8_t>(WalRecord::Op::kBindSet): {
      rec.op = WalRecord::Op::kBindSet;
      auto name = d.string();
      if (!name.ok()) return name.error();
      auto id = wire::decode_object_id(d);
      if (!id.ok()) return id.error();
      rec.name = std::move(name).value();
      rec.id = id.value();
      break;
    }
    case static_cast<std::uint8_t>(WalRecord::Op::kSetAppend): {
      rec.op = WalRecord::Op::kSetAppend;
      auto id = wire::decode_object_id(d);
      if (!id.ok()) return id.error();
      rec.id = id.value();
      auto set_size = d.varint();
      if (!set_size.ok()) return set_size.error();
      rec.set_size = set_size.value();
      auto n = d.varint();
      if (!n.ok()) return n.error();
      if (n.value() > d.remaining()) {
        return make_error(Errc::kDecode, "set-append length exceeds input");
      }
      rec.members.reserve(static_cast<std::size_t>(n.value()));
      for (std::uint64_t i = 0; i < n.value(); ++i) {
        auto m = wire::decode_object_id(d);
        if (!m.ok()) return m.error();
        rec.members.push_back(m.value());
      }
      break;
    }
    default:
      return make_error(Errc::kDecode, "unknown WAL record op");
  }
  if (!d.done()) return make_error(Errc::kDecode, "trailing WAL record bytes");
  return rec;
}

Result<WalReplay> replay_wal(const std::string& path) {
  WalReplay out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return out;  // no log yet — empty, not an error
    return make_error(Errc::kIo, "cannot open WAL '" + path + "' for reading");
  }
  wire::Bytes bytes;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return make_error(Errc::kIo, "read error on WAL '" + path + "'");
  }

  // Scan record by record; the first frame that is truncated, fails its
  // checksum, or does not decode ends the scan as a torn tail. Everything
  // before it is good and keeps `valid_bytes` advancing.
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    wire::Decoder d(std::span<const std::uint8_t>(bytes).subspan(pos));
    auto len = d.varint();
    if (!len.ok()) break;
    const std::size_t header = bytes.size() - pos - d.remaining();
    if (len.value() > d.remaining() || d.remaining() - len.value() < 8) break;
    const auto payload =
        std::span<const std::uint8_t>(bytes).subspan(pos + header,
                                                     len.value());
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<std::uint64_t>(
                    bytes[pos + header + len.value() + i])
                << (8 * i);
    }
    if (fnv1a(payload.data(), payload.size()) != stored) break;
    auto rec = decode_wal_record(payload);
    if (!rec.ok()) break;
    out.records.push_back(std::move(rec).value());
    pos += header + static_cast<std::size_t>(len.value()) + 8;
  }
  out.valid_bytes = pos;
  out.torn = pos != bytes.size();
  wal_replayed().inc(out.records.size());
  return out;
}

Result<WalSegmentRead> read_wal_segment(const std::string& path,
                                        std::uint64_t from_offset,
                                        std::uint64_t max_bytes) {
  WalSegmentRead out;
  out.end_offset = from_offset;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return out;  // no log yet — empty, not an error
    return make_error(Errc::kIo, "cannot open WAL '" + path + "' for reading");
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return make_error(Errc::kIo, "cannot seek WAL '" + path + "'");
  }
  const auto file_size = static_cast<std::uint64_t>(std::ftell(f));
  if (from_offset >= file_size) {
    std::fclose(f);
    return out;  // caller's cursor is at (or past) the tail: nothing new
  }
  if (std::fseek(f, static_cast<long>(from_offset), SEEK_SET) != 0) {
    std::fclose(f);
    return make_error(Errc::kIo, "cannot seek WAL '" + path + "'");
  }
  wire::Bytes bytes;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return make_error(Errc::kIo, "read error on WAL '" + path + "'");
  }

  // Same frame scan as replay_wal, but collecting raw payloads and bounded
  // by max_bytes of framed records. Stopping for the size budget is a clean
  // partial read; stopping at a bad frame is a torn tail.
  std::size_t pos = 0;
  std::uint64_t framed = 0;
  bool clean_stop = false;
  while (pos < bytes.size()) {
    wire::Decoder d(std::span<const std::uint8_t>(bytes).subspan(pos));
    auto len = d.varint();
    if (!len.ok()) break;
    const std::size_t header = bytes.size() - pos - d.remaining();
    if (len.value() > d.remaining() || d.remaining() - len.value() < 8) break;
    const std::size_t frame_size =
        header + static_cast<std::size_t>(len.value()) + 8;
    if (!out.records.empty() && framed + frame_size > max_bytes) {
      clean_stop = true;  // budget reached on a record boundary
      break;
    }
    const auto payload =
        std::span<const std::uint8_t>(bytes).subspan(pos + header,
                                                     len.value());
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<std::uint64_t>(
                    bytes[pos + header + len.value() + i])
                << (8 * i);
    }
    if (fnv1a(payload.data(), payload.size()) != stored) break;
    out.records.emplace_back(payload.begin(), payload.end());
    pos += frame_size;
    framed += frame_size;
  }
  out.end_offset = from_offset + pos;
  out.torn = !clean_stop && pos != bytes.size();
  return out;
}

WriteAheadLog::WriteAheadLog(std::string path, std::FILE* f,
                             std::uint64_t records, std::uint64_t bytes)
    : path_(std::move(path)), f_(f), record_count_(records),
      byte_size_(bytes) {}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& o) noexcept
    : path_(std::move(o.path_)), f_(o.f_), record_count_(o.record_count_),
      byte_size_(o.byte_size_) {
  o.f_ = nullptr;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& o) noexcept {
  if (this != &o) {
    if (f_ != nullptr) std::fclose(f_);
    path_ = std::move(o.path_);
    f_ = o.f_;
    record_count_ = o.record_count_;
    byte_size_ = o.byte_size_;
    o.f_ = nullptr;
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() {
  if (f_ != nullptr) std::fclose(f_);
}

Result<WriteAheadLog> WriteAheadLog::open(const std::string& path,
                                          const WalReplay& replayed) {
  // Trim any torn tail first so appends extend a clean log. ::truncate on a
  // missing file fails with ENOENT, which is fine — the "ab" open creates it.
  if (::truncate(path.c_str(), static_cast<off_t>(replayed.valid_bytes)) !=
          0 &&
      errno != ENOENT) {
    return make_error(Errc::kIo, "cannot trim WAL '" + path + "': " +
                                     std::strerror(errno));
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return make_error(Errc::kIo, "cannot open WAL '" + path + "' for append");
  }
  return WriteAheadLog(path, f, replayed.records.size(),
                       replayed.valid_bytes);
}

Result<void> WriteAheadLog::append(const WalRecord& rec) {
  wire::Bytes payload = encode_wal_record(rec);
  wire::Encoder header;
  header.varint(payload.size());
  wire::Bytes frame = header.take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  append_u64le(frame, fnv1a(payload.data(), payload.size()));
  const std::size_t written = std::fwrite(frame.data(), 1, frame.size(), f_);
  if (written != frame.size() || std::fflush(f_) != 0) {
    return make_error(Errc::kIo, "short write to WAL '" + path_ + "'");
  }
  ++record_count_;
  byte_size_ += frame.size();
  wal_appends().inc();
  return {};
}

Result<void> WriteAheadLog::truncate() {
  // freopen("wb") both empties the file and repositions the stream.
  std::FILE* f = std::freopen(path_.c_str(), "wb", f_);
  if (f == nullptr) {
    f_ = nullptr;  // freopen failure closes the original stream
    return make_error(Errc::kIo, "cannot truncate WAL '" + path_ + "'");
  }
  f_ = f;
  record_count_ = 0;
  byte_size_ = 0;
  return {};
}

}  // namespace hyperfile
