// Per-site write-ahead log (DESIGN.md §13).
//
// SiteStore is a main-memory store; snapshots (store/snapshot.hpp) give it
// durability only at the instants someone saves one. The WAL closes the gap
// for crash-stop faults: every store mutation appends one redo record, so a
// site killed at any instant recovers to its last acknowledged mutation by
// reloading the latest checkpoint and replaying the log on top.
//
// File format — a sequence of self-delimiting records, reusing the wire
// codec:
//
//   record  := varint(payload_len) payload u64le(fnv1a(payload))
//   payload := u8(op) varint(next_seq) op-specific body
//
// The trailing checksum makes every record independently verifiable, which
// is what licenses the torn-tail rule: replay scans records until the first
// one that is truncated or fails its checksum, keeps everything before it,
// and reports the tail as torn. A process killed mid-append therefore loses
// at most the record it was writing — never an acknowledged one (append
// flushes to the OS before returning). Re-opening the log truncates the
// file back to the last good record so later appends extend a clean log.
//
// Checkpointing: snapshot the store (store/snapshot.hpp), persist it, then
// truncate() the log — recovery cost is then one snapshot load plus the
// records since. SiteServer drives this online (DESIGN.md §13); the WAL
// itself is policy-free.
//
// Thread safety: externally synchronized, exactly like the SiteStore it
// shadows — the distributed runtime confines both to the site's event loop.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "model/object.hpp"
#include "wire/codec.hpp"

namespace hyperfile {

/// One redo record. `next_seq` snapshots the store's id allocator after the
/// mutation, so replay can restore it monotonically (a replayed id is never
/// handed out again).
struct WalRecord {
  enum class Op : std::uint8_t {
    kPut = 1,
    kErase = 2,
    kBindSet = 3,
    /// New members appended to an existing set object: logs only the
    /// members, where a kPut would log the whole grown set again. It is
    /// positional, so replaying it is idempotent like the other ops: it
    /// applies only to a set object of exactly `set_size` tuples.
    kSetAppend = 4,
  };

  Op op = Op::kPut;
  LocalSeq next_seq = 0;
  Object object;    // kPut: full post-mutation object state
  ObjectId id;      // kErase / kBindSet / kSetAppend (the set object)
  std::string name; // kBindSet
  std::vector<ObjectId> members;  // kSetAppend
  std::uint64_t set_size = 0;     // kSetAppend: set tuples before the append

  static WalRecord put(Object obj, LocalSeq next_seq);
  static WalRecord erase(const ObjectId& id, LocalSeq next_seq);
  static WalRecord bind_set(std::string name, const ObjectId& id,
                            LocalSeq next_seq);
  static WalRecord set_append(const ObjectId& set_id, std::uint64_t set_size,
                              std::vector<ObjectId> members,
                              LocalSeq next_seq);
};

/// Encode/decode one record payload (without the length/checksum framing) —
/// exposed for tests that construct corrupt logs byte by byte.
wire::Bytes encode_wal_record(const WalRecord& rec);
Result<WalRecord> decode_wal_record(std::span<const std::uint8_t> payload);

/// Result of scanning a log file.
struct WalReplay {
  std::vector<WalRecord> records;
  /// Byte offset of the end of the last good record; everything past it is
  /// torn/corrupt tail and must be truncated before appending.
  std::uint64_t valid_bytes = 0;
  bool torn = false;
};

/// Scan the log at `path`. A missing file is an empty log, not an error;
/// a damaged tail ends the scan (WalReplay::torn) rather than failing it.
Result<WalReplay> replay_wal(const std::string& path);

/// One offset-addressed tail read of a WAL file — the shipping primitive of
/// WAL replication (DESIGN.md §18). `records` are encoded payloads (framing
/// stripped, checksums verified), ready to travel as wire::WalSegment
/// records and be decoded with decode_wal_record at the follower.
struct WalSegmentRead {
  std::vector<wire::Bytes> records;
  /// Byte offset one past the last record returned: the next read's
  /// `from_offset`, and the follower's watermark after applying.
  std::uint64_t end_offset = 0;
  /// True when the scan stopped at a torn/corrupt frame instead of a clean
  /// record boundary — also the symptom of a `from_offset` that is not a
  /// record boundary, since a misaligned scan fails its first checksum.
  bool torn = false;
};

/// Read whole records from `path` starting at byte `from_offset`, collecting
/// at most `max_bytes` of framed records per call (always at least one full
/// record when any is available, so progress never stalls on a large
/// record). `from_offset` at or past end-of-file yields an empty read.
Result<WalSegmentRead> read_wal_segment(const std::string& path,
                                        std::uint64_t from_offset,
                                        std::uint64_t max_bytes);

class WriteAheadLog {
 public:
  /// Open `path` for appending after a replay_wal() pass: the file is first
  /// truncated to `replayed.valid_bytes` so a torn tail never pollutes
  /// subsequent appends.
  static Result<WriteAheadLog> open(const std::string& path,
                                    const WalReplay& replayed);

  WriteAheadLog(WriteAheadLog&& o) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& o) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// Append one record and flush it. The mutation it describes counts as
  /// acknowledged only once this returns ok.
  HF_BLOCKING Result<void> append(const WalRecord& rec);

  /// Drop every record (the checkpoint that subsumes them is on disk).
  HF_BLOCKING Result<void> truncate();

  const std::string& path() const { return path_; }
  /// Records currently in the file (replayed + appended − truncated).
  std::uint64_t record_count() const { return record_count_; }
  std::uint64_t byte_size() const { return byte_size_; }

 private:
  WriteAheadLog(std::string path, std::FILE* f, std::uint64_t records,
                std::uint64_t bytes);

  std::string path_;
  std::FILE* f_ = nullptr;
  std::uint64_t record_count_ = 0;
  std::uint64_t byte_size_ = 0;
};

}  // namespace hyperfile
