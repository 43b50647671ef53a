// WAL-shipped hot-standby replication state (DESIGN.md §18).
//
// Each durable site (the *primary*) streams its write-ahead log to one
// assigned follower site. The follower applies the redo records into a
// *shadow* SiteStore — a byte-faithful replica of the primary's store — and
// tracks how far it has applied as a ReplicationWatermark
// (store/versioning.hpp). When the failure detector suspects the primary,
// dereference work routed at it is served from the shadow instead, so
// queries keep flowing while the site is dead; answers from a shadow whose
// watermark trails the primary's last shipped offset are flagged
// (TraceSpan::replica_lag), and the reply degrades to `partial`.
//
// Protocol (wire/message.hpp):
//   follower --WalSubscribe--> primary   "stream me your WAL; I hold
//                                         (ship_epoch, wal_offset)"
//   primary  --WalSegment--->  follower  batched redo records, the byte
//                                         range [from_offset, end_offset)
//   primary  --WalCatchup--->  follower  full snapshot when tail replay is
//                                         impossible (generation rolled)
//
// The `ship_epoch` is the primary's checkpoint generation: truncating the
// WAL (SiteServer::do_checkpoint) invalidates every shipped byte offset, so
// the epoch is bumped — persisted in a `.ship` sidecar, like the summary
// boot epoch — and followers of the old generation resync via WalCatchup.
// Dedup/gap detection at the follower is positional: a segment applies only
// when its (ship_epoch, from_offset) equals the watermark; anything behind
// is a duplicate (ignored), anything else is a gap (resubscribe). All state
// here is event-loop-confined, exactly like the stores it mirrors.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "store/site_store.hpp"
#include "store/versioning.hpp"
#include "wire/codec.hpp"

namespace hyperfile {

/// Primary-side ship cursor for one subscribed follower.
struct FollowerShip {
  /// The WAL generation the follower's offsets live in. When it trails the
  /// primary's current generation the follower needs a snapshot, not a tail.
  std::uint64_t ship_epoch = 0;
  /// Byte offset of the next segment to read and ship (read_wal_segment's
  /// `from_offset`).
  std::uint64_t shipped = 0;
  /// Generation mismatch detected: ship a WalCatchup snapshot next tick
  /// instead of a tail segment.
  bool needs_catchup = true;
};

/// Follower-side state for one replicated primary.
struct ReplicaTail {
  explicit ReplicaTail(SiteId primary) : shadow(primary) {}

  /// The replica of the primary's store, rebuilt by WalCatchup snapshots
  /// and advanced record-by-record by WalSegments. Never WAL-attached and
  /// never summarised: it answers for the primary only while the primary is
  /// suspected, and must not be advertised as this site's own content.
  SiteStore shadow;
  /// How far `shadow` has applied (DESIGN.md §18).
  ReplicationWatermark watermark;
  /// The primary's last *known* (ship_epoch, WAL tail) — what
  /// ReplicationWatermark::covers() runs against when deciding whether a
  /// failover answer is exact or lagging. Necessarily trails reality by
  /// anything the primary acknowledged but never shipped.
  ReplicationWatermark primary_tail;
  /// Last segment/catchup arrival — quiet streams trigger a re-subscribe.
  std::chrono::steady_clock::time_point last_heard{};
  /// Last watermark advance; every shadow failover records its age in
  /// `dist.replica_lag_us`.
  std::chrono::steady_clock::time_point last_advance{};
  std::chrono::steady_clock::time_point last_subscribe{};
};

/// Decode and apply one shipped batch of encode_wal_record payloads into
/// `shadow`, in order. Returns how many records were applied; fails on the
/// first payload that does not decode (the shipment is corrupt — the caller
/// resyncs via WalCatchup rather than applying a prefix silently... a
/// prefix *was* applied, which is safe: re-applying from an older snapshot
/// supersedes it, and redo records are idempotent).
HF_EVENT_LOOP_ONLY Result<std::size_t> apply_segment_records(
    SiteStore& shadow, const std::vector<wire::Bytes>& records);

}  // namespace hyperfile
