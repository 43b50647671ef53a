// Protocol messages of the distributed query processor (paper Section 3.2).
//
// The protocol is deliberately tiny:
//   * DerefRequest — "process object O for query Q, starting at filter
//     O.start". Carries Q.id, Q.originator, Q.body, Q.size (the query is
//     resent whole on every message, exactly as the paper describes; the
//     receiving site installs a context the first time and ignores the body
//     afterwards) plus O.id, O.start, O.iter# and a termination weight. The
//     body travels as a QueryBody: the encoded query, length-prefixed,
//     which decode_message copies without parsing. A site parses it once,
//     when it installs the query's context, and forwards the same bytes.
//   * StartQuery — originator fans a query out to sites that hold portions
//     of a *distributed set* (the Section 5 optimisation), or seeds the
//     initial named set at its home site.
//   * ResultMessage — a site's drained results, sent directly to the
//     originator: object ids that passed every filter, values captured by
//     the -> retrieval operator, or only a count in count_only mode. Also
//     returns all termination weight the site held. A drain with nothing
//     to report sends none: its last dereference carries the weight and
//     the trace spans instead (DerefRequest::spans).
//   * QueryDone — originator tells involved sites to discard context Q
//     after global termination.
//   * BatchDerefRequest — a drain's dereferences to one site in one
//     message. Only the simulator's batching ablation (A5) sends it; sites
//     send one DerefRequest per remote pointer and ignore this message.
//
// Weights travel as exponent lists of exact dyadic fractions (see
// term/weight.hpp); this module stores them uninterpreted.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/hash.hpp"
#include "common/trace.hpp"
#include "model/object.hpp"
#include "query/query.hpp"
#include "wire/codec.hpp"

namespace hyperfile::wire {

struct QueryId {
  SiteId originator = kNoSite;
  QuerySeq seq = 0;

  friend bool operator==(const QueryId&, const QueryId&) = default;
  std::string to_string() const {
    return "q" + std::to_string(seq) + "@" + std::to_string(originator);
  }
};

struct QueryIdHash {
  std::size_t operator()(const QueryId& q) const {
    return static_cast<std::size_t>(
        mix64((static_cast<std::uint64_t>(q.originator) << 40) ^ q.seq));
  }
};

using WeightBits = std::vector<std::uint32_t>;

/// The query as DerefRequest, BatchDerefRequest and StartQuery carry it:
/// its encode_query bytes, immutable and shared. Built from a Query by one
/// encode; copying a body, or a message holding one, copies a pointer.
/// decode_message wraps the received bytes without parsing them, and
/// decode() parses and validates them: a site calls it once per query,
/// when it installs the query's context (paper Section 3.2), and forwards
/// the bytes it received on every frame after that.
class QueryBody {
 public:
  /// No bytes: encodes as an empty body, which never decodes.
  QueryBody() = default;
  /// One encode. Implicit, so a Query assigns straight into a message.
  QueryBody(const Query& query);  // NOLINT(google-explicit-constructor)
  /// Received bytes, kept unparsed.
  static QueryBody from_bytes(Bytes bytes);

  std::span<const std::uint8_t> bytes() const {
    return bytes_ == nullptr ? std::span<const std::uint8_t>()
                             : std::span<const std::uint8_t>(*bytes_);
  }
  /// The query, validated; an error for bytes that are not exactly one
  /// valid encoded query.
  Result<Query> decode() const;

  friend bool operator==(const QueryBody& a, const QueryBody& b);

 private:
  std::shared_ptr<const Bytes> bytes_;
};

struct DerefRequest {
  QueryId qid;
  QueryBody query;
  ObjectId oid;
  std::uint32_t start = 1;
  std::vector<std::uint32_t> iter_stack;  // O.iter# (stack, innermost last)
  WeightBits weight;
  /// Sender-unique sequence number for duplicate suppression (0 = legacy /
  /// unsequenced: never suppressed). A retried or wire-duplicated message
  /// must be processed at most once — its weight in particular, since a
  /// second repay pushes held weight past one (term/weight.hpp).
  std::uint64_t msg_seq = 0;
  /// Trace context (common/trace.hpp): distance from the originator in
  /// computation-message hops, and the site path that produced this message
  /// (originator first, capped at TraceSpan::kMaxPath).
  std::uint32_t hop = 0;
  std::vector<SiteId> path;
  /// Trace spans riding a participant's weight return (DESIGN.md §4): empty
  /// unless this is the last dereference of the sender's drain and carries
  /// all its weight in place of a ResultMessage. Then it holds the sender's
  /// cumulative span (this frame already counted in `forwarded`) plus every
  /// span relayed to the sender and not yet delivered, at most one per site.
  std::vector<TraceSpan> spans;
};

/// One (object, entry point) pair inside a batched dereference.
struct DerefEntry {
  ObjectId oid;
  std::uint32_t start = 1;
  std::vector<std::uint32_t> iter_stack;

  friend bool operator==(const DerefEntry&, const DerefEntry&) = default;
};

/// Ablation A5, simulator only: a drain's worth of dereferences to one site
/// in a single message. The paper sends one message per remote pointer,
/// which maximizes pipeline overlap; batching trades that overlap for fewer
/// messages ("messages should be ... limited in number", Section 1). Sites
/// neither send nor handle it.
struct BatchDerefRequest {
  QueryId qid;
  QueryBody query;
  std::vector<DerefEntry> items;
  WeightBits weight;
  std::uint64_t msg_seq = 0;  // see DerefRequest::msg_seq
  std::uint32_t hop = 0;      // see DerefRequest::hop
  std::vector<SiteId> path;
  std::vector<TraceSpan> spans;  // see DerefRequest::spans
};

struct StartQuery {
  QueryId qid;
  QueryBody query;
  /// Explicit seed ids (each enters at filter 1).
  std::vector<ObjectId> ids;
  /// If nonempty, the receiving site additionally seeds from its local
  /// portion of this named set (distributed-set continuation queries).
  std::string local_set_name;
  WeightBits weight;
  std::uint64_t msg_seq = 0;  // see DerefRequest::msg_seq
  std::uint32_t hop = 0;      // see DerefRequest::hop
  std::vector<SiteId> path;
};

struct RetrievedValue {
  std::uint32_t slot = 0;
  ObjectId source;
  Value value;

  friend bool operator==(const RetrievedValue&, const RetrievedValue&) = default;
};

struct ResultMessage {
  QueryId qid;
  std::vector<ObjectId> ids;
  std::vector<RetrievedValue> values;
  /// In count_only mode: number of results retained locally at the site.
  std::uint64_t local_count = 0;
  bool count_only = false;
  WeightBits weight;
  std::uint64_t msg_seq = 0;  // see DerefRequest::msg_seq
  /// Work the sending site knows it lost (derefs it could not deliver after
  /// retries); folded into ClientReply::dropped_items at the originator.
  std::uint64_t dropped_items = 0;
  /// Piggybacked trace: the sending site's cumulative span snapshot(s) for
  /// this query. Merged at the originator by field-wise max, so a
  /// duplicate-suppressed redelivery cannot double-record (common/trace.hpp).
  std::vector<TraceSpan> spans;
};

struct QueryDone {
  QueryId qid;
};

/// Client -> originating server: run this query on my behalf. The paper's
/// experimental client "read a query from a script, submitted it to
/// HyperFile, received the result" — this is that submission.
struct ClientRequest {
  QuerySeq client_seq = 0;
  Query query;
};

/// Originating server -> client: final result after global termination.
struct ClientReply {
  QuerySeq client_seq = 0;
  bool ok = true;
  std::string error;
  std::vector<ObjectId> ids;
  std::vector<RetrievedValue> values;
  std::uint64_t total_count = 0;
  bool count_only = false;
  /// Degraded-answer markers (paper Section 1: "partial results are better
  /// than none at all" — but they must be *visibly* partial). `partial` is
  /// set when the originator force-finished the query (context TTL expiry)
  /// or any site reported lost work; `dropped_items` counts the known
  /// losses.
  bool partial = false;
  std::uint64_t dropped_items = 0;
  /// Trace of the finished query: protocol-level id, request->reply time on
  /// the originator's clock, and the merged per-site spans (originator's own
  /// span included). Assembled into QueryResult::trace by the client.
  QueryId qid;
  std::uint64_t elapsed_us = 0;
  std::vector<TraceSpan> spans;
};

/// Live object migration (paper Section 4: the R*-style name makes moving
/// cheap — only the birth site's record and a local hint change, never the
/// pointers). Flow: client --MoveCommand--> holder --MoveData--> new home,
/// which installs the object, notifies the birth site (LocationUpdate) and
/// answers the client (MoveReply). Queries racing a move may drop the
/// in-flight object (partial results), never hang or duplicate it.
struct MoveCommand {
  QuerySeq client_seq = 0;
  ObjectId id;
  SiteId to = kNoSite;
  /// Where MoveReply must go — carried explicitly because the command may
  /// be forwarded between sites chasing a stale hint, after which the
  /// envelope's src is the forwarder, not the client.
  SiteId reply_to = kNoSite;
  /// Forwarding fuse: a stale location hint may bounce the command once or
  /// twice; this caps the chase.
  std::uint8_t hops_left = 3;
};

struct MoveData {
  Object object;
  SiteId reply_to = kNoSite;  // the client awaiting MoveReply
  QuerySeq client_seq = 0;
};

struct LocationUpdate {
  ObjectId id;
  SiteId now_at = kNoSite;
};

struct MoveReply {
  QuerySeq client_seq = 0;
  bool ok = true;
  std::string error;
  SiteId now_at = kNoSite;
};

/// Liveness probe (DESIGN.md §13). Heartbeats are normally piggybacked —
/// any received envelope proves its sender alive — so Ping only travels on
/// links that have gone quiet: `want_reply=true` asks the peer to answer
/// with a `want_reply=false` Ping, refreshing the prober's last-seen clock.
/// Pings are fire-and-forget: never retried, never sequenced, and a loud
/// send failure is itself a liveness verdict.
struct PingMessage {
  bool want_reply = false;
};

/// One site's content summary on the wire (index/site_summary.hpp,
/// DESIGN.md §16): a Bloom filter over the site's stored tuples plus the
/// (epoch, version) pair that orders summaries of the same origin. A
/// record may be *gossiped* — relayed by a site other than its origin —
/// so receivers must never treat a record's origin as the frame's sender.
struct SummaryRecord {
  SiteId origin = kNoSite;
  /// Incarnation counter: durable sites persist it across crashes, so a
  /// restarted site's summaries outrank everything it advertised before
  /// the crash even though its store version counter restarted.
  std::uint64_t epoch = 0;
  /// SiteStore::version() at build time; (epoch, version) lexicographic.
  std::uint64_t version = 0;
  std::uint32_t hash_count = 0;
  std::uint64_t entries = 0;
  /// Age of this record when the frame was sent, in microseconds on the
  /// sender's clock: 0 for a site's own freshly built record, time since
  /// install for a gossiped relay. Receivers anchor their staleness clock
  /// at (arrival − age_us), so a record's TTL keeps running across hops —
  /// a stale record can circulate, but it can never regain freshness by
  /// being reinstalled.
  std::uint64_t age_us = 0;
  std::vector<std::uint8_t> bits;

  friend bool operator==(const SummaryRecord&, const SummaryRecord&) = default;
};

/// Summary exchange, piggybacked on the liveness cadence (DESIGN.md §16):
/// the sender's own current record first, optionally followed by cached
/// peer records it is gossiping along.
struct SummaryMessage {
  std::vector<SummaryRecord> records;
  std::uint64_t msg_seq = 0;  // see DerefRequest::msg_seq
};

/// Follower -> primary: "stream me your WAL, I hold this much already"
/// (DESIGN.md §18). `ship_epoch` is the primary's checkpoint generation the
/// follower's shadow store was built against; `wal_offset` is the byte
/// offset into the primary's WAL (within that generation) up to which the
/// follower has applied. A primary whose generation moved on (it
/// checkpointed and truncated) answers with a WalCatchup instead of a tail.
/// Re-sent on reconnect and whenever a gap is detected, so it must be
/// idempotent at the primary.
struct WalSubscribe {
  SiteId follower = kNoSite;
  std::uint64_t ship_epoch = 0;
  std::uint64_t wal_offset = 0;
  std::uint64_t msg_seq = 0;  // see DerefRequest::msg_seq
};

/// Primary -> follower: a batch of redo records, the WAL byte range
/// [from_offset, end_offset) of generation `ship_epoch`. `records` are
/// encode_wal_record payloads (store/wal.hpp), applied in order. Dedup /
/// gap detection is positional: a follower applies only when `ship_epoch`
/// matches and `from_offset` equals its watermark; anything else is a
/// duplicate (ignore) or a gap (resubscribe).
struct WalSegment {
  SiteId primary = kNoSite;
  std::uint64_t ship_epoch = 0;
  std::uint64_t from_offset = 0;
  std::uint64_t end_offset = 0;
  std::vector<Bytes> records;
  std::uint64_t msg_seq = 0;  // see DerefRequest::msg_seq
};

/// Primary -> follower: full checkpoint snapshot (store/snapshot.hpp byte
/// form) when the follower is too far behind for tail replay — its
/// generation predates the primary's last WAL truncation. The follower
/// rebuilds its shadow store from `snapshot` and resumes tailing at
/// (ship_epoch, wal_offset).
struct WalCatchup {
  SiteId primary = kNoSite;
  std::uint64_t ship_epoch = 0;
  std::uint64_t wal_offset = 0;
  Bytes snapshot;
  std::uint64_t msg_seq = 0;  // see DerefRequest::msg_seq
};

using Message = std::variant<DerefRequest, StartQuery, ResultMessage, QueryDone,
                             ClientRequest, ClientReply, BatchDerefRequest,
                             MoveCommand, MoveData, LocationUpdate, MoveReply,
                             PingMessage, SummaryMessage, WalSubscribe,
                             WalSegment, WalCatchup>;

// NetworkStats::frame (net/inproc.cpp) and the simulator's schedule()
// (sim/simulation.cpp) classify frames by these variant positions.
static_assert(std::is_same_v<std::variant_alternative_t<0, Message>,
                             DerefRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<1, Message>,
                             StartQuery>);
static_assert(std::is_same_v<std::variant_alternative_t<2, Message>,
                             ResultMessage>);
static_assert(std::is_same_v<std::variant_alternative_t<3, Message>,
                             QueryDone>);
static_assert(std::is_same_v<std::variant_alternative_t<6, Message>,
                             BatchDerefRequest>);

/// Transport envelope. src/dst are site ids; the client library occupies a
/// site id of its own (the paper's client ran "at a separate machine from
/// any of the servers").
struct Envelope {
  SiteId src = kNoSite;
  SiteId dst = kNoSite;
  Message message;
};

/// Append `m`'s encoding to `out`.
void encode_message(const Message& m, Encoder& out);
Bytes encode_message(const Message& m);
Result<Message> decode_message(std::span<const std::uint8_t> data);

Bytes encode_envelope(const Envelope& e);
/// Encode into `out` (cleared first), reusing its buffer capacity — the
/// allocation-free form for senders that consume the bytes immediately:
/// the payload goes through a reused per-thread encoder, so once `out`
/// and that encoder have grown to a frame's size, encoding it allocates
/// nothing.
void encode_envelope(const Envelope& e, Encoder& out);
/// The same frame from its parts, so a sender holding a message by const
/// reference encodes it without building (and so copying it into) an
/// Envelope.
void encode_envelope(SiteId src, SiteId dst, const Message& m, Encoder& out);
Result<Envelope> decode_envelope(std::span<const std::uint8_t> data);

}  // namespace hyperfile::wire
