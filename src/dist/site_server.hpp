// SiteServer: one HyperFile server node (paper Sections 3.2 and 4).
//
// Each site keeps a *local context* for every query it is processing:
//   Q.id, Q.originator  — globally unique query identity
//   Q.body, Q.size      — the filters (carried by every message; decoded
//                         and installed on first sight, so per-site setup
//                         cost is paid exactly once — "the context Q is
//                         discarded only on global termination"; the
//                         encoded body is kept and forwarded as received)
//   Q.mark_table, Q.W   — per-site engine state (engine/execution.hpp)
//   Q.result            — results batched since the last drain
//
// Message handling:
//   * DerefRequest  — install context if new, enqueue (id, start, iter#),
//     drain, then send accumulated results + all held termination weight
//     straight to the originator (results never flow along pointer paths).
//     A drain with nothing to report returns its weight on its last
//     outgoing dereference instead (see below).
//   * StartQuery    — like DerefRequest but seeds several ids and/or this
//     site's local portion of a named set (distributed-set continuation).
//   * ClientRequest — this site becomes the query's *originating site*: it
//     seeds the initial set, holds the master termination weight, collects
//     results, detects global termination (weighted-message algorithm),
//     binds the result set, replies to the client, and broadcasts QueryDone
//     so contexts are discarded everywhere.
//   * ResultMessage — (originator only) merge results, recover weight.
//   * QueryDone     — discard the local context.
//
// During a drain, each dereference of a non-local object becomes one
// DerefRequest (the paper's one message per remote pointer; batching them
// per destination is a simulator-only ablation) sent to the target's
// presumed site with a borrowed share of our weight.
// A participant holds the drain's last one back: when the drain ends with
// no ids, values, count, stashed results or dropped items to report, that
// dereference leaves with *all* held weight and the trace spans, and no
// ResultMessage is sent (the paper's §4 idle site giving its weight to the
// message it sends). The originator keeps the master weight and never
// holds. If a send fails (site down / channel closed), the weight is repaid
// and the item dropped: the query still terminates with partial results,
// honoring the paper's "partial results are better than none at all".
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/trace.hpp"
#include "engine/execution.hpp"
#include "engine/parallel_execution.hpp"
#include "index/site_summary.hpp"
#include "dist/replication.hpp"
#include "naming/name_registry.hpp"
#include "net/endpoint.hpp"
#include "store/site_store.hpp"
#include "store/versioning.hpp"
#include "store/wal.hpp"
#include "term/weighted.hpp"

namespace hyperfile {

struct SiteServerOptions {
  WorkSetDiscipline discipline = WorkSetDiscipline::kFifo;
  /// Shared-memory parallelism inside the site (paper Section 6 applied to
  /// the distributed runtime). 0 or 1 = serial: every drain runs on the
  /// event-loop thread. N >= 2: a pool of N long-lived workers per site,
  /// created once and shared across query contexts; drains fan object
  /// processing out to the pool and join before any result or weight is
  /// flushed. The event loop keeps exclusive ownership of message handling,
  /// store writes, and termination accounting either way.
  std::size_t drain_workers = 0;
  /// Sleep before the first retry of a failed protocol send (see
  /// kSendRetries in site_server.cpp); doubles per attempt.
  Duration retry_backoff = Duration(200);
  /// Self-healing: a query context (participant or origination) idle longer
  /// than this is presumed orphaned — its QueryDone was lost, its weight
  /// was dropped, or the client went away. Originations force-finish with a
  /// `partial` reply; participant contexts re-flush anything pending and
  /// are then discarded. Keeps "partial results, never a hang" true under
  /// message loss.
  Duration context_ttl = Duration(10'000'000);
  /// Durability (DESIGN.md §13). Empty = volatile site (the default). When
  /// set, the server keeps `<wal_dir>/site_<id>.wal` (every store mutation,
  /// redo-logged before it is acknowledged) and `<wal_dir>/site_<id>.ckpt`
  /// (the latest checkpoint). Construction *recovers*: if either file
  /// exists, the checkpoint + replayed WAL supersede the store passed to
  /// the constructor — which is what lets a crashed site restart with its
  /// data intact (Cluster::restart_site hands in an empty store on purpose).
  std::string wal_dir;
  /// With wal_dir set and an interval > 0, the event loop periodically
  /// snapshots the store to the checkpoint file and truncates the WAL,
  /// bounding recovery time. 0 = only explicit checkpoint() calls.
  Duration checkpoint_interval = Duration(0);
  /// Failure detection (DESIGN.md §13). 0 = disabled. When set, the server
  /// tracks per-peer last-seen times (every received envelope is an implicit
  /// heartbeat), probes quiet peers of interest with PingMessage after a
  /// third of the window, and *suspects* a peer silent for the full window.
  /// Suspecting a participant force-finishes the originator's query as
  /// `partial` right away — within this window instead of the much larger
  /// context_ttl — and new work routes around the suspect until it is seen
  /// alive again. Keep this comfortably above the longest expected drain:
  /// the event loop cannot answer pings mid-drain, so an aggressive window
  /// turns a slow site into a falsely suspected one.
  Duration suspect_after = Duration(0);
  /// Site-summary exchange + remote fan-out pruning (DESIGN.md §16).
  /// 0 = disabled. When set, the site rebuilds its SiteSummary (a Bloom
  /// filter over everything it stores, index/site_summary.hpp) whenever the
  /// store has mutated, advertises it to `summary_peers` on this cadence,
  /// and — before forwarding a dereference — tests the query against the
  /// cached summary of the destination, skipping sites that provably cannot
  /// contribute. Pruning is conservative: a missing, expired, or
  /// version-regressed summary never prunes, so results stay exact.
  Duration summary_interval = Duration(0);
  /// A cached peer summary older than this never prunes (it may still be
  /// *replaced* by any incoming record, even a version-regressed one — an
  /// expired cache entry carries no authority). 0 = never expires.
  Duration summary_ttl = Duration(0);
  /// Sites this server advertises its summary to. Cluster fills this with
  /// the whole deployment when summaries are enabled and the list is empty.
  std::vector<SiteId> summary_peers;
  /// WAL-shipped hot-standby replication (DESIGN.md §18, dist/replication.hpp).
  /// 0 = disabled. When set, this site ships its WAL tail to its assigned
  /// follower on this cadence, (re)subscribes to the primaries it follows,
  /// and — when the failure detector suspects a primary — fails dereference
  /// work over to that primary's replica instead of dropping it. Requires
  /// suspect_after > 0 for the failover half, and wal_dir on primaries for
  /// the shipping half (a volatile site can follow, but has no WAL to ship).
  Duration replication_interval = Duration(0);
  /// Deployment-wide replica assignment: primary site -> follower site.
  /// Every site carries the whole map — routers need it to redirect work at
  /// a suspect's replica, not just the pairs they are part of. Cluster
  /// fills it ring-wise (site i -> site i+1) when replication is enabled
  /// and the map is empty.
  std::unordered_map<SiteId, SiteId> replica_assignment;
};

/// Per-sender advert dedup state: the highest (incarnation epoch, msg_seq)
/// pair already processed from that sender (see SiteServer::summary_seen_).
struct SummaryAdvertHighWater {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};

/// Per-context duplicate suppression: for each sender, the msg_seq values
/// already processed, in ascending order (see already_seen in
/// site_server.cpp).
using SeenSeqs = std::unordered_map<SiteId, std::vector<std::uint64_t>>;

class SiteServer {
 public:
  SiteServer(std::unique_ptr<MessageEndpoint> endpoint, SiteStore store,
             SiteServerOptions options = {});
  ~SiteServer();

  SiteServer(const SiteServer&) = delete;
  SiteServer& operator=(const SiteServer&) = delete;

  SiteId site() const { return store_.site(); }

  /// Pre-start population access. Not thread-safe once start()ed.
  SiteStore& store() { return store_; }
  NameRegistry& names() { return names_; }

  HF_ANY_THREAD void start();
  HF_ANY_THREAD void stop();
  bool running() const { return running_.load(); }

  /// Run `fn` with exclusive ownership of the loop-confined state (store_,
  /// contexts_, names_): inline when the server is stopped, otherwise
  /// enqueued onto the event loop and waited for. This is how online
  /// snapshots and checkpoints happen "under the store lock" — the lock
  /// being the loop confinement itself (DESIGN.md §9/§13).
  HF_ANY_THREAD HF_BLOCKING Result<void> run_exclusive(
      const std::function<Result<void>()>& fn);

  /// Snapshot the store to the checkpoint file and truncate the WAL. Safe
  /// on a live server (routed through run_exclusive). Error if the server
  /// has no wal_dir.
  HF_ANY_THREAD HF_BLOCKING Result<void> checkpoint();

  /// Aggregated engine statistics across all queries this site processed.
  HF_ANY_THREAD EngineStats engine_stats() const;

  /// Number of live query contexts (for tests: must drop to 0 after
  /// QueryDone).
  HF_ANY_THREAD std::size_t context_count() const;

  /// Number of peer summaries currently cached (for tests and benches:
  /// summary convergence means every site caches every other site's
  /// summary). Snapshot refreshed once per loop tick, like context_count().
  HF_ANY_THREAD std::size_t summary_count() const;

  /// Follower-side replication probe (tests/benches, DESIGN.md §18): this
  /// site's shadow of `primary` — watermark position, the exact-vs-lagged
  /// verdict a failover would render right now, and a copy of the shadow
  /// store for differential comparison against the primary. Routed through
  /// run_exclusive, so safe on a live server. `exists` is false when this
  /// site holds no shadow for `primary` (not its follower, or no segment
  /// arrived yet).
  struct ReplicaProbe {
    bool exists = false;
    std::uint64_t ship_epoch = 0;
    std::uint64_t wal_offset = 0;
    bool covers_tail = false;
    SiteStore shadow{kNoSite};
  };
  HF_ANY_THREAD HF_BLOCKING ReplicaProbe replica_probe(SiteId primary);

  /// The primary-side mirror (tests/benches): a consistent copy of this
  /// site's own store, taken inside the event loop.
  HF_ANY_THREAD HF_BLOCKING SiteStore store_copy();

 private:
  /// A remote dereference decided by route_remote: `item` presumed at
  /// `dest`, sent to `send_to` (the suspect's standby after a failover).
  struct OutgoingDeref {
    WorkItem item;
    SiteId dest = kNoSite;
    SiteId send_to = kNoSite;
  };

  struct Participation {
    /// The query as this site received it (the originator: as it encoded
    /// it). Decoded once, into `exec`; every frame this site sends for the
    /// query carries these same bytes.
    wire::QueryBody body;
    /// Serial QueryExecution, or ParallelExecution when drain_workers >= 2.
    std::unique_ptr<SiteExecution> exec;
    /// Failover executions over shadow stores (DESIGN.md §18), one per
    /// suspected primary this site answered for during the query, created
    /// lazily by shadow_execution(). Always serial: the failover path
    /// favours correctness over drain parallelism. Declared after `exec`
    /// (destroyed first) because their remote sinks feed it.
    std::unordered_map<SiteId, std::unique_ptr<SiteExecution>> shadow_execs;
    /// Idle test across the main and all shadow executions — termination
    /// (maybe_finish, TTL sweeps) must not fire while any failover drain
    /// still holds work.
    bool executions_idle() const {
      if (!exec->idle()) return false;
      for (const auto& [primary, se] : shadow_execs) {
        if (!se->idle()) return false;
      }
      return true;
    }
    WeightedTerminationParticipant weight;
    /// count_only with a result set name: this site's portion of the set,
    /// created on the query's first drain with results and appended to by
    /// later drains. Invalid until then.
    ObjectId portion;
    /// (id, start) pairs already forwarded for objects absent here —
    /// prevents forwarding ping-pong when location records are stale.
    std::set<std::pair<ObjectId, std::uint32_t>> forwarded;
    /// The current drain's last remote dereference (participants only):
    /// held until the drain ends, then sent with all held weight when there
    /// is nothing else to report. Empty between messages.
    std::optional<OutgoingDeref> last_deref;
    /// Spans relayed here on weight-carrying frames and not yet delivered,
    /// one per site (merged by max). They leave with this site's next
    /// weight return, whether a dereference or a ResultMessage.
    std::map<SiteId, TraceSpan> relayed;
    /// Duplicate suppression: msg_seq values already processed, per sender.
    /// A replayed message must not repay weight / add items a second time.
    SeenSeqs seen;
    /// Results whose send to the originator failed even after retries;
    /// stashed (with their weight back in `weight`) and re-flushed by the
    /// TTL sweep or the next drain.
    std::vector<ObjectId> pending_ids;
    std::vector<wire::RetrievedValue> pending_values;
    std::uint64_t pending_count = 0;
    /// Work items this site knows it lost (undeliverable derefs); reported
    /// to the originator as ResultMessage::dropped_items.
    std::uint64_t dropped = 0;
    std::chrono::steady_clock::time_point last_activity;

    /// This site's cumulative trace span for the query (common/trace.hpp);
    /// rides every frame that returns this site's weight.
    TraceSpan span;
    /// Hop number of the most recent engaging message; dereferences
    /// forwarded from here carry current_hop + 1.
    std::uint32_t current_hop = 0;
    /// Path stamped on outgoing computation messages: the engaging
    /// message's path extended with this site (capped at
    /// TraceSpan::kMaxPath).
    std::vector<SiteId> out_path;
  };

  struct Origination {
    Query query;
    WeightedTerminationOriginator term;
    SiteId client = kNoSite;
    QuerySeq client_seq = 0;
    std::unordered_set<ObjectId> ids_seen;
    std::vector<ObjectId> ids;
    std::vector<wire::RetrievedValue> values;
    std::uint64_t total_count = 0;
    std::unordered_map<SiteId, std::uint64_t> site_counts;  // count_only mode
    /// Sites we sent to, heard from, or received a relayed span of.
    std::unordered_set<SiteId> involved;
    /// Duplicate suppression for ResultMessages, per sender (see
    /// Participation::seen).
    SeenSeqs seen;
    /// Known losses: items this originator dropped plus every
    /// ResultMessage::dropped_items reported by participants. Nonzero =>
    /// the reply is flagged partial.
    std::uint64_t dropped_items = 0;
    std::chrono::steady_clock::time_point last_activity;
    bool replied = false;
    /// Participant span snapshots, merged field-wise by max so a
    /// duplicate-suppressed redelivery cannot double-record
    /// (common/trace.hpp). They arrive on ResultMessages and on
    /// weight-carrying dereferences. The originator's own span joins at
    /// reply time.
    std::unordered_map<SiteId, TraceSpan> spans;
    /// Request arrival on this site's clock; the reply's elapsed_us.
    std::chrono::steady_clock::time_point started;
  };

  /// Last-seen bookkeeping for one peer (liveness, DESIGN.md §13).
  struct PeerLiveness {
    std::chrono::steady_clock::time_point last_seen;
    std::chrono::steady_clock::time_point last_ping;
    bool suspected = false;
    /// A send to this peer failed loudly even after retries (dead fd,
    /// closed mailbox). Recorded by send_with_retry; the next
    /// check_liveness pass converts it into a suspicion without waiting
    /// out the silence window. Cleared by any received frame.
    bool send_failed = false;
  };

  /// One cached peer summary plus the staleness clock summary_ttl runs
  /// against. `installed` is *origin-anchored*: arrival time minus the
  /// record's wire-carried age, so a record relayed through many hops is
  /// exactly as stale here as at the site that heard the origin directly.
  struct CachedSummary {
    index::SiteSummary summary;
    std::chrono::steady_clock::time_point installed;
  };

  HF_EVENT_LOOP_ONLY void run_loop();
  /// How long the next recv may block on a wake-capable endpoint: the time
  /// until the earliest periodic duty (sweep, liveness, summaries,
  /// checkpoint, replication) falls due, capped at a bounded idle maximum.
  /// Frame arrival and wake_recv() cut the wait short either way.
  HF_EVENT_LOOP_ONLY Duration recv_budget() const;
  /// Crash recovery + WAL attach (constructor, when wal_dir is set).
  void recover_durable_state();
  /// Checkpoint on the loop thread (or pre-start): snapshot to a temp file,
  /// atomically rename over the checkpoint, truncate the WAL.
  HF_EVENT_LOOP_ONLY Result<void> do_checkpoint();
  /// Execute queued run_exclusive closures (loop thread, or stop() after
  /// the join so no caller is left blocked).
  HF_EVENT_LOOP_ONLY void drain_ctl();
  /// Periodic failure detection: ping quiet peers of interest, suspect the
  /// silent ones, force-finish their queries as partial.
  HF_EVENT_LOOP_ONLY void check_liveness();
  HF_EVENT_LOOP_ONLY void suspect_peer(SiteId peer);
  bool peer_suspected(SiteId peer) const {
    auto it = liveness_.find(peer);
    return it != liveness_.end() && it->second.suspected;
  }
  HF_EVENT_LOOP_ONLY void handle(wire::Envelope env);
  HF_EVENT_LOOP_ONLY void handle_deref(SiteId src, wire::DerefRequest dr);
  HF_EVENT_LOOP_ONLY void handle_start(SiteId src, wire::StartQuery sq);
  HF_EVENT_LOOP_ONLY void handle_result(SiteId src, wire::ResultMessage rm);
  HF_EVENT_LOOP_ONLY void handle_client_request(SiteId src,
                                                wire::ClientRequest cr);
  HF_EVENT_LOOP_ONLY void handle_done(const wire::QueryDone& qd);
  /// The qid names a query *we* originated that is no longer live: a
  /// duplicated or retried message outlived its query. Heal the sender,
  /// and every site whose span the frame relays, by (re)telling them the
  /// query is done; never recreate a context.
  HF_EVENT_LOOP_ONLY bool stale_own_query(const wire::QueryId& qid,
                                           SiteId src,
                                           const std::vector<TraceSpan>& spans);
  /// Fold spans carried by an accepted frame. At the originator they merge
  /// into the trace and each span's site joins `involved`; at a participant
  /// they join the relay buffer. Mutates protocol state, so the hfverify
  /// ordering rule lists it: it must never run before the dedup guard.
  HF_EVENT_LOOP_ONLY void absorb_spans(const wire::QueryId& qid,
                                        std::vector<TraceSpan> spans);
  HF_EVENT_LOOP_ONLY void handle_move_command(SiteId src,
                                               const wire::MoveCommand& mc);
  HF_EVENT_LOOP_ONLY void handle_move_data(wire::MoveData md);
  HF_EVENT_LOOP_ONLY void handle_location_update(
      const wire::LocationUpdate& lu);
  /// Install gossiped summary records: each record is accepted iff its
  /// (epoch, version) is strictly newer than the cached one for that origin
  /// (or the cached one has aged past summary_ttl). Never touches liveness —
  /// a gossiped record is hearsay about its origin, not a frame from it.
  HF_EVENT_LOOP_ONLY void handle_summary(SiteId src, wire::SummaryMessage sm);
  /// The install side effect of handle_summary, factored out so the
  /// hfverify ordering rule sees it by name (allowlist SIDE_EFFECT_CALLS):
  /// it must never run before the handler's dedup guard.
  HF_EVENT_LOOP_ONLY void install_summary(
      wire::SummaryRecord rec, std::chrono::steady_clock::time_point now);
  /// Periodic summary maintenance (run_loop, summary_interval > 0): rebuild
  /// our own summary when the store has mutated since the last build, and
  /// advertise it (plus gossiped peer records) to summary_peers.
  HF_EVENT_LOOP_ONLY void check_summaries();
  /// True iff `dest`'s cached summary is fresh and proves the item
  /// (entering `query` at `start` on object `oid`) cannot contribute.
  /// Missing/expired summaries return false: staleness never prunes.
  HF_EVENT_LOOP_ONLY bool summary_prunes(SiteId dest, const Query& query,
                                          std::uint32_t start,
                                          const ObjectId& oid);

  // --- WAL replication (replication_interval > 0, DESIGN.md §18) ---
  /// The assigned follower of `primary`, or kNoSite.
  SiteId replica_for(SiteId primary) const {
    auto it = options_.replica_assignment.find(primary);
    return it == options_.replica_assignment.end() ? kNoSite : it->second;
  }
  /// The shadow-store slot for a primary this site follows; created lazily,
  /// nullptr when the assignment does not name us as `primary`'s follower.
  HF_EVENT_LOOP_ONLY ReplicaTail* replica_slot(SiteId primary);
  /// Periodic replication pass (run_loop): re-subscribe to quiet primaries
  /// we follow, ship WAL tails (or catchup snapshots) to our followers.
  HF_EVENT_LOOP_ONLY void check_replication();
  HF_EVENT_LOOP_ONLY void ship_to(SiteId follower, FollowerShip& ship);
  /// Fire-and-forget WalSubscribe carrying `rt`'s current watermark.
  HF_EVENT_LOOP_ONLY void send_subscribe(SiteId primary, ReplicaTail& rt);
  /// Primary side: (re)aim the follower's ship cursor. Idempotent by
  /// design — subscribes travel unsequenced and may be re-sent freely.
  HF_EVENT_LOOP_ONLY void handle_wal_subscribe(SiteId src,
                                                wire::WalSubscribe ws);
  HF_EVENT_LOOP_ONLY void handle_wal_segment(SiteId src, wire::WalSegment wg);
  HF_EVENT_LOOP_ONLY void handle_wal_catchup(SiteId src, wire::WalCatchup wc);
  /// The apply side effects of the two handlers above, factored out (like
  /// install_summary) so the hfverify ordering rule sees them by name: they
  /// must never run before the handler's dedup guard. Both take unpacked
  /// fields, not the message structs, so the rule does not demand a second
  /// guard inside them.
  HF_EVENT_LOOP_ONLY void apply_segment(SiteId primary,
                                        std::uint64_t ship_epoch,
                                        std::uint64_t from_offset,
                                        std::uint64_t end_offset,
                                        std::vector<wire::Bytes> records);
  HF_EVENT_LOOP_ONLY void apply_catchup(SiteId primary,
                                        std::uint64_t ship_epoch,
                                        std::uint64_t wal_offset,
                                        wire::Bytes snapshot);
  /// The failover execution serving `primary`'s shadow store for this
  /// query; created on first use. Requires replicas_.at(primary) to exist.
  HF_EVENT_LOOP_ONLY SiteExecution& shadow_execution(const wire::QueryId& qid,
                                                     Participation& p,
                                                     SiteId primary);

  /// qid's context, installed on first sight from `body`, which only then
  /// is decoded and validated (paper Section 3.2). nullptr when a new
  /// context's body does not decode: the caller drops the frame, like a
  /// transport drops an undecodable one, with no context, no dedup entry
  /// and no weight repaid; it is counted (dist.query_decode_failures) and
  /// logged, and the query ends partial through the TTL or suspicion.
  HF_EVENT_LOOP_ONLY Participation* participation(SiteId src,
                                                  const wire::QueryId& qid,
                                                  const wire::QueryBody& body);
  /// Create qid's context running `query`, whose encoded form is `body`.
  HF_EVENT_LOOP_ONLY Participation& install_context(const wire::QueryId& qid,
                                                    wire::QueryBody body,
                                                    const Query& query);
  Origination* find_origination(const wire::QueryId& qid);
  /// Drain the context's working set, then flush: results+weight to the
  /// originator (participants) or merged into the origination (originator).
  HF_EVENT_LOOP_ONLY void drain_and_flush(const wire::QueryId& qid);
  /// `force` (TTL expiry): reply now with whatever arrived, flagged partial,
  /// instead of waiting for termination that can no longer happen.
  HF_EVENT_LOOP_ONLY void maybe_finish(const wire::QueryId& qid,
                                        Origination& o, bool force = false);
  HF_EVENT_LOOP_ONLY void discard_context(const wire::QueryId& qid);
  /// Periodic self-healing pass (run_loop): force-finish expired
  /// originations, re-flush participants with stashed results, discard
  /// idle-expired participant contexts.
  HF_EVENT_LOOP_ONLY void sweep_contexts();
  /// Send with bounded retry + exponential backoff on transient failures
  /// (kNotFound/kInvalidArgument are permanent and not retried). Retries are
  /// attributed to `span` when the send belongs to a traced query.
  HF_EVENT_LOOP_ONLY Result<void> send_with_retry(
      SiteId to, const wire::Message& m,
                               TraceSpan* span = nullptr);

  /// Trace bookkeeping for an accepted computation message: count it,
  /// adopt (hop, path) as the span's engagement if it is the earliest seen,
  /// and refresh the hop/path stamped on outgoing messages.
  HF_EVENT_LOOP_ONLY void note_engagement(Participation& p,
                                           std::uint32_t hop,
                                           const std::vector<SiteId>& path);

  /// Route `item` to a remote site as a DerefRequest: destination is the
  /// id's presumed site, or the name registry's next hop when the hint
  /// points here. The originator sends at once; a participant holds the
  /// item in `last_deref` and sends the one it displaces. Drops the item if
  /// no destination exists.
  HF_EVENT_LOOP_ONLY void route_remote(const wire::QueryId& qid,
                                        Participation& p, WorkItem item);
  /// Send one DerefRequest with the weight take_weight gives it. On
  /// failure the weight is repaid and the item counted dropped. True iff
  /// sent.
  HF_EVENT_LOOP_ONLY bool send_deref(const wire::QueryId& qid,
                                      Participation& p, OutgoingDeref d,
                                      bool carry_all);

  /// Borrow / repay weight for qid: from the master weight if we originated
  /// it, else from the participant's held weight.
  HF_EVENT_LOOP_ONLY Weight borrow_weight(const wire::QueryId& qid,
                                           Participation& p);
  HF_EVENT_LOOP_ONLY void repay_weight(const wire::QueryId& qid,
                                        Participation& p, Weight w);
  /// The weight one outgoing frame carries: a borrowed share, or with
  /// `carry_all` (a participant's weight return, DESIGN.md §4) all held
  /// weight, with the participant's own cumulative span and every relayed
  /// span not yet delivered written to `spans`. Every frame that takes
  /// weight here hands it to settle_weight once its send is done.
  HF_EVENT_LOOP_ONLY Weight take_weight(const wire::QueryId& qid,
                                         Participation& p, bool carry_all,
                                         std::vector<TraceSpan>& spans);
  /// A failed send's weight goes back where it came from; a sent weight
  /// return has delivered the relayed spans.
  HF_EVENT_LOOP_ONLY void settle_weight(const wire::QueryId& qid,
                                         Participation& p, Weight w,
                                         bool carry_all, bool sent);
  /// Count `n` work items lost to a failed or impossible send, so the
  /// reply is flagged partial: at the originator directly, else on the
  /// participant's next ResultMessage.
  HF_EVENT_LOOP_ONLY void note_dropped(const wire::QueryId& qid,
                                        Participation& p, std::uint64_t n);

  std::unique_ptr<MessageEndpoint> endpoint_;
  SiteStore store_;
  NameRegistry names_;
  SiteServerOptions options_;
  /// The site's redo log (wal_dir set). unique_ptr so the address the store
  /// shadows into stays stable. Loop-confined like the store it mirrors.
  std::unique_ptr<WriteAheadLog> wal_;
  /// Long-lived drain workers (drain_workers >= 2), shared by every query
  /// context this site ever processes. Declared before contexts_ so any
  /// execution still alive at destruction outlives its pool references.
  std::unique_ptr<WorkerPool> drain_pool_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread thread_;

  // Event-loop-thread-confined state (DESIGN.md §9/§10): only run_loop()'s
  // thread touches these while the server runs; start()/stop() join the
  // thread before any other access. Deliberately *not* mutex-guarded — the
  // confinement is the discipline, and stats_mu_ below is the only state
  // crossing threads.
  QuerySeq next_query_seq_ HF_EVENT_LOOP_ONLY = 1;
  /// One outgoing sequence stream for all sequenced messages this site
  /// sends; receivers dedup by (qid, src, msg_seq). Starts at 1 — seq 0
  /// marks unsequenced messages, which are never suppressed.
  std::uint64_t next_msg_seq_ HF_EVENT_LOOP_ONLY = 1;
  std::chrono::steady_clock::time_point last_sweep_;
  std::chrono::steady_clock::time_point last_checkpoint_;
  std::chrono::steady_clock::time_point last_liveness_check_;
  std::unordered_map<wire::QueryId, Participation, wire::QueryIdHash>
      contexts_ HF_EVENT_LOOP_ONLY;
  std::unordered_map<wire::QueryId, Origination, wire::QueryIdHash>
      originated_ HF_EVENT_LOOP_ONLY;
  /// Result sets of count_only queries: name -> sites holding portions.
  std::unordered_map<std::string, std::vector<SiteId>>
      distributed_sets_ HF_EVENT_LOOP_ONLY;
  /// Per-peer liveness clocks (suspect_after > 0). Loop-confined; entries
  /// are created lazily when a peer first becomes of interest.
  std::unordered_map<SiteId, PeerLiveness> liveness_ HF_EVENT_LOOP_ONLY;

  // --- Site-summary exchange (summary_interval > 0, DESIGN.md §16) ---
  /// Our own advertised summary. Rebuilt by check_summaries() whenever
  /// store_.version() has moved past own_summary_.version.
  index::SiteSummary own_summary_ HF_EVENT_LOOP_ONLY;
  bool summary_built_ HF_EVENT_LOOP_ONLY = false;
  /// Incarnation counter baked into every summary we advertise, so a
  /// restarted site's post-crash summaries outrank its pre-crash ones even
  /// though the store version counter restarted. Durable sites recover it
  /// from `<wal_dir>/site_<id>.boot` (incremented each boot, written
  /// write-then-rename); volatile sites stamp each boot with the wall
  /// clock instead — nowhere to persist a counter, and epochs are only
  /// ever compared against this site's own earlier ones.
  std::uint64_t summary_epoch_ = 0;
  std::chrono::steady_clock::time_point last_summary_advert_;
  /// Freshest summary we hold per origin site, however it arrived (direct
  /// advert or gossip). suspect_peer() drops the suspect's entry: a dead
  /// site's summary must not keep pruning after it restarts with new
  /// content.
  std::unordered_map<SiteId, CachedSummary> peer_summaries_ HF_EVENT_LOOP_ONLY;
  /// Duplicate suppression for SummaryMessages: per sender, the highest
  /// (incarnation epoch, msg_seq) processed. Site-level (no query context
  /// to hang it on), so unlike the per-query `seen` sets it lives for the
  /// whole process — a high-water mark instead of a set keeps it O(peers),
  /// not O(peers × uptime). Suppressing a *reordered* older advert along
  /// with true duplicates is sound: adverts are cumulative snapshots sent
  /// in increasing seq order, and installs are ordered by (epoch, version)
  /// with origin-anchored ages, so an older advert carries nothing the
  /// newer one didn't supersede. The mark is epoch-scoped because a
  /// restarted sender's seq counter restarts at 1: without the epoch its
  /// fresh adverts would be suppressed as stale until the counter outgrew
  /// the pre-crash range, leaving any stale gossiped record of it in
  /// authority for that whole window.
  std::unordered_map<SiteId, SummaryAdvertHighWater>
      summary_seen_ HF_EVENT_LOOP_ONLY;

  // --- WAL replication (replication_interval > 0, DESIGN.md §18) ---
  /// Our WAL generation: which checkpoint the byte offsets we ship are
  /// relative to. Persisted in `<wal_dir>/site_<id>.ship` (same
  /// write-then-rename discipline as the summary boot epoch) and bumped on
  /// every boot and every WAL truncation, so a follower can always tell a
  /// stale tail from a live one. Stays 0 on volatile sites — they have no
  /// WAL and never ship.
  std::uint64_t ship_epoch_ = 0;
  /// Primary side: ship cursor per subscribed follower.
  std::unordered_map<SiteId, FollowerShip> followers_ HF_EVENT_LOOP_ONLY;
  /// Follower side: shadow store + watermark per primary we replicate.
  /// unique_ptr for address stability — failover executions hold references
  /// to the shadow SiteStore across map rehashes.
  std::unordered_map<SiteId, std::unique_ptr<ReplicaTail>>
      replicas_ HF_EVENT_LOOP_ONLY;
  /// Duplicate suppression for WalSegment/WalCatchup, one stream per
  /// sending primary. Epoch-scoped high-water like summary_seen_ (and for
  /// the same reason: a rebooted primary restarts msg_seq at 1, but its
  /// persisted ship_epoch is strictly higher). The real gap/duplicate
  /// arbitration is positional — (ship_epoch, from_offset) against the
  /// watermark, in apply_segment — this mark only suppresses transport
  /// retries, and exists so the handler ordering contract (dedup before
  /// side effects, tools/hfverify) holds uniformly.
  std::unordered_map<SiteId, SummaryAdvertHighWater>
      wal_stream_seen_ HF_EVENT_LOOP_ONLY;
  std::chrono::steady_clock::time_point last_replication_;

  /// Guards the cross-thread observer snapshots (engine_stats(),
  /// context_count() — callable from any thread while the loop runs).
  mutable Mutex stats_mu_;
  EngineStats total_stats_ HF_GUARDED_BY(stats_mu_);
  std::size_t context_count_cache_ HF_GUARDED_BY(stats_mu_) = 0;
  std::size_t summary_count_cache_ HF_GUARDED_BY(stats_mu_) = 0;

  /// run_exclusive handoff: closures queued by other threads, drained by
  /// the event loop between messages (the only cross-thread channel into
  /// the loop-confined state).
  struct CtlWaiter {
    Mutex mu;
    CondVar cv;
    bool done HF_GUARDED_BY(mu) = false;
    Result<void> result HF_GUARDED_BY(mu);
  };
  struct CtlTask {
    std::function<Result<void>()> fn;
    std::shared_ptr<CtlWaiter> waiter;
  };
  mutable Mutex ctl_mu_;
  std::vector<CtlTask> ctl_ HF_GUARDED_BY(ctl_mu_);
};

}  // namespace hyperfile
