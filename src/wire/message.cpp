#include "wire/message.hpp"

#include <algorithm>

#include "wire/serialize.hpp"

namespace hyperfile::wire {
namespace {

enum class Tag : std::uint8_t {
  kDeref = 1,
  kStart = 2,
  kResult = 3,
  kDone = 4,
  kClientRequest = 5,
  kClientReply = 6,
  kBatchDeref = 7,
  // 8 is reserved: it was the retired Dijkstra-Scholten TermAck, and old
  // frames carrying it must fail to decode rather than mean something new.
  kMoveCommand = 9,
  kMoveData = 10,
  kLocationUpdate = 11,
  kMoveReply = 12,
  kPing = 13,
  kSummary = 14,
  kWalSubscribe = 15,
  kWalSegment = 16,
  kWalCatchup = 17,
};

void encode_qid(Encoder& e, const QueryId& q) {
  e.varint(q.originator);
  e.varint(q.seq);
}

Result<QueryId> decode_qid(Decoder& d) {
  auto orig = d.varint();
  if (!orig.ok()) return orig.error();
  auto seq = d.varint();
  if (!seq.ok()) return seq.error();
  return QueryId{static_cast<SiteId>(orig.value()), seq.value()};
}

void encode_u32s(Encoder& e, const std::vector<std::uint32_t>& v) {
  e.varint(v.size());
  for (auto x : v) e.varint(x);
}

Result<std::vector<std::uint32_t>> decode_u32s(Decoder& d) {
  auto n = d.varint();
  if (!n.ok()) return n.error();
  if (n.value() > d.remaining()) {
    return make_error(Errc::kDecode, "u32 list length exceeds input");
  }
  std::vector<std::uint32_t> v;
  v.reserve(static_cast<std::size_t>(n.value()));
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto x = d.varint();
    if (!x.ok()) return x.error();
    v.push_back(static_cast<std::uint32_t>(x.value()));
  }
  return v;
}

void encode_span(Encoder& e, const TraceSpan& s) {
  e.varint(s.site);
  e.varint(s.first_hop);
  encode_u32s(e, s.path);
  e.varint(s.messages);
  e.varint(s.duplicates);
  e.varint(s.items);
  e.varint(s.forwarded);
  e.varint(s.results);
  e.varint(s.drains);
  e.varint(s.drain_us);
  e.varint(s.retries);
  e.varint(s.suspicions);
  e.varint(s.pruned);
  e.varint(s.failovers);
  e.varint(s.replica_lag);
}

Result<TraceSpan> decode_span(Decoder& d) {
  TraceSpan s;
  auto site = d.varint();
  if (!site.ok()) return site.error();
  s.site = static_cast<SiteId>(site.value());
  auto hop = d.varint();
  if (!hop.ok()) return hop.error();
  s.first_hop = static_cast<std::uint32_t>(hop.value());
  auto path = decode_u32s(d);
  if (!path.ok()) return path.error();
  s.path = std::move(path).value();
  // One explicit read per encoded field, in encode_span's order, so the
  // codec-symmetry check (tools/hfverify) can diff the two mechanically.
  auto messages = d.varint();
  if (!messages.ok()) return messages.error();
  s.messages = messages.value();
  auto duplicates = d.varint();
  if (!duplicates.ok()) return duplicates.error();
  s.duplicates = duplicates.value();
  auto items = d.varint();
  if (!items.ok()) return items.error();
  s.items = items.value();
  auto forwarded = d.varint();
  if (!forwarded.ok()) return forwarded.error();
  s.forwarded = forwarded.value();
  auto results = d.varint();
  if (!results.ok()) return results.error();
  s.results = results.value();
  auto drains = d.varint();
  if (!drains.ok()) return drains.error();
  s.drains = drains.value();
  auto drain_us = d.varint();
  if (!drain_us.ok()) return drain_us.error();
  s.drain_us = drain_us.value();
  auto retries = d.varint();
  if (!retries.ok()) return retries.error();
  s.retries = retries.value();
  auto suspicions = d.varint();
  if (!suspicions.ok()) return suspicions.error();
  s.suspicions = suspicions.value();
  auto pruned = d.varint();
  if (!pruned.ok()) return pruned.error();
  s.pruned = pruned.value();
  auto failovers = d.varint();
  if (!failovers.ok()) return failovers.error();
  s.failovers = failovers.value();
  auto replica_lag = d.varint();
  if (!replica_lag.ok()) return replica_lag.error();
  s.replica_lag = replica_lag.value();
  return s;
}

void encode_spans(Encoder& e, const std::vector<TraceSpan>& spans) {
  e.varint(spans.size());
  for (const auto& s : spans) encode_span(e, s);
}

Result<std::vector<TraceSpan>> decode_spans(Decoder& d) {
  auto n = d.varint();
  if (!n.ok()) return n.error();
  if (n.value() > d.remaining()) {
    return make_error(Errc::kDecode, "span list length exceeds input");
  }
  std::vector<TraceSpan> spans;
  spans.reserve(static_cast<std::size_t>(n.value()));
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto s = decode_span(d);
    if (!s.ok()) return s.error();
    spans.push_back(std::move(s).value());
  }
  return spans;
}

void encode_body(Encoder& e, const QueryBody& b) { e.bytes(b.bytes()); }

Result<QueryBody> decode_body(Decoder& d) {
  auto b = d.bytes();
  if (!b.ok()) return b.error();
  return QueryBody::from_bytes(std::move(b).value());
}

void encode_summary_record(Encoder& e, const SummaryRecord& r) {
  e.varint(r.origin);
  e.varint(r.epoch);
  e.varint(r.version);
  e.varint(r.hash_count);
  e.varint(r.entries);
  e.varint(r.age_us);
  e.bytes(r.bits);
}

Result<SummaryRecord> decode_summary_record(Decoder& d) {
  SummaryRecord r;
  auto origin = d.varint();
  if (!origin.ok()) return origin.error();
  r.origin = static_cast<SiteId>(origin.value());
  auto epoch = d.varint();
  if (!epoch.ok()) return epoch.error();
  r.epoch = epoch.value();
  auto version = d.varint();
  if (!version.ok()) return version.error();
  r.version = version.value();
  auto hashes = d.varint();
  if (!hashes.ok()) return hashes.error();
  r.hash_count = static_cast<std::uint32_t>(hashes.value());
  auto entries = d.varint();
  if (!entries.ok()) return entries.error();
  r.entries = entries.value();
  auto age = d.varint();
  if (!age.ok()) return age.error();
  r.age_us = age.value();
  auto bits = d.bytes();
  if (!bits.ok()) return bits.error();
  r.bits = std::move(bits).value();
  return r;
}

void encode_ids(Encoder& e, const std::vector<ObjectId>& ids) {
  e.varint(ids.size());
  for (const auto& id : ids) encode(e, id);
}

Result<std::vector<ObjectId>> decode_ids(Decoder& d) {
  auto n = d.varint();
  if (!n.ok()) return n.error();
  if (n.value() > d.remaining()) {
    return make_error(Errc::kDecode, "id list length exceeds input");
  }
  std::vector<ObjectId> ids;
  ids.reserve(static_cast<std::size_t>(n.value()));
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto id = decode_object_id(d);
    if (!id.ok()) return id.error();
    ids.push_back(id.value());
  }
  return ids;
}

/// encode_envelope's payload buffer: one per thread, reused, so a warmed
/// sender encodes without allocating.
Encoder& payload_encoder() {
  static thread_local Encoder payload;
  return payload;
}

}  // namespace

QueryBody::QueryBody(const Query& query)
    : bytes_(std::make_shared<const Bytes>(encode_query(query))) {}

QueryBody QueryBody::from_bytes(Bytes bytes) {
  QueryBody b;
  b.bytes_ = std::make_shared<const Bytes>(std::move(bytes));
  return b;
}

Result<Query> QueryBody::decode() const { return decode_query(bytes()); }

bool operator==(const QueryBody& a, const QueryBody& b) {
  if (a.bytes_ == b.bytes_) return true;
  const auto x = a.bytes();
  const auto y = b.bytes();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

// The per-tag branches stay in this overload, defined before the other:
// hfverify's codec-symmetry rule diffs the first definition of
// encode_message against decode_message.
void encode_message(const Message& m, Encoder& e) {
  if (const auto* dr = std::get_if<DerefRequest>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kDeref));
    encode_qid(e, dr->qid);
    encode_body(e, dr->query);
    encode(e, dr->oid);
    e.varint(dr->start);
    encode_u32s(e, dr->iter_stack);
    encode_u32s(e, dr->weight);
    e.varint(dr->msg_seq);
    e.varint(dr->hop);
    encode_u32s(e, dr->path);
    encode_spans(e, dr->spans);
  } else if (const auto* sq = std::get_if<StartQuery>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kStart));
    encode_qid(e, sq->qid);
    encode_body(e, sq->query);
    encode_ids(e, sq->ids);
    e.string(sq->local_set_name);
    encode_u32s(e, sq->weight);
    e.varint(sq->msg_seq);
    e.varint(sq->hop);
    encode_u32s(e, sq->path);
  } else if (const auto* rm = std::get_if<ResultMessage>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kResult));
    encode_qid(e, rm->qid);
    encode_ids(e, rm->ids);
    e.varint(rm->values.size());
    for (const auto& rv : rm->values) {
      e.varint(rv.slot);
      encode(e, rv.source);
      encode(e, rv.value);
    }
    e.varint(rm->local_count);
    e.u8(rm->count_only ? 1 : 0);
    encode_u32s(e, rm->weight);
    e.varint(rm->msg_seq);
    e.varint(rm->dropped_items);
    encode_spans(e, rm->spans);
  } else if (const auto* qd = std::get_if<QueryDone>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kDone));
    encode_qid(e, qd->qid);
  } else if (const auto* cr = std::get_if<ClientRequest>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kClientRequest));
    e.varint(cr->client_seq);
    encode(e, cr->query);
  } else if (const auto* mc = std::get_if<MoveCommand>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kMoveCommand));
    e.varint(mc->client_seq);
    encode(e, mc->id);
    e.varint(mc->to);
    e.varint(mc->reply_to);
    e.u8(mc->hops_left);
  } else if (const auto* md = std::get_if<MoveData>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kMoveData));
    encode(e, md->object);
    e.varint(md->reply_to);
    e.varint(md->client_seq);
  } else if (const auto* lu = std::get_if<LocationUpdate>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kLocationUpdate));
    encode(e, lu->id);
    e.varint(lu->now_at);
  } else if (const auto* mr = std::get_if<MoveReply>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kMoveReply));
    e.varint(mr->client_seq);
    e.u8(mr->ok ? 1 : 0);
    e.string(mr->error);
    e.varint(mr->now_at);
  } else if (const auto* pg = std::get_if<PingMessage>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kPing));
    e.u8(pg->want_reply ? 1 : 0);
  } else if (const auto* sm = std::get_if<SummaryMessage>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kSummary));
    e.varint(sm->records.size());
    for (const auto& r : sm->records) encode_summary_record(e, r);
    e.varint(sm->msg_seq);
  } else if (const auto* ws = std::get_if<WalSubscribe>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kWalSubscribe));
    e.varint(ws->follower);
    e.varint(ws->ship_epoch);
    e.varint(ws->wal_offset);
    e.varint(ws->msg_seq);
  } else if (const auto* wg = std::get_if<WalSegment>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kWalSegment));
    e.varint(wg->primary);
    e.varint(wg->ship_epoch);
    e.varint(wg->from_offset);
    e.varint(wg->end_offset);
    e.varint(wg->records.size());
    for (const auto& rec : wg->records) e.bytes(rec);
    e.varint(wg->msg_seq);
  } else if (const auto* wc = std::get_if<WalCatchup>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kWalCatchup));
    e.varint(wc->primary);
    e.varint(wc->ship_epoch);
    e.varint(wc->wal_offset);
    e.bytes(wc->snapshot);
    e.varint(wc->msg_seq);
  } else if (const auto* bd = std::get_if<BatchDerefRequest>(&m)) {
    e.u8(static_cast<std::uint8_t>(Tag::kBatchDeref));
    encode_qid(e, bd->qid);
    encode_body(e, bd->query);
    e.varint(bd->items.size());
    for (const auto& item : bd->items) {
      encode(e, item.oid);
      e.varint(item.start);
      encode_u32s(e, item.iter_stack);
    }
    encode_u32s(e, bd->weight);
    e.varint(bd->msg_seq);
    e.varint(bd->hop);
    encode_u32s(e, bd->path);
    encode_spans(e, bd->spans);
  } else {
    const auto& rp = std::get<ClientReply>(m);
    e.u8(static_cast<std::uint8_t>(Tag::kClientReply));
    e.varint(rp.client_seq);
    e.u8(rp.ok ? 1 : 0);
    e.string(rp.error);
    encode_ids(e, rp.ids);
    e.varint(rp.values.size());
    for (const auto& rv : rp.values) {
      e.varint(rv.slot);
      encode(e, rv.source);
      encode(e, rv.value);
    }
    e.varint(rp.total_count);
    e.u8(rp.count_only ? 1 : 0);
    e.u8(rp.partial ? 1 : 0);
    e.varint(rp.dropped_items);
    encode_qid(e, rp.qid);
    e.varint(rp.elapsed_us);
    encode_spans(e, rp.spans);
  }
}

Bytes encode_message(const Message& m) {
  Encoder e;
  encode_message(m, e);
  return e.take();
}

Result<Message> decode_message(std::span<const std::uint8_t> data) {
  Decoder d(data);
  auto tag = d.u8();
  if (!tag.ok()) return tag.error();
  switch (static_cast<Tag>(tag.value())) {
    case Tag::kDeref: {
      DerefRequest dr;
      auto qid = decode_qid(d);
      if (!qid.ok()) return qid.error();
      dr.qid = qid.value();
      auto body = decode_body(d);
      if (!body.ok()) return body.error();
      dr.query = std::move(body).value();
      auto oid = decode_object_id(d);
      if (!oid.ok()) return oid.error();
      dr.oid = oid.value();
      auto start = d.varint();
      if (!start.ok()) return start.error();
      dr.start = static_cast<std::uint32_t>(start.value());
      auto stack = decode_u32s(d);
      if (!stack.ok()) return stack.error();
      dr.iter_stack = std::move(stack).value();
      auto w = decode_u32s(d);
      if (!w.ok()) return w.error();
      dr.weight = std::move(w).value();
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      dr.msg_seq = seq.value();
      auto hop = d.varint();
      if (!hop.ok()) return hop.error();
      dr.hop = static_cast<std::uint32_t>(hop.value());
      auto path = decode_u32s(d);
      if (!path.ok()) return path.error();
      dr.path = std::move(path).value();
      auto spans = decode_spans(d);
      if (!spans.ok()) return spans.error();
      dr.spans = std::move(spans).value();
      return Message(std::move(dr));
    }
    case Tag::kStart: {
      StartQuery sq;
      auto qid = decode_qid(d);
      if (!qid.ok()) return qid.error();
      sq.qid = qid.value();
      auto body = decode_body(d);
      if (!body.ok()) return body.error();
      sq.query = std::move(body).value();
      auto ids = decode_ids(d);
      if (!ids.ok()) return ids.error();
      sq.ids = std::move(ids).value();
      auto name = d.string();
      if (!name.ok()) return name.error();
      sq.local_set_name = std::move(name).value();
      auto w = decode_u32s(d);
      if (!w.ok()) return w.error();
      sq.weight = std::move(w).value();
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      sq.msg_seq = seq.value();
      auto hop = d.varint();
      if (!hop.ok()) return hop.error();
      sq.hop = static_cast<std::uint32_t>(hop.value());
      auto path = decode_u32s(d);
      if (!path.ok()) return path.error();
      sq.path = std::move(path).value();
      return Message(std::move(sq));
    }
    case Tag::kResult: {
      ResultMessage rm;
      auto qid = decode_qid(d);
      if (!qid.ok()) return qid.error();
      rm.qid = qid.value();
      auto ids = decode_ids(d);
      if (!ids.ok()) return ids.error();
      rm.ids = std::move(ids).value();
      auto nvals = d.varint();
      if (!nvals.ok()) return nvals.error();
      if (nvals.value() > d.remaining()) {
        return make_error(Errc::kDecode, "value list length exceeds input");
      }
      for (std::uint64_t i = 0; i < nvals.value(); ++i) {
        RetrievedValue rv;
        auto slot = d.varint();
        if (!slot.ok()) return slot.error();
        rv.slot = static_cast<std::uint32_t>(slot.value());
        auto src = decode_object_id(d);
        if (!src.ok()) return src.error();
        rv.source = src.value();
        auto val = decode_value(d);
        if (!val.ok()) return val.error();
        rv.value = std::move(val).value();
        rm.values.push_back(std::move(rv));
      }
      auto count = d.varint();
      if (!count.ok()) return count.error();
      rm.local_count = count.value();
      auto co = d.u8();
      if (!co.ok()) return co.error();
      rm.count_only = co.value() != 0;
      auto w = decode_u32s(d);
      if (!w.ok()) return w.error();
      rm.weight = std::move(w).value();
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      rm.msg_seq = seq.value();
      auto dropped = d.varint();
      if (!dropped.ok()) return dropped.error();
      rm.dropped_items = dropped.value();
      auto spans = decode_spans(d);
      if (!spans.ok()) return spans.error();
      rm.spans = std::move(spans).value();
      return Message(std::move(rm));
    }
    case Tag::kDone: {
      QueryDone qd;
      auto qid = decode_qid(d);
      if (!qid.ok()) return qid.error();
      qd.qid = qid.value();
      return Message(qd);
    }
    case Tag::kClientRequest: {
      ClientRequest cr;
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      cr.client_seq = seq.value();
      auto q = decode_query(d);
      if (!q.ok()) return q.error();
      cr.query = std::move(q).value();
      return Message(std::move(cr));
    }
    case Tag::kClientReply: {
      ClientReply rp;
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      rp.client_seq = seq.value();
      auto ok = d.u8();
      if (!ok.ok()) return ok.error();
      rp.ok = ok.value() != 0;
      auto err = d.string();
      if (!err.ok()) return err.error();
      rp.error = std::move(err).value();
      auto ids = decode_ids(d);
      if (!ids.ok()) return ids.error();
      rp.ids = std::move(ids).value();
      auto nvals = d.varint();
      if (!nvals.ok()) return nvals.error();
      if (nvals.value() > d.remaining()) {
        return make_error(Errc::kDecode, "value list length exceeds input");
      }
      for (std::uint64_t i = 0; i < nvals.value(); ++i) {
        RetrievedValue rv;
        auto slot = d.varint();
        if (!slot.ok()) return slot.error();
        rv.slot = static_cast<std::uint32_t>(slot.value());
        auto src = decode_object_id(d);
        if (!src.ok()) return src.error();
        rv.source = src.value();
        auto val = decode_value(d);
        if (!val.ok()) return val.error();
        rv.value = std::move(val).value();
        rp.values.push_back(std::move(rv));
      }
      auto count = d.varint();
      if (!count.ok()) return count.error();
      rp.total_count = count.value();
      auto co = d.u8();
      if (!co.ok()) return co.error();
      rp.count_only = co.value() != 0;
      auto partial = d.u8();
      if (!partial.ok()) return partial.error();
      rp.partial = partial.value() != 0;
      auto dropped = d.varint();
      if (!dropped.ok()) return dropped.error();
      rp.dropped_items = dropped.value();
      auto qid = decode_qid(d);
      if (!qid.ok()) return qid.error();
      rp.qid = qid.value();
      auto elapsed = d.varint();
      if (!elapsed.ok()) return elapsed.error();
      rp.elapsed_us = elapsed.value();
      auto spans = decode_spans(d);
      if (!spans.ok()) return spans.error();
      rp.spans = std::move(spans).value();
      return Message(std::move(rp));
    }
    case Tag::kBatchDeref: {
      BatchDerefRequest bd;
      auto qid = decode_qid(d);
      if (!qid.ok()) return qid.error();
      bd.qid = qid.value();
      auto body = decode_body(d);
      if (!body.ok()) return body.error();
      bd.query = std::move(body).value();
      auto n = d.varint();
      if (!n.ok()) return n.error();
      if (n.value() > d.remaining()) {
        return make_error(Errc::kDecode, "batch length exceeds input");
      }
      for (std::uint64_t i = 0; i < n.value(); ++i) {
        DerefEntry item;
        auto oid = decode_object_id(d);
        if (!oid.ok()) return oid.error();
        item.oid = oid.value();
        auto start = d.varint();
        if (!start.ok()) return start.error();
        item.start = static_cast<std::uint32_t>(start.value());
        auto stack = decode_u32s(d);
        if (!stack.ok()) return stack.error();
        item.iter_stack = std::move(stack).value();
        bd.items.push_back(std::move(item));
      }
      auto w = decode_u32s(d);
      if (!w.ok()) return w.error();
      bd.weight = std::move(w).value();
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      bd.msg_seq = seq.value();
      auto hop = d.varint();
      if (!hop.ok()) return hop.error();
      bd.hop = static_cast<std::uint32_t>(hop.value());
      auto path = decode_u32s(d);
      if (!path.ok()) return path.error();
      bd.path = std::move(path).value();
      auto spans = decode_spans(d);
      if (!spans.ok()) return spans.error();
      bd.spans = std::move(spans).value();
      return Message(std::move(bd));
    }
    case Tag::kMoveCommand: {
      MoveCommand mc;
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      mc.client_seq = seq.value();
      auto id = decode_object_id(d);
      if (!id.ok()) return id.error();
      mc.id = id.value();
      auto to = d.varint();
      if (!to.ok()) return to.error();
      mc.to = static_cast<SiteId>(to.value());
      auto reply_to = d.varint();
      if (!reply_to.ok()) return reply_to.error();
      mc.reply_to = static_cast<SiteId>(reply_to.value());
      auto hops = d.u8();
      if (!hops.ok()) return hops.error();
      mc.hops_left = hops.value();
      return Message(mc);
    }
    case Tag::kMoveData: {
      MoveData md;
      auto obj = decode_object(d);
      if (!obj.ok()) return obj.error();
      md.object = std::move(obj).value();
      auto reply_to = d.varint();
      if (!reply_to.ok()) return reply_to.error();
      md.reply_to = static_cast<SiteId>(reply_to.value());
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      md.client_seq = seq.value();
      return Message(std::move(md));
    }
    case Tag::kLocationUpdate: {
      LocationUpdate lu;
      auto id = decode_object_id(d);
      if (!id.ok()) return id.error();
      lu.id = id.value();
      auto at = d.varint();
      if (!at.ok()) return at.error();
      lu.now_at = static_cast<SiteId>(at.value());
      return Message(lu);
    }
    case Tag::kMoveReply: {
      MoveReply mr;
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      mr.client_seq = seq.value();
      auto ok = d.u8();
      if (!ok.ok()) return ok.error();
      mr.ok = ok.value() != 0;
      auto err = d.string();
      if (!err.ok()) return err.error();
      mr.error = std::move(err).value();
      auto at = d.varint();
      if (!at.ok()) return at.error();
      mr.now_at = static_cast<SiteId>(at.value());
      return Message(std::move(mr));
    }
    case Tag::kPing: {
      auto want = d.u8();
      if (!want.ok()) return want.error();
      return Message(PingMessage{want.value() != 0});
    }
    case Tag::kSummary: {
      SummaryMessage sm;
      auto n = d.varint();
      if (!n.ok()) return n.error();
      if (n.value() > d.remaining()) {
        return make_error(Errc::kDecode, "summary list length exceeds input");
      }
      for (std::uint64_t i = 0; i < n.value(); ++i) {
        auto r = decode_summary_record(d);
        if (!r.ok()) return r.error();
        sm.records.push_back(std::move(r).value());
      }
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      sm.msg_seq = seq.value();
      return Message(std::move(sm));
    }
    case Tag::kWalSubscribe: {
      WalSubscribe ws;
      auto follower = d.varint();
      if (!follower.ok()) return follower.error();
      ws.follower = static_cast<SiteId>(follower.value());
      auto epoch = d.varint();
      if (!epoch.ok()) return epoch.error();
      ws.ship_epoch = epoch.value();
      auto offset = d.varint();
      if (!offset.ok()) return offset.error();
      ws.wal_offset = offset.value();
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      ws.msg_seq = seq.value();
      return Message(ws);
    }
    case Tag::kWalSegment: {
      WalSegment wg;
      auto primary = d.varint();
      if (!primary.ok()) return primary.error();
      wg.primary = static_cast<SiteId>(primary.value());
      auto epoch = d.varint();
      if (!epoch.ok()) return epoch.error();
      wg.ship_epoch = epoch.value();
      auto from = d.varint();
      if (!from.ok()) return from.error();
      wg.from_offset = from.value();
      auto end = d.varint();
      if (!end.ok()) return end.error();
      wg.end_offset = end.value();
      auto n = d.varint();
      if (!n.ok()) return n.error();
      if (n.value() > d.remaining()) {
        return make_error(Errc::kDecode, "record list length exceeds input");
      }
      for (std::uint64_t i = 0; i < n.value(); ++i) {
        auto rec = d.bytes();
        if (!rec.ok()) return rec.error();
        wg.records.push_back(std::move(rec).value());
      }
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      wg.msg_seq = seq.value();
      return Message(std::move(wg));
    }
    case Tag::kWalCatchup: {
      WalCatchup wc;
      auto primary = d.varint();
      if (!primary.ok()) return primary.error();
      wc.primary = static_cast<SiteId>(primary.value());
      auto epoch = d.varint();
      if (!epoch.ok()) return epoch.error();
      wc.ship_epoch = epoch.value();
      auto offset = d.varint();
      if (!offset.ok()) return offset.error();
      wc.wal_offset = offset.value();
      auto snap = d.bytes();
      if (!snap.ok()) return snap.error();
      wc.snapshot = std::move(snap).value();
      auto seq = d.varint();
      if (!seq.ok()) return seq.error();
      wc.msg_seq = seq.value();
      return Message(std::move(wc));
    }
  }
  return make_error(Errc::kDecode,
                    "unknown message tag " + std::to_string(tag.value()));
}

void encode_envelope(const Envelope& env, Encoder& e) {
  Encoder& payload = payload_encoder();
  payload.clear();
  encode_message(env.message, payload);
  e.clear();
  e.varint(env.src);
  e.varint(env.dst);
  e.bytes(payload.bytes());
}

Bytes encode_envelope(const Envelope& env) {
  Encoder e;
  encode_envelope(env, e);
  return e.take();
}

Result<Envelope> decode_envelope(std::span<const std::uint8_t> data) {
  Decoder d(data);
  auto src = d.varint();
  if (!src.ok()) return src.error();
  auto dst = d.varint();
  if (!dst.ok()) return dst.error();
  auto payload = d.bytes();
  if (!payload.ok()) return payload.error();
  auto m = decode_message(payload.value());
  if (!m.ok()) return m.error();
  return Envelope{static_cast<SiteId>(src.value()),
                  static_cast<SiteId>(dst.value()), std::move(m).value()};
}

}  // namespace hyperfile::wire
