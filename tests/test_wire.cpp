#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "query/builder.hpp"
#include "query/parser.hpp"
#include "wire/message.hpp"
#include "wire/serialize.hpp"

namespace hyperfile::wire {
namespace {

TEST(Codec, VarintRoundTrip) {
  Encoder e;
  const std::uint64_t values[] = {0,       1,        127,        128,
                                  16384,   1u << 20, 1ull << 40, UINT64_MAX};
  for (auto v : values) e.varint(v);
  Decoder d(e.bytes());
  for (auto v : values) {
    auto got = d.varint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
  }
  EXPECT_TRUE(d.done());
}

TEST(Codec, SignedVarintRoundTrip) {
  Encoder e;
  const std::int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (auto v : values) e.svarint(v);
  Decoder d(e.bytes());
  for (auto v : values) {
    auto got = d.svarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
  }
}

TEST(Codec, StringAndBytes) {
  Encoder e;
  e.string("hello");
  e.string("");
  e.bytes(std::vector<std::uint8_t>{1, 2, 3});
  Decoder d(e.bytes());
  EXPECT_EQ(d.string().value(), "hello");
  EXPECT_EQ(d.string().value(), "");
  EXPECT_EQ(d.bytes().value().size(), 3u);
  EXPECT_TRUE(d.done());
}

TEST(Codec, TruncatedInputFailsCleanly) {
  Encoder e;
  e.string("hello world");
  auto bytes = e.take();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder d(std::span(bytes.data(), cut));
    EXPECT_FALSE(d.string().ok()) << "cut=" << cut;
  }
}

TEST(Codec, OverlongVarintRejected) {
  // 11 continuation bytes exceed a 64-bit varint.
  Bytes bad(11, 0x80);
  Decoder d(bad);
  EXPECT_FALSE(d.varint().ok());
}

TEST(Serialize, ValueRoundTripAllKinds) {
  const Value values[] = {
      Value(),
      Value::string(std::string("embedded\0nul", 12)),
      Value::number(-1234567),
      Value::pointer(ObjectId(3, 99, 7)),
      Value::blob({0, 255, 1, 254}),
  };
  for (const Value& v : values) {
    Encoder e;
    encode(e, v);
    Decoder d(e.bytes());
    auto got = decode_value(d);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
    if (v.is_pointer()) {
      EXPECT_TRUE(got.value().as_pointer().identical(v.as_pointer()));
    }
  }
}

TEST(Serialize, ObjectRoundTrip) {
  Object obj(ObjectId(2, 5));
  obj.add(Tuple::string("Title", "Main Program for Sort routine"));
  obj.add(Tuple::string("Author", "Joe Programmer"));
  obj.add(Tuple::text("Description", "<Arbitrary text description>"));
  obj.add(Tuple::pointer("Called Routine", ObjectId(1, 3)));
  obj.add(Tuple::pointer("Library", ObjectId(0, 8, 4)));

  Encoder e;
  encode(e, obj);
  Decoder d(e.bytes());
  auto got = decode_object(d);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), obj);
}

TEST(Serialize, QueryRoundTrip) {
  auto q = parse_query(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "Distributed", ?) (string, "Title", ->t) -> T)");
  ASSERT_TRUE(q.ok());
  auto bytes = encode_query(q.value());
  auto got = decode_query(bytes);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got.value(), q.value());
}

TEST(Serialize, QueryWithAllPatternKindsRoundTrips) {
  auto q = parse_query(
      R"({1.2} (number, "Y", [10..20]) (/re/, ?, ?B) (string, $B, -42) count -> R)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  auto got = decode_query(encode_query(q.value()));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), q.value());
}

TEST(Serialize, PaperQueryIsSmall) {
  // "Our messages send only the query (about 40 bytes for the experiments
  // presented here)". Our encoding of the experiment query should be the
  // same order of magnitude — well under 200 bytes.
  auto q = parse_query(
      R"(Root [ (pointer, "Tree", ?X) | ^X ]* (skey, "Rand10p", 5) -> T)");
  ASSERT_TRUE(q.ok());
  const auto bytes = encode_query(q.value());
  EXPECT_LT(bytes.size(), 100u);
  EXPECT_GT(bytes.size(), 20u);
}

TraceSpan wire_test_span() {
  TraceSpan s;
  s.site = 1;
  s.first_hop = 2;
  s.path = {0, 2, 1};
  s.messages = 11;
  s.duplicates = 3;
  s.items = 40;
  s.forwarded = 9;
  s.results = 6;
  s.drains = 4;
  s.drain_us = 12345;
  s.retries = 2;
  s.suspicions = 1;
  s.pruned = 5;
  s.failovers = 2;
  s.replica_lag = 1;
  return s;
}

TEST(Messages, DerefRequestRoundTrip) {
  DerefRequest dr;
  dr.qid = {4, 77};
  dr.query = parse_query(R"(S (?, ?, ?) -> T)").value();
  dr.oid = ObjectId(1, 9, 2);
  dr.start = 3;
  dr.iter_stack = {1, 4, 2};
  dr.weight = {0, 5, 9};
  dr.msg_seq = 0xDEADBEEFull;
  dr.hop = 3;
  dr.path = {0, 4, 1};
  dr.spans = {wire_test_span(), wire_test_span()};  // a weight-carrying one
  dr.spans[1].site = 4;
  auto got = decode_message(encode_message(dr));
  ASSERT_TRUE(got.ok());
  const auto& back = std::get<DerefRequest>(got.value());
  EXPECT_EQ(back.qid, dr.qid);
  EXPECT_EQ(back.query, dr.query);
  EXPECT_TRUE(back.oid.identical(dr.oid));
  EXPECT_EQ(back.start, dr.start);
  EXPECT_EQ(back.iter_stack, dr.iter_stack);
  EXPECT_EQ(back.weight, dr.weight);
  EXPECT_EQ(back.msg_seq, dr.msg_seq);
  EXPECT_EQ(back.hop, 3u);
  EXPECT_EQ(back.path, dr.path);
  EXPECT_EQ(back.spans, dr.spans);
}

TEST(Messages, StartQueryRoundTrip) {
  StartQuery sq;
  sq.qid = {0, 1};
  sq.query = parse_query(R"(S (?, ?, ?) count -> T)").value();
  sq.ids = {ObjectId(0, 1), ObjectId(2, 3)};
  sq.local_set_name = "T";
  sq.weight = {2};
  sq.msg_seq = 41;
  sq.hop = 1;
  sq.path = {6};
  auto got = decode_message(encode_message(sq));
  ASSERT_TRUE(got.ok());
  const auto& back = std::get<StartQuery>(got.value());
  EXPECT_EQ(back.ids, sq.ids);
  EXPECT_EQ(back.local_set_name, "T");
  EXPECT_EQ(back.msg_seq, 41u);
  EXPECT_EQ(back.hop, 1u);
  EXPECT_EQ(back.path, sq.path);
}

TEST(Messages, ResultMessageRoundTrip) {
  ResultMessage rm;
  rm.qid = {1, 2};
  rm.ids = {ObjectId(3, 4)};
  rm.values = {{0, ObjectId(3, 4), Value::string("A Title")},
               {1, ObjectId(3, 4), Value::number(7)}};
  rm.local_count = 12;
  rm.count_only = true;
  rm.weight = {1, 3};
  rm.msg_seq = 99;
  rm.dropped_items = 4;
  rm.spans = {wire_test_span()};
  auto got = decode_message(encode_message(rm));
  ASSERT_TRUE(got.ok());
  const auto& back = std::get<ResultMessage>(got.value());
  EXPECT_EQ(back.ids, rm.ids);
  EXPECT_EQ(back.values, rm.values);
  EXPECT_EQ(back.local_count, 12u);
  EXPECT_TRUE(back.count_only);
  EXPECT_EQ(back.weight, rm.weight);
  EXPECT_EQ(back.msg_seq, 99u);
  EXPECT_EQ(back.dropped_items, 4u);
  EXPECT_EQ(back.spans, rm.spans);
}

TEST(Messages, BatchDerefRoundTrip) {
  BatchDerefRequest bd;
  bd.qid = {2, 9};
  bd.query = parse_query(R"(S (?, ?, ?) -> T)").value();
  bd.items = {{ObjectId(0, 1), 3, {1, 2}}, {ObjectId(1, 7, 2), 1, {4}}};
  bd.weight = {3, 5};
  bd.msg_seq = 17;
  bd.hop = 2;
  bd.path = {0, 1};
  bd.spans = {wire_test_span()};
  auto got = decode_message(encode_message(bd));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  const auto& back = std::get<BatchDerefRequest>(got.value());
  EXPECT_EQ(back.qid, bd.qid);
  EXPECT_EQ(back.items, bd.items);
  EXPECT_EQ(back.hop, 2u);
  EXPECT_EQ(back.path, bd.path);
  EXPECT_EQ(back.weight, bd.weight);
  EXPECT_EQ(back.msg_seq, 17u);
  EXPECT_EQ(back.spans, bd.spans);
  EXPECT_TRUE(back.items[1].oid.identical(bd.items[1].oid));
}

TEST(Messages, PingRoundTrip) {
  for (bool want_reply : {true, false}) {
    PingMessage ping{want_reply};
    auto got = decode_message(encode_message(ping));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    const auto& back = std::get<PingMessage>(got.value());
    EXPECT_EQ(back.want_reply, want_reply);
  }
}

TEST(Messages, ReservedTag8NeverDecodes) {
  // Tag 8 was the retired Dijkstra-Scholten TermAck. It stays reserved: a
  // frame carrying it, here with the old qid {3, 8} and msg_seq 512 payload,
  // is an error, never some other message.
  const Bytes frame = {8, 3, 8, 0x80, 0x04};
  auto got = decode_message(frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, Errc::kDecode);
}

TEST(Messages, ClientMessagesRoundTrip) {
  ClientRequest cr;
  cr.client_seq = 5;
  cr.query = parse_query(R"(S (?, ?, ?) -> T)").value();
  auto got = decode_message(encode_message(cr));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::get<ClientRequest>(got.value()).client_seq, 5u);

  ClientReply rp;
  rp.client_seq = 5;
  rp.ok = false;
  rp.error = "not_found: no set named 'S'";
  rp.total_count = 3;
  rp.partial = true;
  rp.dropped_items = 2;
  rp.qid = {5, 44};
  rp.elapsed_us = 987654;
  rp.spans = {wire_test_span(), wire_test_span()};
  rp.spans[1].site = 0;
  rp.spans[1].path.clear();  // empty paths must survive the wire too
  auto got2 = decode_message(encode_message(rp));
  ASSERT_TRUE(got2.ok());
  const auto& back = std::get<ClientReply>(got2.value());
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, rp.error);
  EXPECT_EQ(back.qid, rp.qid);
  EXPECT_EQ(back.elapsed_us, 987654u);
  EXPECT_EQ(back.spans, rp.spans);
  EXPECT_EQ(back.total_count, 3u);
  EXPECT_TRUE(back.partial);
  EXPECT_EQ(back.dropped_items, 2u);
}

TEST(Messages, SummaryMessageRoundTripFuzz) {
  // Summaries carry raw Bloom bitmaps; fuzz the shapes (empty record list,
  // empty bitmap, multi-record gossip) through the codec.
  Rng rng(0x5157);
  for (int trial = 0; trial < 200; ++trial) {
    SummaryMessage sm;
    const std::size_t nrecords = rng.next_below(4);
    for (std::size_t r = 0; r < nrecords; ++r) {
      SummaryRecord rec;
      rec.origin = static_cast<SiteId>(rng.next_below(8));
      rec.epoch = rng.next_u64() % 1000;
      rec.version = rng.next_u64() % 100000;
      rec.hash_count = static_cast<std::uint32_t>(rng.next_below(16));
      rec.entries = rng.next_u64() % 5000;
      rec.age_us = rng.next_u64();  // full range: ages are unvalidated here
      rec.bits.resize(rng.next_below(512));
      for (auto& b : rec.bits) b = static_cast<std::uint8_t>(rng.next_u64());
      sm.records.push_back(std::move(rec));
    }
    sm.msg_seq = rng.next_u64() % 100000;
    auto got = decode_message(encode_message(sm));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    const auto& back = std::get<SummaryMessage>(got.value());
    EXPECT_EQ(back.records, sm.records);
    EXPECT_EQ(back.msg_seq, sm.msg_seq);
  }
}

TEST(Messages, TruncatedSummaryRejected) {
  SummaryMessage sm;
  SummaryRecord rec;
  rec.origin = 3;
  rec.epoch = 2;
  rec.version = 41;
  rec.hash_count = 7;
  rec.entries = 12;
  rec.age_us = 123456;
  rec.bits = {0xde, 0xad, 0xbe, 0xef};
  sm.records = {rec, rec};
  sm.msg_seq = 9;
  auto bytes = encode_message(sm);
  for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_message(std::span(bytes.data(), cut)).ok());
  }
}

TEST(Messages, WalSubscribeRoundTrip) {
  WalSubscribe ws;
  ws.follower = 3;
  ws.ship_epoch = 17;
  ws.wal_offset = 123456789;
  ws.msg_seq = 0;  // subscribes ride unsequenced (idempotent, DESIGN.md §18)
  auto got = decode_message(encode_message(ws));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  const auto& back = std::get<WalSubscribe>(got.value());
  EXPECT_EQ(back.follower, ws.follower);
  EXPECT_EQ(back.ship_epoch, ws.ship_epoch);
  EXPECT_EQ(back.wal_offset, ws.wal_offset);
  EXPECT_EQ(back.msg_seq, ws.msg_seq);
}

TEST(Messages, WalSegmentRoundTripFuzz) {
  // Segments carry raw redo-record payloads; fuzz the shapes (empty record
  // list, empty payloads, multi-record batches, offset extremes).
  Rng rng(0x9A17);
  for (int trial = 0; trial < 200; ++trial) {
    WalSegment wg;
    wg.primary = static_cast<SiteId>(rng.next_below(8));
    wg.ship_epoch = rng.next_u64() % 1000;
    wg.from_offset = rng.next_u64();
    wg.end_offset = wg.from_offset + rng.next_u64() % 100000;
    const std::size_t nrecords = rng.next_below(6);
    for (std::size_t r = 0; r < nrecords; ++r) {
      Bytes payload(rng.next_below(128));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      wg.records.push_back(std::move(payload));
    }
    wg.msg_seq = rng.next_u64() % 100000;
    auto got = decode_message(encode_message(wg));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    const auto& back = std::get<WalSegment>(got.value());
    EXPECT_EQ(back.primary, wg.primary);
    EXPECT_EQ(back.ship_epoch, wg.ship_epoch);
    EXPECT_EQ(back.from_offset, wg.from_offset);
    EXPECT_EQ(back.end_offset, wg.end_offset);
    EXPECT_EQ(back.records, wg.records);
    EXPECT_EQ(back.msg_seq, wg.msg_seq);
  }
}

TEST(Messages, WalCatchupRoundTrip) {
  WalCatchup wc;
  wc.primary = 5;
  wc.ship_epoch = 3;
  wc.wal_offset = 0;
  wc.snapshot = {0x01, 0x00, 0xff, 0x7e, 0x00, 0x42};
  wc.msg_seq = 77;
  auto got = decode_message(encode_message(wc));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  const auto& back = std::get<WalCatchup>(got.value());
  EXPECT_EQ(back.primary, wc.primary);
  EXPECT_EQ(back.ship_epoch, wc.ship_epoch);
  EXPECT_EQ(back.wal_offset, wc.wal_offset);
  EXPECT_EQ(back.snapshot, wc.snapshot);
  EXPECT_EQ(back.msg_seq, wc.msg_seq);
}

TEST(Messages, TruncatedReplicationMessagesRejected) {
  // Every strict prefix of each replication message must fail cleanly:
  // a torn frame must never decode into a shorter-but-valid segment.
  WalSegment wg;
  wg.primary = 2;
  wg.ship_epoch = 4;
  wg.from_offset = 1000;
  wg.end_offset = 1064;
  wg.records = {{0xde, 0xad}, {}, {0xbe, 0xef, 0x00}};
  wg.msg_seq = 31;
  WalCatchup wc;
  wc.primary = 2;
  wc.ship_epoch = 5;
  wc.wal_offset = 64;
  wc.snapshot = {0x10, 0x20, 0x30};
  wc.msg_seq = 32;
  WalSubscribe ws;
  ws.follower = 1;
  ws.ship_epoch = 4;
  ws.wal_offset = 1000;
  for (const Message m : {Message(wg), Message(wc), Message(ws)}) {
    auto bytes = encode_message(m);
    for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
      EXPECT_FALSE(decode_message(std::span(bytes.data(), cut)).ok());
    }
  }
}

TEST(Messages, QueryDoneAndEnvelopeRoundTrip) {
  Envelope env{7, 2, QueryDone{{7, 123}}};
  auto got = decode_envelope(encode_envelope(env));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().src, 7u);
  EXPECT_EQ(got.value().dst, 2u);
  EXPECT_EQ(std::get<QueryDone>(got.value().message).qid, (QueryId{7, 123}));
}

TEST(Messages, FuzzDecodeNeverCrashes) {
  // Random bytes must be rejected gracefully, never crash or hang.
  Rng rng(0xFEED);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)decode_message(junk);
    (void)decode_envelope(junk);
  }
  SUCCEED();
}

TEST(Messages, TruncatedRealMessageRejected) {
  DerefRequest dr;
  dr.qid = {4, 77};
  dr.query = parse_query(R"(S (?, ?, ?) -> T)").value();
  dr.oid = ObjectId(1, 9);
  auto bytes = encode_message(dr);
  for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_message(std::span(bytes.data(), cut)).ok());
  }

  // The other two frames that carry a query body: its length prefix is
  // what makes a cut inside the body visible.
  StartQuery sq;
  sq.qid = {0, 1};
  sq.query = parse_query(R"(S (?, ?, ?) count -> T)").value();
  sq.ids = {ObjectId(0, 1)};
  sq.local_set_name = "T";
  sq.weight = {2};
  sq.path = {6};
  BatchDerefRequest bd;
  bd.qid = {2, 9};
  bd.query = parse_query(R"(S [ (pointer, "R", ?X) | ^^X ]* -> T)").value();
  bd.items = {{ObjectId(0, 1), 3, {1, 2}}};
  bd.weight = {3};
  bd.path = {0, 1};
  const std::vector<Message> frames = {sq, bd};
  for (const Message& m : frames) {
    const Bytes frame = encode_message(m);
    ASSERT_TRUE(decode_message(frame).ok());
    for (std::size_t cut = 0; cut + 1 < frame.size(); ++cut) {
      EXPECT_FALSE(decode_message(std::span(frame.data(), cut)).ok())
          << "variant " << m.index() << " cut at " << cut;
    }
  }
}

TEST(Messages, QueryBodyIsEncodedOnceAndShared) {
  const Query q =
      parse_query(R"(S [ (pointer, "R", ?X) | ^^X ]* (keyword, "k", ?) -> T)")
          .value();
  const QueryBody body(q);
  EXPECT_TRUE(std::ranges::equal(body.bytes(), encode_query(q)));
  auto back = body.decode();
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), q);
  // A copy shares the bytes instead of copying them.
  const QueryBody copy = body;
  EXPECT_EQ(copy.bytes().data(), body.bytes().data());
  EXPECT_EQ(copy, body);
  EXPECT_NE(QueryBody(parse_query(R"(S -> T)").value()), body);
  // No bytes at all is a body that never decodes.
  EXPECT_TRUE(QueryBody().bytes().empty());
  EXPECT_FALSE(QueryBody().decode().ok());
}

TEST(Messages, CorruptBodyPassesTheFrameButNotItsDecode) {
  // decode_message copies a body without parsing it, so a body corrupt at
  // an honest length leaves the frame well formed; only the body's own
  // decode, run when a site installs the query, rejects it.
  const Bytes good =
      encode_query(parse_query(R"(S (keyword, "k", ?) -> T)").value());
  Bytes truncated(good.begin(), good.end() - 1);
  Bytes trailing = good;
  trailing.push_back(0);
  Query unbound;  // dereferences a variable no filter binds
  unbound.add_filter(DerefFilter{"X", false});
  ASSERT_FALSE(unbound.validate().ok());
  const std::vector<QueryBody> corrupt = {
      QueryBody::from_bytes(truncated), QueryBody::from_bytes(trailing),
      QueryBody(unbound)};
  for (const QueryBody& body : corrupt) {
    DerefRequest dr;
    dr.qid = {4, 77};
    dr.query = body;
    dr.oid = ObjectId(1, 9);
    dr.weight = {1};
    auto got = decode_message(encode_message(dr));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    const auto& back = std::get<DerefRequest>(got.value());
    EXPECT_EQ(back.query, body);
    EXPECT_EQ(back.weight, dr.weight);
    EXPECT_FALSE(back.query.decode().ok());
  }
  EXPECT_TRUE(QueryBody::from_bytes(good).decode().ok());
}

}  // namespace
}  // namespace hyperfile::wire
