// Heap allocations on a dereference hop: the frame encoder, the in-process
// send, and the engine's match bindings. This binary replaces the global
// operator new and delete with counting wrappers around malloc and free, so
// it stays apart from the other tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "engine/work_item.hpp"
#include "net/inproc.hpp"
#include "query/parser.hpp"
#include "wire/message.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// The replacements below pair malloc with free, which GCC cannot see
// through the operator names.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hyperfile::wire {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(EncodeEnvelope, CountingAllocatorSeesAllocations) {
  // The check below can fail: a heap allocation is counted. The pointer
  // escapes through a volatile, so the compiler may not elide the new and
  // delete pair (C++14 lets it when nothing observes the object).
  static Bytes* volatile escaped = nullptr;
  const std::size_t n = allocations_of([] {
    escaped = new Bytes(64);
    delete escaped;
  });
  EXPECT_EQ(n, 2u);  // the vector object and its buffer
}

TEST(EncodeEnvelope, WarmedEncodeDoesNotAllocate) {
  // The frames a chain query sends most: a dereference carrying the
  // rewritten closure query (one weight-carrying, with a span), a batch,
  // and a result.
  DerefRequest dr;
  dr.qid = {0, 1};
  dr.query = parse_query(
                 R"(Root [ (pointer, "Chain", ?X) | ^^X ]* (skey, "Rand10p", 5) -> T3)")
                 .value();
  dr.oid = ObjectId(1, 42, 2);
  dr.iter_stack = {1};
  dr.weight = {9};
  dr.msg_seq = 42;
  dr.hop = 3;
  dr.path = {0, 1, 2};
  DerefRequest carrier = dr;
  TraceSpan span;
  span.site = 1;
  span.path = {0, 1};
  span.forwarded = 90;
  carrier.spans = {span};
  BatchDerefRequest bd;
  bd.qid = dr.qid;
  bd.query = dr.query;
  bd.items = {{ObjectId(1, 7), 3, {1, 2}}, {ObjectId(2, 8), 1, {}}};
  bd.weight = {4, 6};
  ResultMessage rm;
  rm.qid = dr.qid;
  rm.ids = {ObjectId(1, 3), ObjectId(2, 5)};
  rm.weight = {2};
  rm.spans = {span};
  const std::vector<Message> frames = {dr, carrier, bd, rm};
  for (const Message& m : frames) {
    const Envelope env{1, 2, m};
    Encoder out;
    encode_envelope(env, out);  // out and the payload encoder grow here
    const Bytes want = out.bytes();
    const std::size_t n = allocations_of([&] {
      for (int i = 0; i < 100; ++i) encode_envelope(env, out);
    });
    EXPECT_EQ(n, 0u) << "variant " << m.index();
    EXPECT_EQ(out.bytes(), want);
    auto back = decode_envelope(out.bytes());
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value().message.index(), m.index());
  }
}

TEST(InProcSend, AllocatesOnlyTheFrameAndDecodesAtTheReceiver) {
  // The sender encodes and queues a copy of the frame; the decoded message,
  // and every block it owns, is allocated by the receiving endpoint's recv.
  InProcNetwork net(2);
  auto a = net.endpoint(0);
  auto b = net.endpoint(1);
  DerefRequest dr;
  dr.qid = {0, 1};
  dr.query = parse_query(
                 R"(Root [ (pointer, "Chain", ?X) | ^^X ]* (skey, "Rand10p", 5) -> T3)")
                 .value();
  dr.oid = ObjectId(1, 42, 1);
  dr.iter_stack = {1, 2};
  dr.weight = {9};
  dr.msg_seq = 42;
  dr.hop = 3;
  dr.path = {0, 1};
  const Message sent = dr;
  const Bytes want = encode_message(sent);
  ASSERT_TRUE(a->send(1, sent).ok());  // warm the encoders and the mailbox
  ASSERT_TRUE(b->recv(Duration(1'000'000)).has_value());

  std::size_t most = 0;
  for (int i = 0; i < 64; ++i) {  // a mailbox node holds many frames
    const std::size_t n = allocations_of([&] {
      ASSERT_TRUE(a->send(1, sent).ok());
    });
    most = std::max(most, n);
    auto got = b->recv(Duration(1'000'000));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->src, 0u);
    EXPECT_EQ(got->dst, 1u);
    ASSERT_EQ(got->message.index(), sent.index());
    EXPECT_EQ(encode_message(got->message), want);
  }
  EXPECT_LE(most, 2u);  // the frame, and now and then a mailbox node
}

TEST(MatchBindings, WarmedTableRebindsWithoutAllocating) {
  MatchBindings b;
  b.bind("X", Value::pointer(ObjectId(1, 1)));
  const std::size_t n = allocations_of([&] {
    for (std::uint64_t i = 2; i < 100; ++i) {
      b.clear();
      b.bind("X", Value::pointer(ObjectId(1, i)));
    }
  });
  EXPECT_EQ(n, 0u);
  ASSERT_NE(b.lookup("X"), nullptr);
  EXPECT_EQ(*b.lookup("X"), std::vector<Value>{Value::pointer(ObjectId(1, 99))});
}

}  // namespace
}  // namespace hyperfile::wire
