#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/metrics.hpp"
#include "engine/local_engine.hpp"
#include "net/inproc.hpp"
#include "query/parser.hpp"
#include "query/rewrite.hpp"
#include "store/wal.hpp"
#include "term/weight.hpp"
#include "wire/codec.hpp"
#include "workload/paper_workload.hpp"

namespace e2ebench {

using namespace hyperfile;

namespace {

volatile std::size_t g_sink = 0;  // keeps timed results observable

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Nanoseconds per call of `fn`: the median over 31 blocks of each block's
/// mean, with the block size calibrated to about a millisecond.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::size_t n = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (ns >= 1e6 || n >= (std::size_t{1} << 22)) break;
    n *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 31; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn();
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(n));
  }
  return median_of(std::move(per_call));
}

std::vector<Query> parse_all(const std::vector<std::string>& texts) {
  std::vector<Query> out;
  for (const std::string& t : texts) {
    auto q = parse_query(t);
    if (!q.ok()) throw std::runtime_error("parse: " + q.error().to_string());
    out.push_back(std::move(q).value());
  }
  return out;
}

/// A dereference as a site forwards it: the rewritten query, a split
/// termination weight, a trace path.
wire::Envelope deref_frame(const Query& rewritten, const ObjectId& target) {
  wire::DerefRequest dr;
  dr.qid = wire::QueryId{0, 1};
  dr.query = rewritten;
  dr.oid = target;
  dr.start = 1;
  dr.iter_stack = {1};
  Weight held = Weight::one();
  for (int i = 0; i < 8; ++i) held.split();
  dr.weight = held.split().exponents();
  dr.msg_seq = 42;
  dr.hop = 3;
  dr.path = {0, 1, 2};
  return wire::Envelope{1, 2, wire::Message(std::move(dr))};
}

/// Median round trip of `frame` between two endpoints, one of which echoes.
double rtt_us(MessageEndpoint& a, MessageEndpoint& b,
              const wire::Message& frame) {
  std::atomic<bool> stop{false};
  std::jthread echo([&] {
    while (!stop.load()) {
      auto env = b.recv(Duration(20'000));
      if (env.has_value()) (void)b.send(env->src, std::move(env->message));
    }
  });
  std::vector<double> samples;
  for (int i = 0; i < 2'000; ++i) {
    wire::Message copy = frame;
    const auto t0 = Clock::now();
    if (!a.send(b.self(), std::move(copy)).ok()) break;
    auto back = a.recv(Duration(1'000'000));
    if (!back.has_value()) break;
    samples.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  stop.store(true);
  if (samples.size() < 2'000) throw std::runtime_error("rtt: frame lost");
  return median_of(std::move(samples));
}

double transport_rtt_us(Transport t, const wire::Message& frame) {
  if (t == Transport::kInProc) {
    InProcNetwork net(2);
    auto a = net.endpoint(0);
    auto b = net.endpoint(1);
    return rtt_us(*a, *b, frame);
  }
  std::vector<std::unique_ptr<SocketTransport>> eps;
  for (SiteId s = 0; s < 2; ++s) {
    auto net = make_socket_transport(TcpBackend::kThreaded, s,
                                     std::vector<TcpPeer>(2));
    if (!net.ok()) throw std::runtime_error(net.error().to_string());
    eps.push_back(std::move(net).value());
  }
  for (auto& ep : eps) {
    for (SiteId s = 0; s < 2; ++s) {
      ep->update_peer(s, {"127.0.0.1", eps[s]->bound_port()});
    }
  }
  const double us = rtt_us(*eps[0], *eps[1], frame);
  for (auto& ep : eps) ep->shutdown();
  return us;
}

/// Milliseconds for a durable single site to recover the paper population
/// from its WAL (the reference recovery figure for volatile workloads).
double single_site_recovery_ms(const std::string& dir) {
  std::filesystem::create_directories(dir);
  InProcNetwork net(1);
  SiteServerOptions options;
  options.wal_dir = dir;
  {
    SiteServer site(net.endpoint(0), SiteStore(0), options);
    SiteStore* store = &site.store();
    workload::populate_paper_workload(std::span(&store, 1),
                                      workload::WorkloadConfig{});
  }
  const auto t0 = Clock::now();
  SiteServer recovered(net.endpoint(0), SiteStore(0), options);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (recovered.store().size() == 0) {
    throw std::runtime_error("recovery: empty store");
  }
  return ms;
}

}  // namespace

std::vector<LayerMetric> measure_layers(const LayerInputs& in) {
  std::vector<LayerMetric> out;
  const auto emit = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  // query: the client parses, the originator rewrites.
  const std::vector<Query> queries = parse_all(in.texts);
  emit("query.parse_us", ns_per_call([&] {
         g_sink = g_sink + parse_all(in.texts).size();
       }) / 1e3,
       "us");
  emit("query.rewrite_us", ns_per_call([&] {
         for (const Query& q : queries) {
           g_sink = g_sink + rewrite_query(q).filters().size();
         }
       }) / 1e3,
       "us");

  // wire: a dereference carrying the first query, and the median reply.
  const Query rewritten = rewrite_query(queries.front());
  const wire::Envelope deref = deref_frame(rewritten, in.oracle.closure.back());
  wire::Encoder enc;
  wire::encode_envelope(deref, enc);
  const wire::Bytes deref_bytes = enc.bytes();
  emit("wire.deref_encode_us", ns_per_call([&] {
         wire::encode_envelope(deref, enc);
         g_sink = g_sink + enc.size();
       }) / 1e3,
       "us");
  emit("wire.deref_decode_us", ns_per_call([&] {
         g_sink = g_sink + wire::decode_envelope(deref_bytes).ok();
       }) / 1e3,
       "us");
  emit("wire.deref_bytes", static_cast<double>(deref_bytes.size()), "bytes");

  wire::ClientReply reply;
  reply.client_seq = 7;
  reply.ids = in.median_reply.ids;
  reply.total_count = in.median_reply.total_count;
  reply.count_only = in.median_reply.count_only;
  reply.qid = wire::QueryId{0, 1};
  reply.elapsed_us = in.median_reply.trace.elapsed_us;
  reply.spans = in.median_reply.trace.spans;
  const wire::Envelope reply_env{0, 3, wire::Message(std::move(reply))};
  wire::encode_envelope(reply_env, enc);
  const std::size_t reply_bytes = enc.size();
  emit("wire.reply_encode_us", ns_per_call([&] {
         wire::encode_envelope(reply_env, enc);
         g_sink = g_sink + enc.size();
       }) / 1e3,
       "us");
  emit("wire.reply_bytes", static_cast<double>(reply_bytes), "bytes");

  // net: ping-pong of the deref-sized frame on the workload's transport.
  emit("net.rtt_us", transport_rtt_us(in.spec.transport, deref.message), "us");

  // term: one message's weight round trip.
  Weight held = Weight::one();
  emit("term.split_repay_ns", ns_per_call([&] {
         Weight piece = held.split();
         held.add(Weight::from_exponents(piece.exponents()));
       }),
       "ns");
  if (!held.is_one()) throw std::runtime_error("weight not conserved");

  // engine: the request's queries on a single-site copy of the population.
  SiteStore single(0);
  {
    SiteStore* ptr = &single;
    workload::populate_paper_workload(std::span(&ptr, 1),
                                      workload::WorkloadConfig{});
  }
  std::vector<Query> site_queries;
  for (const Query& q : queries) site_queries.push_back(rewrite_query(q));
  LocalEngine engine(single);
  std::uint64_t processed = 0;
  for (const Query& q : site_queries) {
    // run() binds the distributed set the narrowing query starts from.
    auto r = engine.run(q);
    if (!r.ok()) throw std::runtime_error("engine: " + r.error().to_string());
    processed += r.value().stats.processed;
  }
  const double engine_ns = ns_per_call([&] {
    for (const Query& q : site_queries) {
      g_sink = g_sink + engine.run_readonly(q).value().stats.processed;
    }
  });
  emit("engine.us_per_object",
       engine_ns / 1e3 / static_cast<double>(std::max<std::uint64_t>(processed, 1)),
       "us");
  emit("engine.objects_per_request", static_cast<double>(processed), "count");

  // store: reads over the population, a WAL-logged set bind of the size the
  // workload binds, and WAL recovery.
  const std::vector<ObjectId> ids = single.all_ids();
  emit("store.get_ns", ns_per_call([&] {
         for (const ObjectId& id : ids) g_sink = g_sink + (single.get(id) != nullptr);
       }) / static_cast<double>(ids.size()),
       "ns");

  const std::string wal_dir = in.scratch_dir + "/layers";
  std::filesystem::create_directories(wal_dir);
  {
    const std::string path = wal_dir + "/set.wal";
    auto replayed = replay_wal(path);
    auto wal = WriteAheadLog::open(path, replayed.value());
    if (!wal.ok()) throw std::runtime_error("wal: " + wal.error().to_string());
    SiteStore logged(0);
    logged.attach_wal(&wal.value());
    const std::size_t portion =
        in.spec.distributed_set ? in.oracle.closure.size() / Deployment::kSites
                                : in.median_reply.ids.size();
    const std::vector<ObjectId> members(
        ids.begin(),
        ids.begin() + static_cast<std::ptrdiff_t>(std::min(portion, ids.size())));
    emit("store.create_set_us", ns_per_call([&] {
           g_sink = g_sink + logged.create_set("P", members).seq;
         }) / 1e3,
         "us");
  }
  if (in.restart_ms.empty()) {
    emit("store.recovery_ms", single_site_recovery_ms(wal_dir + "/recovery"),
         "ms");
  } else {
    emit("store.recovery_ms", median_of(in.restart_ms), "ms");
  }
  std::filesystem::remove_all(wal_dir);

  // common: the registry lookup every drain performs.
  emit("common.metric_lookup_ns", ns_per_call([] {
         g_sink = g_sink + metrics().histogram("dist.drain_us").count();
       }),
       "ns");
  return out;
}

}  // namespace e2ebench
