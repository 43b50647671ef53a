#include "closed_loop.hpp"

#include <algorithm>
#include <thread>

#include "common/rng.hpp"
#include "query/parser.hpp"

namespace e2ebench {

using namespace hyperfile;

namespace {

constexpr Duration kReplyTimeout(10'000'000);
constexpr std::size_t kMaxFaults = 8;

void fault(std::vector<std::string>& faults, std::string what) {
  if (faults.size() < kMaxFaults) faults.push_back(std::move(what));
}

std::vector<ObjectId> sorted_ids(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

void add_trace(const QueryTrace& trace, RequestRecord& rec) {
  rec.origin_us += trace.elapsed_us;
  for (const TraceSpan& span : trace.spans) {
    rec.drain_us += span.drain_us;
    rec.drains += span.drains;
    rec.forwarded += span.forwarded;
    rec.duplicates += span.duplicates;
  }
}

}  // namespace

bool run_request(Deployment& d, const WorkloadSpec& spec, std::size_t c,
                 std::int64_t v, LoopOutcome& out,
                 std::vector<QueryResult>* keep) {
  std::vector<Query> queries;
  for (const std::string& text : request_texts(spec, c, v)) {
    auto q = parse_query(text);
    if (!q.ok()) {
      fault(out.faults, "parse: " + q.error().to_string());
      return false;
    }
    queries.push_back(std::move(q).value());
  }

  ++out.attempted;
  RequestRecord rec;
  std::vector<QueryResult> replies;
  const auto t0 = Clock::now();
  for (const Query& q : queries) {
    auto r = d.client(c).run(q, kReplyTimeout);
    if (!r.ok()) {
      ++out.failed;
      fault(out.faults, "request failed: " + r.error().to_string());
      return false;
    }
    replies.push_back(std::move(r).value());
  }
  rec.latency_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();

  const Oracle& o = d.oracle();
  const std::string label = std::string(spec.name) + " client " +
                            std::to_string(c) + " v=" + std::to_string(v);
  bool right = true;
  for (QueryResult& r : replies) {
    add_trace(r.trace, rec);
    if (r.partial || r.dropped_items != 0) {
      fault(out.faults, label + ": partial reply, " +
                            std::to_string(r.dropped_items) + " dropped");
      right = false;
    }
  }
  LastReply last;
  if (spec.distributed_set) {
    const QueryResult& count = replies[0];
    if (!count.count_only || count.total_count != o.closure.size()) {
      fault(out.faults, label + ": count " +
                            std::to_string(count.total_count) + ", oracle " +
                            std::to_string(o.closure.size()));
      right = false;
    }
    last.count = count.total_count;
  }
  last.narrowed = sorted_ids(replies.back().ids);
  rec.reply_ids = last.narrowed.size();
  if (last.narrowed != o.by_rand10p[v]) {
    fault(out.faults, label + ": " + std::to_string(last.narrowed.size()) +
                          " ids, oracle " +
                          std::to_string(o.by_rand10p[v].size()));
    right = false;
  }
  last.valid = right;
  if (out.last.size() <= c) out.last.resize(c + 1);
  out.last[c] = std::move(last);
  out.records.push_back(rec);
  if (keep != nullptr) *keep = std::move(replies);
  return right;
}

bool probe(Deployment& d, std::size_t c, LoopOutcome& out) {
  auto q = parse_query("Root (skey, \"Common\", 1) -> P" + std::to_string(c));
  if (!q.ok()) {
    fault(out.faults, "parse: " + q.error().to_string());
    return false;
  }
  ++out.attempted;
  auto r = d.client(c).run(q.value(), kReplyTimeout);
  if (!r.ok()) {
    ++out.failed;
    fault(out.faults, "probe failed: " + r.error().to_string());
    return false;
  }
  if (r.value().partial || sorted_ids(r.value().ids) != d.oracle().roots) {
    fault(out.faults, "probe of client " + std::to_string(c) + " is wrong");
    return false;
  }
  return true;
}

LoopOutcome run_closed_loop(Deployment& d, const WorkloadSpec& spec,
                            std::uint64_t seed, std::uint64_t round,
                            Clock::time_point deadline) {
  const std::size_t clients = d.client_count();
  std::vector<LoopOutcome> per_client(clients);
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        LoopOutcome& mine = per_client[c];
        mine.last.resize(clients);
        Rng rng(seed * 1'000'003 + round * 101 + c);
        while (Clock::now() < deadline) {
          run_request(d, spec, c, rng.next_range(1, kRand10pMax), mine);
        }
      });
    }
  }
  LoopOutcome out;
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.last.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    LoopOutcome& mine = per_client[c];
    out.records.insert(out.records.end(), mine.records.begin(),
                       mine.records.end());
    out.attempted += mine.attempted;
    out.failed += mine.failed;
    for (auto& f : mine.faults) fault(out.faults, std::move(f));
    out.last[c] = std::move(mine.last[c]);
  }
  return out;
}

void check_quiescent(Deployment& d, const LoopOutcome& loop,
                     const NetworkStats& before,
                     std::vector<std::string>& faults) {
  const auto give_up = Clock::now() + std::chrono::seconds(2);
  std::size_t live = 0;
  for (;;) {
    live = 0;
    for (SiteId s = 0; s < Deployment::kSites; ++s) {
      live += d.server(s).context_count();
    }
    if (live == 0 || Clock::now() >= give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (live != 0) {
    fault(faults, std::to_string(live) + " query contexts left after 2 s");
  }

  const NetworkStats after = d.network_stats();
  const std::uint64_t frames =
      (after.deref_messages - before.deref_messages) +
      (after.start_messages - before.start_messages) +
      (after.batch_deref_messages - before.batch_deref_messages);
  std::uint64_t forwarded = 0;
  for (const RequestRecord& r : loop.records) forwarded += r.forwarded;
  if (forwarded != frames) {
    fault(faults, "frame conservation: spans forwarded " +
                      std::to_string(forwarded) + ", transport carried " +
                      std::to_string(frames));
  }
}

std::vector<double> check_durability(Deployment& d, const LoopOutcome& loop,
                                     std::vector<std::string>& faults) {
  std::vector<double> restart_ms;
  for (SiteId s = 0; s < Deployment::kSites; ++s) {
    const auto t0 = Clock::now();
    auto r = d.restart_site(s);
    restart_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (!r.ok()) {
      fault(faults, "restart site " + std::to_string(s) + ": " +
                        r.error().to_string());
      return restart_ms;
    }
  }
  std::vector<SiteStore> stores;
  for (SiteId s = 0; s < Deployment::kSites; ++s) {
    stores.push_back(d.server(s).store_copy());
  }
  for (std::size_t c = 0; c < loop.last.size(); ++c) {
    const LastReply& last = loop.last[c];
    if (!last.valid) continue;
    const std::string tag = std::to_string(c);
    std::vector<ObjectId> members;
    for (const SiteStore& st : stores) {
      auto portion = st.set_members("D" + tag);
      if (portion.ok()) {
        members.insert(members.end(), portion.value().begin(),
                       portion.value().end());
      }
    }
    members = sorted_ids(std::move(members));
    if (members.size() != last.count || members != d.oracle().closure) {
      fault(faults, "after restart D" + tag + " holds " +
                        std::to_string(members.size()) + " members, count was " +
                        std::to_string(last.count));
    }
    auto t = stores[0].set_members("T" + tag);
    if (!t.ok() || sorted_ids(t.value()) != last.narrowed) {
      fault(faults, "after restart T" + tag + " differs from the last reply");
    }
  }
  return restart_ms;
}

}  // namespace e2ebench
