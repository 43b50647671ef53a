#include "sim/simulation.hpp"

#include <algorithm>

#include "engine/execution.hpp"
#include "term/weight.hpp"

namespace hyperfile::sim {

Duration SimStats::max_busy() const {
  Duration m{0};
  for (Duration d : busy) m = std::max(m, d);
  return m;
}

namespace {

struct Event {
  Duration time{0};
  std::uint64_t seq = 0;  // tie-break for determinism
  SiteId src = kNoSite;
  SiteId dst = kNoSite;
  wire::Message message;
};

struct EventOrder {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;  // min-heap
    return a.seq > b.seq;
  }
};

}  // namespace

struct Simulation::Impl {
  CostModel costs;
  SimOptions options;
  std::vector<SiteStore> stores;
  /// Distributed result sets left by count_only queries: name -> sites.
  std::map<std::string, std::vector<SiteId>> distributed_sets;

  // ---- per-run state ----
  struct Site {
    std::unique_ptr<QueryExecution> exec;
    WeightedTerminationParticipant weight;
    std::vector<ObjectId> retained;
    std::vector<WorkItem> pending_sends;  // filled by the remote sink
    Duration available{0};
  };
  std::vector<Site> site_state;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events;
  std::uint64_t next_seq = 0;
  SiteId origin = 0;
  const Query* query = nullptr;
  /// The query as every message of the run carries it, encoded once.
  wire::QueryBody body;
  /// Reused buffer for sizing scheduled messages.
  wire::Encoder sizer;
  WeightedTerminationOriginator term;
  std::unordered_set<ObjectId> result_seen;
  std::vector<ObjectId> result_ids;
  std::vector<Retrieved> result_values;
  std::uint64_t total_count = 0;
  std::unordered_map<SiteId, std::uint64_t> site_counts;
  bool done = false;
  Duration done_time{0};
  SimStats stats;

  Impl(CostModel c, std::size_t n, SimOptions opts) : costs(c), options(opts) {
    stores.reserve(n);
    for (std::size_t i = 0; i < n; ++i) stores.emplace_back(static_cast<SiteId>(i));
  }

  void schedule(Duration time, SiteId src, SiteId dst, wire::Message msg) {
    sizer.clear();
    wire::encode_message(msg, sizer);
    stats.bytes_on_wire += sizer.size();
    switch (msg.index()) {
      case 0:
        ++stats.deref_messages;
        break;
      case 1:
        ++stats.start_messages;
        break;
      case 2:
        ++stats.result_messages;
        break;
      case 6:
        ++stats.batch_messages;
        break;
      default:
        break;
    }
    events.push(Event{time, next_seq++, src, dst, std::move(msg)});
  }

  Weight borrow(SiteId s) {
    return s == origin ? term.borrow() : site_state[s].weight.borrow();
  }

  void repay(SiteId s, Weight w) {
    if (w.is_zero()) return;
    if (s == origin) {
      term.repay(std::move(w));
    } else {
      site_state[s].weight.receive(std::move(w));
    }
  }

  /// Flush dereferences the engine routed remotely: each becomes a message,
  /// costing sender CPU now and arriving after the wire latency.
  Duration flush_sends(SiteId s, Duration now) {
    auto& st = site_state[s];
    for (WorkItem& item : st.pending_sends) {
      const SiteId dest = item.id.presumed_site;
      if (dest == kNoSite || dest >= stores.size() || dest == s) {
        continue;  // dangling pointer: drop (weight never borrowed)
      }
      now += costs.msg_send_cpu;
      wire::DerefRequest dr;
      dr.qid = wire::QueryId{origin, 1};
      dr.query = body;
      dr.oid = item.id;
      dr.start = item.start;
      dr.iter_stack = item.iter_stack;
      dr.weight = borrow(s).exponents();
      schedule(now + costs.msg_latency, s, dest, std::move(dr));
    }
    st.pending_sends.clear();
    return now;
  }

  /// Batched variant: group a drain's pending dereferences by destination
  /// and ship one message per destination.
  Duration flush_sends_batched(SiteId s, Duration now) {
    auto& st = site_state[s];
    if (st.pending_sends.empty()) return now;
    std::map<SiteId, std::vector<wire::DerefEntry>> by_dest;
    for (WorkItem& item : st.pending_sends) {
      const SiteId dest = item.id.presumed_site;
      if (dest == kNoSite || dest >= stores.size() || dest == s) continue;
      wire::DerefEntry entry;
      entry.oid = item.id;
      entry.start = item.start;
      entry.iter_stack = std::move(item.iter_stack);
      by_dest[dest].push_back(std::move(entry));
    }
    st.pending_sends.clear();
    for (auto& [dest, items] : by_dest) {
      now += costs.msg_send_cpu;
      wire::BatchDerefRequest bd;
      bd.qid = wire::QueryId{origin, 1};
      bd.query = body;
      bd.items = std::move(items);
      bd.weight = borrow(s).exponents();
      schedule(now + costs.msg_latency, s, dest, std::move(bd));
    }
    return now;
  }

  /// Merge freshly produced local results at the originator.
  Duration absorb_local_results(Duration now) {
    auto& st = site_state[origin];
    for (ObjectId id : st.exec->take_result_ids()) {
      if (query->count_only()) {
        st.retained.push_back(id);
        ++total_count;
        ++site_counts[origin];
        continue;
      }
      if (result_seen.insert(id).second) {
        result_ids.push_back(id);
        now += costs.result_insert;
      }
    }
    for (Retrieved& r : st.exec->take_retrieved()) {
      result_values.push_back(std::move(r));
    }
    return now;
  }

  /// Drain site `s` starting at CPU time `now`; returns the finish time.
  Duration drain(SiteId s, Duration now) {
    auto& st = site_state[s];
    for (;;) {
      // Flush before stepping so remote work produced by *seeding* (initial
      // set members stored elsewhere) leaves even when W is empty here.
      // In batched mode the flush happens once, after the drain completes.
      if (!options.batch_derefs) now = flush_sends(s, now);
      StepReport report = st.exec->step();
      if (report.kind == StepKind::kIdle) break;
      switch (report.kind) {
        case StepKind::kProcessed:
          now += costs.process_object;
          ++stats.objects_processed;
          break;
        case StepKind::kSuppressed:
        case StepKind::kMissing:
          now += costs.suppressed_pop;
          ++stats.suppressed_pops;
          break;
        case StepKind::kIdle:
          break;
      }
    }

    if (options.batch_derefs) now = flush_sends_batched(s, now);

    if (s == origin) {
      now = absorb_local_results(now);
      check_done(now);
      return now;
    }

    // Participant: batch results + all held weight to the originator.
    std::vector<ObjectId> ids = st.exec->take_result_ids();
    std::vector<Retrieved> vals = st.exec->take_retrieved();
    wire::ResultMessage rm;
    rm.qid = wire::QueryId{origin, 1};
    rm.count_only = query->count_only();
    if (query->count_only()) {
      st.retained.insert(st.retained.end(), ids.begin(), ids.end());
      rm.local_count = ids.size();
      if (!query->result_set_name().empty() && !st.retained.empty()) {
        stores[s].create_set(query->result_set_name(), st.retained);
      }
    } else {
      rm.ids = std::move(ids);
      for (Retrieved& r : vals) {
        rm.values.push_back({r.slot, r.source, std::move(r.value)});
      }
    }
    rm.weight = st.weight.release_all().exponents();
    now += costs.msg_send_cpu;
    schedule(now + costs.msg_latency, s, origin, std::move(rm));
    return now;
  }

  void check_done(Duration now) {
    if (done) return;
    if (!site_state[origin].exec->idle()) return;
    if (!term.all_weight_home()) return;
    done = true;
    done_time = now;
  }

  void handle(const Event& ev) {
    auto& st = site_state[ev.dst];
    Duration now = std::max(ev.time, st.available);
    const Duration cpu_start = now;
    now += costs.msg_recv_cpu;

    if (const auto* dr = std::get_if<wire::DerefRequest>(&ev.message)) {
      repay(ev.dst, Weight::from_exponents(dr->weight));
      if (stores[ev.dst].contains(dr->oid)) {
        WorkItem item;
        item.id = dr->oid;
        item.start = dr->start;
        item.next = dr->start;
        item.iter_stack = dr->iter_stack.empty()
                              ? std::vector<std::uint32_t>{1}
                              : dr->iter_stack;
        st.exec->add_item(std::move(item));
      }
      now = drain(ev.dst, now);
    } else if (const auto* bd = std::get_if<wire::BatchDerefRequest>(&ev.message)) {
      repay(ev.dst, Weight::from_exponents(bd->weight));
      for (const wire::DerefEntry& entry : bd->items) {
        if (!stores[ev.dst].contains(entry.oid)) continue;
        WorkItem item;
        item.id = entry.oid;
        item.start = entry.start;
        item.next = entry.start;
        item.iter_stack = entry.iter_stack.empty()
                              ? std::vector<std::uint32_t>{1}
                              : entry.iter_stack;
        st.exec->add_item(std::move(item));
      }
      now = drain(ev.dst, now);
    } else if (const auto* sq = std::get_if<wire::StartQuery>(&ev.message)) {
      repay(ev.dst, Weight::from_exponents(sq->weight));
      if (!sq->local_set_name.empty()) st.exec->seed_local_set(sq->local_set_name);
      now = drain(ev.dst, now);
    } else if (const auto* rm = std::get_if<wire::ResultMessage>(&ev.message)) {
      // Only the originator receives results.
      if (rm->count_only) {
        total_count += rm->local_count;
        site_counts[ev.src] += rm->local_count;
      }
      for (const ObjectId& id : rm->ids) {
        now += costs.remote_result_id;
        if (result_seen.insert(id).second) {
          result_ids.push_back(id);
          now += costs.result_insert;
        }
      }
      for (const auto& v : rm->values) {
        result_values.push_back({v.slot, v.source, v.value});
      }
      repay(ev.dst, Weight::from_exponents(rm->weight));
      check_done(now);
    }

    st.available = now;
    if (ev.dst < stats.busy.size()) {
      stats.busy[ev.dst] += now - cpu_start;
    }
  }
};

Simulation::Simulation(CostModel costs, std::size_t sites, SimOptions options)
    : impl_(std::make_unique<Impl>(costs, sites, options)) {}

Simulation::~Simulation() = default;

std::size_t Simulation::sites() const { return impl_->stores.size(); }

SiteStore& Simulation::store(SiteId site) { return impl_->stores[site]; }

Result<SimOutcome> Simulation::run(const Query& query, SiteId origin) {
  Impl& im = *impl_;
  if (origin >= im.stores.size()) {
    return make_error(Errc::kNotFound, "no such site");
  }
  if (auto v = query.validate(); !v.ok()) return v.error();

  // ---- reset per-run state ----
  im.site_state.clear();
  im.site_state.resize(im.stores.size());
  im.events = {};
  im.next_seq = 0;
  im.origin = origin;
  im.query = &query;
  im.body = wire::QueryBody(query);
  im.term = WeightedTerminationOriginator();
  im.result_seen.clear();
  im.result_ids.clear();
  im.result_values.clear();
  im.total_count = 0;
  im.site_counts.clear();
  im.done = false;
  im.done_time = Duration(0);
  im.stats = SimStats{};
  im.stats.busy.assign(im.stores.size(), Duration(0));

  for (std::size_t s = 0; s < im.stores.size(); ++s) {
    ExecutionOptions opts;
    const SiteId site = static_cast<SiteId>(s);
    opts.is_local = [&im, site](const ObjectId& id) {
      return im.stores[site].contains(id);
    };
    opts.remote_sink = [&im, site](WorkItem&& item) {
      im.site_state[site].pending_sends.push_back(std::move(item));
    };
    im.site_state[s].exec = std::make_unique<QueryExecution>(
        query, im.stores[s], std::move(opts));
  }

  // ---- originate ----
  Duration now = im.costs.query_setup;  // client -> originator submission
  auto& origin_state = im.site_state[origin];

  bool seeded = false;
  const std::string& set_name = query.initial_set_name();
  if (!set_name.empty()) {
    auto dit = im.distributed_sets.find(set_name);
    if (dit != im.distributed_sets.end()) {
      for (SiteId s : dit->second) {
        if (s == origin) {
          origin_state.exec->seed_local_set(set_name);
          continue;
        }
        now += im.costs.msg_send_cpu;
        wire::StartQuery sq;
        sq.qid = wire::QueryId{origin, 1};
        sq.query = im.body;
        sq.local_set_name = set_name;
        sq.weight = im.term.borrow().exponents();
        im.schedule(now + im.costs.msg_latency, origin, s, std::move(sq));
      }
      seeded = true;
    }
  }
  if (!seeded) {
    if (auto r = origin_state.exec->seed_initial(); !r.ok()) return r.error();
  }
  now = im.drain(origin, now);
  origin_state.available = now;
  im.stats.busy[origin] += now - im.costs.query_setup;

  // ---- event loop ----
  while (!im.events.empty()) {
    Event ev = im.events.top();
    im.events.pop();
    im.handle(ev);
  }
  im.check_done(std::max(im.done_time, now));
  if (!im.done) {
    return make_error(Errc::kInternal,
                      "simulation finished without termination detection");
  }

  // ---- package ----
  SimOutcome out;
  out.result.ids = im.result_ids;
  for (Retrieved& r : im.result_values) out.result.values.push_back(r);
  out.result.slot_names = query.retrieve_slots();
  out.result.count_only = query.count_only();
  out.result.total_count =
      query.count_only() ? im.total_count : im.result_ids.size();
  out.response_time = im.done_time + im.costs.query_reply;
  out.stats = im.stats;

  // Bind the result set for follow-up queries.
  if (!query.result_set_name().empty()) {
    if (query.count_only()) {
      std::vector<SiteId> sites_with_portions;
      for (std::size_t s = 0; s < im.site_state.size(); ++s) {
        if (!im.site_state[s].retained.empty()) {
          sites_with_portions.push_back(static_cast<SiteId>(s));
          if (static_cast<SiteId>(s) == origin) {
            im.stores[s].create_set(query.result_set_name(),
                                    im.site_state[s].retained);
          }
        }
      }
      im.distributed_sets[query.result_set_name()] =
          std::move(sites_with_portions);
    } else {
      im.stores[origin].create_set(query.result_set_name(), im.result_ids);
    }
  }
  return out;
}

}  // namespace hyperfile::sim
