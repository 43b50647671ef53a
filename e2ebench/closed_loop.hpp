// The paper's client model: each client sends its next request only after
// the reply to the previous one ("received the result, and then went on to
// the next query"). Every reply is checked against the oracle.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "deployment.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// One completed request as its client saw it, with the sums of the trace
/// the reply(ies) carried.
struct RequestRecord {
  double latency_us = 0;      // send of the first query -> last reply decoded
  std::uint64_t origin_us = 0;  // QueryTrace::elapsed_us, summed over queries
  std::uint64_t drain_us = 0;   // TraceSpan sums over every span
  std::uint64_t drains = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reply_ids = 0;  // ids in the reply that lists them
};

/// What the durability check needs from each client's last request.
struct LastReply {
  bool valid = false;
  std::uint64_t count = 0;                  // count reply's total_count
  std::vector<hyperfile::ObjectId> narrowed;  // sorted ids bound to T<c>
};

struct LoopOutcome {
  std::vector<RequestRecord> records;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Wrong or lossy answers and failed checks, described (capped).
  std::vector<std::string> faults;
  std::vector<LastReply> last;  // per client
  double seconds = 0;           // measured wall time of the loop
};

/// One request: send each query of client `c`'s request for value `v`, check
/// every reply, and fold the outcome into `out`. The replies are moved into
/// `replies` when it is given. Returns false on a failed or wrong request.
bool run_request(Deployment& d, const WorkloadSpec& spec, std::size_t c,
                 std::int64_t v, LoopOutcome& out,
                 std::vector<hyperfile::QueryResult>* replies = nullptr);

/// The set-up probe: client `c` asks for the Root set's members, a query
/// that touches one object and no other site. Returns false on a failed or
/// wrong answer.
bool probe(Deployment& d, std::size_t c, LoopOutcome& out);

/// Every client runs requests back to back until `deadline`. Client c of
/// deployment `round` draws its values from a stream seeded by
/// (seed, round, c).
LoopOutcome run_closed_loop(Deployment& d, const WorkloadSpec& spec,
                            std::uint64_t seed, std::uint64_t round,
                            Clock::time_point deadline);

/// Checks that hold once a loop has ended: no site keeps a query context,
/// and every dereference the spans report forwarding is a frame the
/// transport carried (`before` is the transport's count when the loop
/// started). Failures are appended to `faults`.
void check_quiescent(Deployment& d, const LoopOutcome& loop,
                     const hyperfile::NetworkStats& before,
                     std::vector<std::string>& faults);

/// distset_wal: restart every site from its own WAL and check that each
/// client's last D<c> portions and T<c> survived. Returns the restart time
/// of each site in milliseconds.
std::vector<double> check_durability(Deployment& d, const LoopOutcome& loop,
                                     std::vector<std::string>& faults);

}  // namespace e2ebench
