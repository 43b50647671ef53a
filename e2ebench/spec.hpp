// The benchmark's workloads and the request text each client sends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

enum class Transport {
  kInProc,  // Cluster over InProcNetwork (every frame wire-encoded)
  kTcp,     // one threaded SocketTransport per site and client, loopback
};

struct WorkloadSpec {
  const char* name;
  /// Pointer key the closure follows from the Root set.
  const char* pointer_key;
  Transport transport;
  /// Each site keeps a WAL in a run-private directory.
  bool durable;
  /// A request is a count query building the distributed set D<c> followed
  /// by a narrowing query over it (paper E7); otherwise one closure query.
  bool distributed_set;
};

// Why each one exists is in README.md ("Workloads").
inline constexpr WorkloadSpec kWorkloads[] = {
    {"chain", "Chain", Transport::kInProc, false, false},
    {"tcp_fanout", "Rand05", Transport::kTcp, false, false},
    {"distset_wal", "Tree", Transport::kInProc, true, true},
};

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The query texts of one request by client `client` searching value `v`.
inline std::vector<std::string> request_texts(const WorkloadSpec& w,
                                              std::size_t client,
                                              std::int64_t v) {
  const std::string c = std::to_string(client);
  const std::string closure =
      std::string("Root [ (pointer, \"") + w.pointer_key +
      "\", ?X) | ^^X ]* ";
  const std::string select = "(skey, \"Rand10p\", " + std::to_string(v) + ")";
  if (!w.distributed_set) return {closure + select + " -> T" + c};
  return {closure + "(skey, \"Common\", 1) count -> D" + c,
          "D" + c + " " + select + " -> T" + c};
}

}  // namespace e2ebench
