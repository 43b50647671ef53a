// One HyperFile deployment as a workload runs it: the paper population
// (270 objects, seed 1991) on three SiteServers, a few Clients, and the
// oracle computed from the population before the sites start.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/cluster.hpp"
#include "net/transport.hpp"
#include "oracle.hpp"
#include "spec.hpp"

namespace e2ebench {

class Deployment {
 public:
  static constexpr std::size_t kSites = 3;

  /// Stands the deployment up and starts every site. A durable workload
  /// keeps its WALs in `wal_dir`, which must exist and be empty.
  Deployment(const WorkloadSpec& spec, std::size_t clients,
             const std::string& wal_dir);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  hyperfile::Client& client(std::size_t c) { return *clients_[c]; }
  std::size_t client_count() const { return clients_.size(); }
  hyperfile::SiteServer& server(hyperfile::SiteId s);
  const Oracle& oracle() const { return oracle_; }

  /// Frames and bytes every endpoint of the deployment has sent.
  hyperfile::NetworkStats network_stats() const;
  /// Bytes in the sites' WAL files, read from the file system (0 when the
  /// workload is volatile).
  std::uint64_t wal_bytes() const;
  /// Crash-stop site `s` and restart it from its own WAL (in-process
  /// transport only).
  hyperfile::Result<void> restart_site(hyperfile::SiteId s);

 private:
  const WorkloadSpec& spec_;
  std::string wal_dir_;
  Oracle oracle_;
  // In-process transport.
  std::unique_ptr<hyperfile::Cluster> cluster_;
  // Socket transport: servers_ and clients_ own the endpoints that
  // sockets_ points at.
  std::vector<hyperfile::SocketTransport*> sockets_;
  std::vector<std::unique_ptr<hyperfile::SiteServer>> servers_;
  std::vector<hyperfile::Client*> clients_;
  std::vector<std::unique_ptr<hyperfile::Client>> socket_clients_;
};

}  // namespace e2ebench
