#include "deployment.hpp"

#include <filesystem>
#include <stdexcept>

#include "workload/paper_workload.hpp"

namespace e2ebench {

using namespace hyperfile;

namespace {

Oracle populate(std::span<SiteStore* const> stores, const WorkloadSpec& spec) {
  workload::populate_paper_workload(stores, workload::WorkloadConfig{});
  std::vector<const SiteStore*> view(stores.begin(), stores.end());
  return build_oracle(view, spec.pointer_key);
}

std::unique_ptr<SocketTransport> bind_socket(SiteId self, std::size_t n) {
  auto net = make_socket_transport(
      TcpBackend::kThreaded, self,
      std::vector<TcpPeer>(n, TcpPeer{"127.0.0.1", 0}));
  if (!net.ok()) {
    throw std::runtime_error("socket endpoint: " + net.error().to_string());
  }
  return std::move(net).value();
}

}  // namespace

Deployment::Deployment(const WorkloadSpec& spec, std::size_t clients,
                       const std::string& wal_dir)
    : spec_(spec), wal_dir_(spec.durable ? wal_dir : std::string()) {
  SiteServerOptions options;
  options.wal_dir = wal_dir_;

  if (spec.transport == Transport::kInProc) {
    cluster_ = std::make_unique<Cluster>(kSites, options, clients);
    std::vector<SiteStore*> stores;
    for (SiteId s = 0; s < kSites; ++s) stores.push_back(&cluster_->store(s));
    oracle_ = populate(stores, spec);
    cluster_->start();
    for (std::size_t c = 0; c < clients; ++c) {
      clients_.push_back(&cluster_->client(c));
    }
    return;
  }

  // Every site and client binds an ephemeral port, then learns the others'.
  const std::size_t n = kSites + clients;
  std::vector<std::unique_ptr<SocketTransport>> nets;
  for (SiteId s = 0; s < n; ++s) nets.push_back(bind_socket(s, n));
  for (auto& net : nets) {
    sockets_.push_back(net.get());
    for (SiteId peer = 0; peer < n; ++peer) {
      net->update_peer(peer, {"127.0.0.1", nets[peer]->bound_port()});
    }
  }
  std::vector<SiteStore> stores;
  for (SiteId s = 0; s < kSites; ++s) stores.emplace_back(s);
  std::vector<SiteStore*> ptrs;
  for (auto& st : stores) ptrs.push_back(&st);
  oracle_ = populate(ptrs, spec);
  for (SiteId s = 0; s < kSites; ++s) {
    servers_.push_back(std::make_unique<SiteServer>(
        std::move(nets[s]), std::move(stores[s]), options));
  }
  for (auto& server : servers_) server->start();
  for (std::size_t c = 0; c < clients; ++c) {
    socket_clients_.push_back(
        std::make_unique<Client>(std::move(nets[kSites + c]), 0));
    clients_.push_back(socket_clients_.back().get());
  }
}

Deployment::~Deployment() {
  if (cluster_) {
    cluster_->stop();
    return;
  }
  for (auto& server : servers_) server->stop();
  for (SocketTransport* net : sockets_) net->shutdown();
}

SiteServer& Deployment::server(SiteId s) {
  return cluster_ ? cluster_->server(s) : *servers_[s];
}

NetworkStats Deployment::network_stats() const {
  if (cluster_) return cluster_->network_stats();
  NetworkStats total;
  for (const SocketTransport* net : sockets_) total += net->stats();
  return total;
}

std::uint64_t Deployment::wal_bytes() const {
  if (wal_dir_.empty()) return 0;
  std::uint64_t total = 0;
  for (SiteId s = 0; s < kSites; ++s) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        wal_dir_ + "/site_" + std::to_string(s) + ".wal", ec);
    if (!ec) total += size;
  }
  return total;
}

Result<void> Deployment::restart_site(SiteId s) {
  if (!cluster_) {
    return make_error(Errc::kInvalidArgument,
                      "restart_site needs the in-process transport");
  }
  cluster_->kill_site(s);
  return cluster_->restart_site(s);
}

}  // namespace e2ebench
