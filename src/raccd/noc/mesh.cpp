#include "raccd/noc/mesh.hpp"

#include "raccd/common/assert.hpp"

namespace raccd {
namespace {

[[nodiscard]] TopologyConfig flat_topo_from(const MeshConfig& cfg) {
  TopologyConfig t;
  t.kind = TopologyKind::kFlatMesh;
  t.sockets = 1;
  t.width = cfg.width;
  t.height = cfg.height;
  t.link_cycles = cfg.link_cycles;
  t.router_cycles = cfg.router_cycles;
  return t;
}

/// Geometry/timing authority is the topology; mirror the mesh's link timing
/// into it (and, for flat meshes, the grid dims) so one config cannot drift
/// from the other.
[[nodiscard]] TopologyConfig reconciled(const MeshConfig& cfg, TopologyConfig t) {
  t.link_cycles = cfg.link_cycles;
  t.router_cycles = cfg.router_cycles;
  if (t.kind == TopologyKind::kFlatMesh) {
    t.width = cfg.width;
    t.height = cfg.height;
  }
  return t;
}

}  // namespace

std::uint64_t NocStats::total_messages() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : per_class) sum += c.messages;
  return sum;
}
std::uint64_t NocStats::total_flits() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : per_class) sum += c.flits;
  return sum;
}
std::uint64_t NocStats::total_flit_hops() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : per_class) sum += c.flit_hops;
  return sum;
}

Mesh::Mesh(const MeshConfig& cfg) : Mesh(cfg, flat_topo_from(cfg), cfg.width * cfg.height) {
  RACCD_ASSERT(cfg_.width > 0 && cfg_.height > 0, "empty mesh");
}

Mesh::Mesh(const MeshConfig& cfg, const TopologyConfig& topo, std::uint32_t cores)
    : cfg_(cfg), topo_(reconciled(cfg, topo), cores) {
  RACCD_ASSERT(cfg_.flit_bytes > 0, "flit size must be positive");
  for (std::size_t c = 0; c < kMsgClassCount; ++c) {
    const auto cls = static_cast<MsgClass>(c);
    const std::uint32_t bytes =
        (cls == MsgClass::kResponseData || cls == MsgClass::kWriteback) ? cfg_.data_bytes
                                                                        : cfg_.control_bytes;
    flits_[c] = (bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
  }
}

Cycle Mesh::latency(std::uint32_t from, std::uint32_t to, MsgClass cls) const noexcept {
  const Route r = topo_.route(from, to);
  if (r.total_hops() == 0) return 0;  // same tile: bank is local, no network traversal
  // Wormhole pipeline: head flit pays the route, body flits stream behind.
  return r.latency + (flits_for(cls) - 1);
}

Cycle Mesh::transfer(const Route& r, MsgClass cls) noexcept {
  NocStats& st = sink_ != nullptr ? *sink_ : stats_;
  const std::uint32_t flits = flits_for(cls);
  auto& pc = st.per_class[static_cast<std::size_t>(cls)];
  ++pc.messages;
  pc.flits += flits;
  pc.flit_hops += static_cast<std::uint64_t>(flits) * r.total_hops();
  if (r.socket_hops > 0) {
    ++st.cross_socket.messages;
    st.cross_socket.flits += flits;
    st.cross_socket.flit_hops += static_cast<std::uint64_t>(flits) * r.total_hops();
    st.socket_link_flits += static_cast<std::uint64_t>(flits) * r.socket_hops;
  }
  if (r.total_hops() == 0) return 0;
  return r.latency + (flits - 1);
}

}  // namespace raccd
