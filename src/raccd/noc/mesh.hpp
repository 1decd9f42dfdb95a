// Network-on-Chip model (paper Table I: 4x4 mesh, 1-cycle links, 1-cycle
// routers, XY dimension-ordered routing), generalized over a Topology
// (topo/topology.hpp): flat mesh (the default), concentrated mesh, or a
// multi-socket NUMA machine with distinct inter-socket links.
//
// The atomic-transaction protocol engine asks the mesh for the latency of
// each message leg and the mesh accounts traffic (messages, flits and
// flit-hops) per message class, with an on-socket vs cross-socket breakdown.
// Flit-hops (flits x links traversed, inter-socket links included) is the
// figure-of-merit reported as "NoC traffic" (paper Fig. 7c) and the basis of
// NoC dynamic energy.
#pragma once

#include <array>
#include <cstdint>

#include "raccd/common/stat_fields.hpp"
#include "raccd/common/types.hpp"
#include "raccd/topo/topology.hpp"

namespace raccd {

/// Message classes, used for traffic breakdown and flit sizing.
enum class MsgClass : std::uint8_t {
  kRequest = 0,   ///< GetS/GetX/Upgrade and NC request (control, 1 flit)
  kResponseData,  ///< data response, 1 + line flits
  kInval,         ///< invalidation / recall request (control)
  kAck,           ///< invalidation ack / completion (control)
  kWriteback,     ///< dirty data writeback (data)
};
inline constexpr std::size_t kMsgClassCount = 5;

[[nodiscard]] constexpr const char* to_string(MsgClass c) noexcept {
  switch (c) {
    case MsgClass::kRequest: return "request";
    case MsgClass::kResponseData: return "data";
    case MsgClass::kInval: return "inval";
    case MsgClass::kAck: return "ack";
    case MsgClass::kWriteback: return "writeback";
  }
  return "?";
}

struct MeshConfig {
  std::uint32_t width = 4;
  std::uint32_t height = 4;
  Cycle link_cycles = 1;
  Cycle router_cycles = 1;
  std::uint32_t flit_bytes = 16;
  std::uint32_t control_bytes = 8;                 ///< header-only message payload
  std::uint32_t data_bytes = 8 + kLineBytes;       ///< header + cache line
};

// Traffic counters kept per message class and for cross-socket messages:
// X(MEMBER, UNIT, DOC, CROSS_DOC, CONTEXT...). NocStats::for_each_field
// spells their stats-text keys and metrics ("noc1_flits" /
// "noc.data.flits", "noc_cross_flits" / "noc.flits.cross_socket").
#define RACCD_NOC_CLASS_STATS(X, ...)                                           \
  X(messages, "", "messages", "messages that crossed a socket link", __VA_ARGS__) \
  X(flits, "flits", "flits", "flits of cross-socket messages", __VA_ARGS__)       \
  X(flit_hops, "flit-hops", "flit-hops",                                          \
    "flit-hops of messages that crossed a socket link", __VA_ARGS__)

// Field list (common/stat_fields.hpp): member, stats-text key, metric.
#define RACCD_NOC_STATS(X)                                                     \
  X(std::uint64_t, socket_link_flits, "noc_socket_link_flits",                 \
    "noc.socket_link_flits", "noc_socket_link_flits", "flits", kCounter,       \
    "flits carried over the inter-socket links themselves")

#define RACCD_NOC_CLASS_MEMBER(MEMBER, ...) std::uint64_t MEMBER = 0;
#define RACCD_NOC_CLASS_VISIT(MEMBER, UNIT, DOC, CROSS_DOC, IDX, CLS)                 \
  f(StatField{"noc" #IDX "_" #MEMBER, "noc." CLS "." #MEMBER, "noc_" CLS "_" #MEMBER, \
              UNIT, MetricKind::kCounter, CLS " " DOC},                               \
    [](auto& s) -> auto& { return s.per_class[IDX].MEMBER; });
#define RACCD_NOC_CROSS_VISIT(MEMBER, UNIT, DOC, CROSS_DOC, ...)              \
  f(StatField{"noc_cross_" #MEMBER, "noc." #MEMBER ".cross_socket",           \
              "noc_cross_socket_" #MEMBER, UNIT, MetricKind::kCounter, CROSS_DOC}, \
    [](auto& s) -> auto& { return s.cross_socket.MEMBER; });

struct NocStats {
  struct PerClass {
    RACCD_NOC_CLASS_STATS(RACCD_NOC_CLASS_MEMBER, )
  };
  std::array<PerClass, kMsgClassCount> per_class{};
  /// Subset of the above that traversed an inter-socket link (all zero on
  /// single-socket topologies).
  PerClass cross_socket{};
  /// Flits carried over the inter-socket links themselves (the off-package
  /// bandwidth demand, as opposed to cross-socket messages' total hops).
  RACCD_NOC_STATS(RACCD_STAT_MEMBER)

  template <class F>
  static constexpr void for_each_field(F&& f) {
    static_assert(kMsgClassCount == 5, "one expansion per MsgClass below");
    RACCD_NOC_CLASS_STATS(RACCD_NOC_CLASS_VISIT, 0, "request")
    RACCD_NOC_CLASS_STATS(RACCD_NOC_CLASS_VISIT, 1, "data")
    RACCD_NOC_CLASS_STATS(RACCD_NOC_CLASS_VISIT, 2, "inval")
    RACCD_NOC_CLASS_STATS(RACCD_NOC_CLASS_VISIT, 3, "ack")
    RACCD_NOC_CLASS_STATS(RACCD_NOC_CLASS_VISIT, 4, "writeback")
    RACCD_NOC_CLASS_STATS(RACCD_NOC_CROSS_VISIT, )
    RACCD_NOC_STATS(RACCD_STAT_VISIT)
  }

  [[nodiscard]] std::uint64_t total_messages() const noexcept;
  [[nodiscard]] std::uint64_t total_flits() const noexcept;
  [[nodiscard]] std::uint64_t total_flit_hops() const noexcept;
  [[nodiscard]] std::uint64_t on_socket_flit_hops() const noexcept {
    return total_flit_hops() - cross_socket.flit_hops;
  }
  void add(const NocStats& o) noexcept { add_fields(*this, o); }
};
static_assert(stat_fields_cover<NocStats>(), "NocStats member outside its field list");

#undef RACCD_NOC_CLASS_MEMBER
#undef RACCD_NOC_CLASS_VISIT
#undef RACCD_NOC_CROSS_VISIT

class Mesh {
 public:
  /// Legacy single-socket construction: a flat mesh of cfg.width x cfg.height.
  explicit Mesh(const MeshConfig& cfg);
  /// Topology-driven construction (cfg supplies flit sizing; geometry and
  /// link timing come from `topo`).
  Mesh(const MeshConfig& cfg, const TopologyConfig& topo, std::uint32_t cores);

  [[nodiscard]] std::uint32_t node_count() const noexcept { return topo_.cores(); }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Links traversed between two nodes (inter-socket links included).
  [[nodiscard]] std::uint32_t hops(std::uint32_t from, std::uint32_t to) const noexcept {
    return topo_.route(from, to).total_hops();
  }

  /// Head-flit latency of a message: the topology's route latency plus
  /// serialization of the remaining flits at the destination.
  [[nodiscard]] Cycle latency(std::uint32_t from, std::uint32_t to, MsgClass cls) const noexcept;

  /// Record a message in the stats and return its latency.
  Cycle transfer(std::uint32_t from, std::uint32_t to, MsgClass cls) noexcept {
    return transfer(topo_.route(from, to), cls);
  }
  /// Same, for a route the caller already resolved (saves the recompute on
  /// the fabric's hot path).
  Cycle transfer(const Route& r, MsgClass cls) noexcept;

  /// Node id of the memory controller closest to `node` (controllers sit at
  /// the grid corners of the node's socket, as in common tiled floorplans).
  [[nodiscard]] std::uint32_t nearest_memory_controller(std::uint32_t node) const noexcept {
    return topo_.mem_controller(node);
  }

  [[nodiscard]] std::uint32_t flits_for(MsgClass cls) const noexcept {
    return flits_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] const NocStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = NocStats{}; }
  [[nodiscard]] const MeshConfig& config() const noexcept { return cfg_; }

  /// Redirect traffic accounting into `sink` (nullptr = the mesh's own
  /// measured stats). Sampled simulation points this at a scratch bucket
  /// during detailed-warmup windows so warmup traffic never pollutes the
  /// measured rates; the mesh itself is timing-stateless, so redirection is
  /// the only hook sampling needs here.
  void set_stats_sink(NocStats* sink) noexcept { sink_ = sink; }

 private:
  MeshConfig cfg_;
  Topology topo_;
  /// Flits per message class, sized once from cfg_ (ceil(bytes / flit)).
  std::array<std::uint32_t, kMsgClassCount> flits_{};
  NocStats stats_;
  NocStats* sink_ = nullptr;  ///< non-null: stats bucket override
};

}  // namespace raccd
