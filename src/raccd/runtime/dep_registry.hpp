// Byte-range dependence analysis (the OmpSs/Nanos++ region-dependence model).
//
// A segment map over the virtual address space tracks, for every byte range,
// the last writing task and the readers since that write. Registering a new
// dependence splits segments at the range boundaries and derives:
//   in    -> RAW edge from the last writer;
//   out   -> WAW edge from the last writer + WAR edges from the readers;
//   inout -> both of the above.
//
// Every spawned task registers every dependence here, so the cost per call
// is runtime work on the simulator's host path. Invariants that keep it low:
//  * Tree nodes are never erased: a segment is only ever split (and gaps
//    filled), so every iterator into the tree stays valid for the
//    registry's lifetime.
//  * An open-addressed index maps each segment's begin address to its tree
//    node, one to one: every node inserted into the tree is inserted into
//    the index in the same step, so index size == segment_count().
//  * Each register_dep() does at most one tree descent. When the range
//    starts on an existing boundary (the common case: tasks re-register the
//    same blocks) the index finds the first segment and the call does none;
//    otherwise one upper_bound() locates it. The walk then moves forward
//    node by node, and the split at the range end is a hinted insert.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "raccd/common/flat_map.hpp"
#include "raccd/common/types.hpp"
#include "raccd/runtime/task.hpp"

namespace raccd {

class DepRegistry {
 public:
  DepRegistry() = default;
  // The index holds iterators into segs_; a copy would point into the source.
  DepRegistry(const DepRegistry&) = delete;
  DepRegistry& operator=(const DepRegistry&) = delete;

  /// Register one dependence of task `t`; appends predecessor task ids to
  /// `preds` (duplicates possible — caller dedupes per task). The range end
  /// `dep.addr + dep.size` must not wrap past, or reach, ~VAddr{0}.
  void register_dep(TaskId t, const DepSpec& dep, std::vector<TaskId>& preds);

  [[nodiscard]] std::size_t segment_count() const noexcept { return segs_.size(); }
  /// Entries in the begin-address index (== segment_count()). Test hook.
  [[nodiscard]] std::size_t index_size() const noexcept { return index_.size(); }

  /// Last writer covering `addr` (kNoTask if never written). Test hook.
  [[nodiscard]] TaskId last_writer_at(VAddr addr) const noexcept;

 private:
  struct Segment {
    VAddr end = 0;
    TaskId last_writer = kNoTask;
    std::vector<TaskId> readers;  ///< readers since last_writer
  };
  using Map = std::map<VAddr, Segment>;  // key = segment begin

  /// Insert a segment at `begin` (absent from the tree) next to `hint`, and
  /// index it.
  Map::iterator add_segment(Map::iterator hint, VAddr begin, Segment seg);
  /// The segment beginning exactly at `addr`, splitting the one that covers
  /// it if needed; when no segment covers `addr`, the first segment after it
  /// (or end()).
  Map::iterator first_at(VAddr addr);

  Map segs_;
  OpenAddrMap<VAddr, Map::iterator> index_;  // segment begin -> node
};

}  // namespace raccd
