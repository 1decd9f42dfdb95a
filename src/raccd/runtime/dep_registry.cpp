#include "raccd/runtime/dep_registry.hpp"

#include <algorithm>
#include <iterator>

#include "raccd/common/assert.hpp"

namespace raccd {

DepRegistry::Map::iterator DepRegistry::add_segment(Map::iterator hint, VAddr begin,
                                                    Segment seg) {
  const auto it = segs_.emplace_hint(hint, begin, std::move(seg));
  index_.insert(begin, it);
  return it;
}

DepRegistry::Map::iterator DepRegistry::first_at(VAddr addr) {
  if (const Map::iterator* hit = index_.find(addr)) return *hit;
  // No segment begins at `addr`: the one descent of this call.
  const auto next = segs_.upper_bound(addr);
  if (next == segs_.begin()) return next;
  const auto covering = std::prev(next);
  if (covering->second.end <= addr) return next;  // `addr` lies in a gap
  // Split [begin, end) into [begin, addr) + [addr, end).
  Segment right = covering->second;
  covering->second.end = addr;
  return add_segment(next, addr, std::move(right));
}

void DepRegistry::register_dep(TaskId t, const DepSpec& dep, std::vector<TaskId>& preds) {
  if (dep.size == 0) return;
  // The end is a segment begin once split, and ~VAddr{0} is the index's
  // empty key: the range must end strictly below it, without wrapping.
  RACCD_ASSERT(dep.size < ~VAddr{0} - dep.addr,
               "dependence range wraps the address space");
  const VAddr begin = dep.addr;
  const VAddr end = dep.addr + dep.size;

  const bool reads = dep.kind != DepKind::kOut;
  const bool writes = dep.kind != DepKind::kIn;

  auto it = first_at(begin);
  VAddr cursor = begin;
  while (cursor < end) {
    if (it == segs_.end() || it->first > cursor) {
      // Uncovered gap [cursor, gap_end): fresh memory with no history.
      const VAddr gap_end = (it == segs_.end()) ? end : std::min(end, it->first);
      Segment fresh;
      fresh.end = gap_end;
      if (writes) {
        fresh.last_writer = t;
      } else {
        fresh.readers.push_back(t);
      }
      add_segment(it, cursor, std::move(fresh));
      cursor = gap_end;
      continue;
    }
    RACCD_DEBUG_ASSERT(it->first == cursor, "segment map lost alignment");
    Segment& seg = it->second;
    if (seg.end > end) {
      // The range ends inside this segment: split off [end, seg.end) with
      // its history before this task touches [cursor, end).
      Segment tail = seg;
      seg.end = end;
      add_segment(std::next(it), end, std::move(tail));
    }
    if (seg.last_writer != kNoTask && seg.last_writer != t) {
      preds.push_back(seg.last_writer);  // RAW or WAW
    }
    if (writes) {
      for (const TaskId r : seg.readers) {
        if (r != t) preds.push_back(r);  // WAR
      }
      seg.last_writer = t;
      seg.readers.clear();
    }
    if (reads) {
      seg.readers.push_back(t);
    }
    cursor = seg.end;
    ++it;
  }
}

TaskId DepRegistry::last_writer_at(VAddr addr) const noexcept {
  auto it = segs_.upper_bound(addr);
  if (it == segs_.begin()) return kNoTask;
  --it;
  if (it->second.end <= addr) return kNoTask;
  return it->second.last_writer;
}

}  // namespace raccd
