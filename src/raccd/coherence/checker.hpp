// End-to-end correctness checking for the coherence fabric.
//
// Two layers:
//  1. Value-version tracking: every store stamps the line with a fresh global
//     version; versions propagate with the data through L1, LLC and memory.
//     Under the task-ordering discipline every load must observe the version
//     of the last (globally ordered) store to its line — any protocol bug
//     that loses a writeback, serves stale LLC data, or invalidates the wrong
//     copy surfaces as a version mismatch.
//  2. Structural invariant scan over a quiesced fabric: SWMR, directory/LLC/L1
//     inclusivity for coherent lines, NC lines never tracked, dirty-implies-M.
//
// The checker is optional (tests enable it; the benchmark harness does not).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "raccd/common/flat_map.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

class Fabric;

class CoherenceChecker {
 public:
  /// strict=true aborts on first violation (tests); false only counts.
  explicit CoherenceChecker(bool strict = true) : strict_(strict) {}

  void on_store(LineAddr line, std::uint64_t version);
  void on_load(LineAddr line, std::uint64_t observed);

  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
  [[nodiscard]] std::uint64_t loads_checked() const noexcept { return loads_checked_; }
  [[nodiscard]] std::uint64_t stores_seen() const noexcept { return stores_seen_; }

  /// Structural invariant scan; returns human-readable violations (empty when
  /// the fabric state is consistent).
  [[nodiscard]] static std::vector<std::string> scan(const Fabric& fabric);

 private:
  void fail(LineAddr line, std::uint64_t expected, std::uint64_t observed);

  bool strict_;
  /// Shadow version of the last store to every line, consulted on every
  /// load — a hot line-granular map, so a paged direct array (absent = 0).
  PagedLineMap golden_flat_;
  std::uint64_t violations_ = 0;
  std::uint64_t loads_checked_ = 0;
  std::uint64_t stores_seen_ = 0;
};

}  // namespace raccd
