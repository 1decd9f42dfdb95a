// Stats field lists: each stats struct declares its raw counters once.
//
// A field list is an X-macro next to its struct whose rows read
//
//   X(TYPE, MEMBER, TEXT, NAME, KEY, UNIT, KIND, DOC[, INIT])
//
// TEXT is the stats-text (result cache) key; NAME, KEY, UNIT, KIND and DOC
// describe the metric the field reports as (NAME == nullptr: no metric);
// INIT is an optional non-zero initial value. The struct declares its
// members from the list (RACCD_STAT_MEMBER) and exposes it as a static
//
//   for_each_field(f)  ->  f(const StatField&, accessor)  per row,
//
// where the accessor is a captureless lambda returning that member of
// whichever struct (const or not) it is handed. The stats text
// (harness/sweep_cache), add(), sampled extrapolation (sim/machine) and the
// raw rows of MetricSchema all walk these lists, so a new counter is one row
// (plus its name in the schema-completeness test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace raccd {

/// What a metric measures; fixes formatting and the perf-gate tolerance class.
enum class MetricKind : std::uint8_t {
  kCounter,       ///< event count (integer, exact under determinism)
  kCycles,        ///< simulated-cycle total (integer)
  kRatio,         ///< dimensionless [0,1]-ish fraction (printed %.6f)
  kEnergy,        ///< picojoules (printed %.3f)
  kDistribution,  ///< summary stat of a latency distribution (printed %.1f)
};

[[nodiscard]] constexpr const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kCycles: return "cycles";
    case MetricKind::kRatio: return "ratio";
    case MetricKind::kEnergy: return "energy";
    case MetricKind::kDistribution: return "distribution";
  }
  return "?";
}

/// Optional field groups: the stats text carries a gated group only when
/// its gate counter is non-zero (SamplingStats::active,
/// ServiceStats::requests), so detailed batch runs keep the v5 layout.
enum class StatGate : std::uint8_t { kAlways, kSampling, kService };

/// One row of a field list.
struct StatField {
  const char* text;  ///< stats-text key
  const char* name;  ///< canonical metric name; nullptr when no metric
  const char* key;   ///< flat metric key
  const char* unit;
  MetricKind kind;
  const char* doc;
  StatGate gate = StatGate::kAlways;
};

#define RACCD_STAT_MEMBER(TYPE, MEMBER, TEXT, NAME, KEY, UNIT, KIND, DOC, ...) \
  TYPE MEMBER{__VA_ARGS__};

#define RACCD_STAT_VISIT(TYPE, MEMBER, TEXT, NAME, KEY, UNIT, KIND, DOC, ...)   \
  f(::raccd::StatField{TEXT, NAME, KEY, UNIT, ::raccd::MetricKind::KIND, DOC}, \
    [](auto& s) -> auto& { return s.MEMBER; });

/// The static visitor of a struct whose fields are exactly LIST's rows.
#define RACCD_STAT_FOR_EACH(LIST) \
  template <class F>              \
  static constexpr void for_each_field(F&& f) { LIST(RACCD_STAT_VISIT) }

namespace detail {
template <class C, class M>
M member_type(M C::*);
}  // namespace detail

/// Visit the fields of the sub-struct at `Part` (a pointer to member) with
/// accessors re-rooted at the enclosing struct. A gate other than kAlways
/// marks every field of the part as belonging to that optional group.
template <auto Part, class F>
constexpr void for_each_field_of(F& f, StatGate gate = StatGate::kAlways) {
  using P = decltype(detail::member_type(Part));
  P::for_each_field([&](StatField field, auto acc) {
    using Acc = decltype(acc);
    if (gate != StatGate::kAlways) field.gate = gate;
    f(field, [](auto& s) -> auto& { return Acc{}(s.*Part); });
  });
}

/// Bytes covered by S's field walk. A struct whose fields are all listed
/// leaves less than one alignment unit of padding uncovered — the guard each
/// stats struct asserts, so a member declared outside its list fails to build.
template <class S>
[[nodiscard]] constexpr bool stat_fields_cover() {
  std::size_t bytes = 0;
  S::for_each_field([&](const StatField&, auto acc) {
    bytes += sizeof(std::remove_reference_t<decltype(acc(std::declval<S&>()))>);
  });
  return bytes <= sizeof(S) && sizeof(S) - bytes < alignof(S);
}

/// a += b, field by field.
template <class S>
constexpr void add_fields(S& a, const S& b) noexcept {
  S::for_each_field([&](const StatField&, auto field) { field(a) += field(b); });
}

}  // namespace raccd
