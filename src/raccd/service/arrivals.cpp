#include "raccd/service/arrivals.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "raccd/common/format.hpp"
#include "raccd/common/rng.hpp"

namespace raccd {
namespace {

[[nodiscard]] std::vector<Cycle> fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return {};
}

/// One decimal field of a schedule line, optionally space-padded. Rejects a
/// sign, trailing characters and values past 2^64-1, all of which strtoull
/// would silently accept ("-5" wraps, "12abc" reads as 12, overflow clamps).
[[nodiscard]] bool parse_field(std::string_view s, std::uint64_t& v) {
  constexpr std::string_view kSpace = " \t\r";
  s.remove_prefix(std::min(s.find_first_not_of(kSpace), s.size()));
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  s.remove_prefix(static_cast<std::size_t>(end - s.data()));
  return ec == std::errc{} && s.find_first_not_of(kSpace) == std::string_view::npos;
}

/// Exponential inter-arrival gap with the given mean (inverse CDF on the
/// deterministic Rng; 1-u is in (0,1] so the log never sees zero).
[[nodiscard]] double exp_gap(Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.next_double());
}

/// Clamp an accumulated arrival instant to a valid, monotone release cycle
/// (releases must be >= 1: release 0 means "not gated").
[[nodiscard]] Cycle to_release(double t, Cycle prev) {
  const double rounded = std::floor(t + 0.5);
  Cycle r = rounded < 1.0 ? 1 : static_cast<Cycle>(rounded);
  return r < prev ? prev : r;
}

}  // namespace

std::vector<Cycle> generate_arrivals(const ArrivalConfig& cfg, std::string* error) {
  if (error) error->clear();
  if (cfg.kind == ArrivalKind::kTrace) {
    std::vector<Cycle> out;
    if (!read_schedule_file(cfg.trace_path, out, error)) return {};
    return out;
  }
  if (cfg.count == 0) return fail(error, "arrival count must be > 0");
  if (!(cfg.mean_gap_cycles > 0.0)) {
    return fail(error, "mean inter-arrival gap must be > 0");
  }

  Rng rng(cfg.seed);
  std::vector<Cycle> out;
  out.reserve(cfg.count);

  if (cfg.kind == ArrivalKind::kPoisson) {
    double t = 0.0;
    Cycle prev = 1;
    for (std::uint64_t i = 0; i < cfg.count; ++i) {
      t += exp_gap(rng, cfg.mean_gap_cycles);
      prev = to_release(t, prev);
      out.push_back(prev);
    }
    return out;
  }

  // kBurst: Poisson arrivals confined to the leading `duty` fraction of each
  // period. Generate in "on-time" (the concatenation of the on-windows) at
  // mean gap `mean_gap x duty` — compressing the whole load into the duty
  // fraction — then map on-time back to wall time by skipping each period's
  // off-window. The wall-clock mean rate stays exactly 1/mean_gap.
  if (!(cfg.burst_duty > 0.0) || cfg.burst_duty > 1.0) {
    return fail(error, "burst duty must be in (0, 1]");
  }
  const double period = cfg.burst_period_cycles > 0
                            ? static_cast<double>(cfg.burst_period_cycles)
                            : 16.0 * cfg.mean_gap_cycles;
  const double on_len = cfg.burst_duty * period;
  double t_on = 0.0;
  Cycle prev = 1;
  for (std::uint64_t i = 0; i < cfg.count; ++i) {
    t_on += exp_gap(rng, cfg.mean_gap_cycles * cfg.burst_duty);
    const double k = std::floor(t_on / on_len);
    const double wall = k * period + (t_on - k * on_len);
    prev = to_release(wall, prev);
    out.push_back(prev);
  }
  return out;
}

std::string format_schedule(const std::vector<Cycle>& schedule) {
  std::string out = "raccd-sched v1\n";
  out += strprintf("%zu\n", schedule.size());
  for (const Cycle c : schedule) {
    out += strprintf("%llu\n", static_cast<unsigned long long>(c));
  }
  return out;
}

bool parse_schedule(const std::string& text, std::vector<Cycle>& out,
                    std::string* error) {
  out.clear();
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "raccd-sched v1") {
    if (error) *error = "schedule file missing 'raccd-sched v1' header";
    return false;
  }
  if (!std::getline(in, line)) {
    if (error) *error = "schedule file missing release count";
    return false;
  }
  std::uint64_t count = 0;
  if (!parse_field(line, count)) {
    if (error) *error = strprintf("bad release count '%s'", line.c_str());
    return false;
  }
  // No reserve(count): the declared count is checked against the body only
  // after reading it, so it must never size an allocation.
  Cycle prev = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Cycle c = 0;
    if (!parse_field(line, c)) {
      if (error) *error = strprintf("bad release cycle '%s'", line.c_str());
      return false;
    }
    if (c < 1 || c < prev) {
      if (error) {
        *error = strprintf("release cycles must be >= 1 and non-decreasing "
                           "(got %llu after %llu)",
                           static_cast<unsigned long long>(c),
                           static_cast<unsigned long long>(prev));
      }
      return false;
    }
    prev = c;
    out.push_back(c);
  }
  if (out.size() != count) {
    if (error) {
      *error = strprintf("schedule file declares %llu releases but holds %zu",
                         static_cast<unsigned long long>(count), out.size());
    }
    return false;
  }
  if (out.empty()) {
    if (error) *error = "schedule file holds no releases";
    return false;
  }
  return true;
}

bool write_schedule_file(const std::string& path, const std::vector<Cycle>& schedule,
                         std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = strprintf("cannot write schedule file '%s'", path.c_str());
    return false;
  }
  out << format_schedule(schedule);
  if (!out) {
    if (error) *error = strprintf("write to schedule file '%s' failed", path.c_str());
    return false;
  }
  return true;
}

bool read_schedule_file(const std::string& path, std::vector<Cycle>& out,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = strprintf("cannot read schedule file '%s'", path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return parse_schedule(text, out, error);
}

}  // namespace raccd
