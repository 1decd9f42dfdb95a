#include "raccd/harness/sweep_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "raccd/common/format.hpp"

namespace raccd {
namespace {

// The stats text is `format=<version>` followed by one `key=value` line per
// field of SimStats' field lists, sorted by key. Doubles print with full
// precision, everything else as a decimal integer.

[[nodiscard]] bool gate_open(const SimStats& s, StatGate gate) noexcept {
  switch (gate) {
    case StatGate::kAlways: return true;
    case StatGate::kSampling: return s.sampling.active != 0;
    case StatGate::kService: return s.service.requests != 0;
  }
  return false;
}

template <class T>
[[nodiscard]] std::string format_value(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return strprintf("%.17g", v);
  } else {
    return std::to_string(static_cast<std::uint64_t>(v));
  }
}

/// The whole of `text` must parse as a T (integers must also fit).
template <class T>
[[nodiscard]] bool parse_value(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) {
    const auto r = std::from_chars(text.data(), end, out);
    return r.ec == std::errc{} && r.ptr == end;
  } else {
    std::uint64_t u = 0;
    const auto r = std::from_chars(text.data(), end, u);
    if (r.ec != std::errc{} || r.ptr != end) return false;
    out = static_cast<T>(u);
    return static_cast<std::uint64_t>(out) == u;
  }
}

}  // namespace

std::string stats_to_text(const SimStats& s) {
  std::vector<std::pair<std::string_view, std::string>> lines;
  SimStats::for_each_field([&](const StatField& f, auto field) {
    if (gate_open(s, f.gate)) lines.emplace_back(f.text, format_value(field(s)));
  });
  std::sort(lines.begin(), lines.end());
  std::string out = strprintf("format=%u\n", kStatsFormatVersion);
  for (const auto& [k, v] : lines) {
    out.append(k).append("=").append(v).append("\n");
  }
  return out;
}

std::optional<SimStats> stats_from_text(const std::string& text) {
  // Anything but the exact canonical key set is a miss: a missing or
  // unknown key, a duplicate, a value that does not parse whole, or another
  // format version.
  std::unordered_map<std::string_view, std::string_view> kv;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t nl = std::min(rest.find('\n'), rest.size());
    const std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(std::min(nl + 1, rest.size()));
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    if (!kv.emplace(line.substr(0, eq), line.substr(eq + 1)).second) return std::nullopt;
  }
  const auto version = kv.find("format");
  if (version == kv.end() || version->second != std::to_string(kStatsFormatVersion)) {
    return std::nullopt;
  }
  SimStats s;
  std::size_t consumed = 1;
  bool ok = true;
  SimStats::for_each_field([&](const StatField& f, auto field) {
    const auto it = kv.find(f.text);
    if (it == kv.end()) return;
    ok = ok && parse_value(it->second, field(s));
    ++consumed;
  });
  if (!ok || consumed != kv.size()) return std::nullopt;
  // Gated groups: present exactly when their gate counter says so.
  SimStats::for_each_field([&](const StatField& f, auto) {
    ok = ok && kv.contains(f.text) == gate_open(s, f.gate);
  });
  if (!ok) return std::nullopt;
  return s;
}

namespace {

// Cache keys become single filenames: map path separators and other
// filesystem-hostile characters to '_' (identity for legacy keys, which
// only contain [A-Za-z0-9.{}=,:-]).
[[nodiscard]] std::string key_filename(const std::string& key) {
  std::string out = key;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '{' || c == '}' ||
                    c == '=' || c == ',' || c == ':' || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return out + ".stats";
}

}  // namespace

std::optional<SimStats> cache_load(const std::string& dir, const std::string& key) {
  std::error_code ec;
  const std::filesystem::path path = std::filesystem::path(dir) / key_filename(key);
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return stats_from_text(text);
}

bool cache_store(const std::string& dir, const std::string& key, const SimStats& s) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  if (!std::filesystem::is_directory(dir, ec)) return false;
  // Write-to-temp + rename so concurrent executor workers (or bench
  // binaries sharing one cache) never observe a truncated entry; the rename
  // makes same-key races benign — the model is deterministic, so the last
  // writer wins with identical bytes. The tmp name must be unique across
  // every concurrent writer: pid (thread-id hashes can collide across
  // processes) + thread id + a per-process sequence number (two stores from
  // one worker can otherwise alias under recycled thread ids).
  static std::atomic<unsigned long long> seq{0};
  const std::filesystem::path path = std::filesystem::path(dir) / key_filename(key);
  const std::filesystem::path tmp =
      path.string() +
      strprintf(".tmp.%ld.%llu.%llu", static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    std::hash<std::thread::id>{}(std::this_thread::get_id())),
                seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << stats_to_text(s);
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace raccd
