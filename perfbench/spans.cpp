#include "spans.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "raccd/metrics/emit.hpp"

namespace perfbench {

int SpanLog::open(std::string name, std::uint32_t sim) {
  Span s;
  s.name = std::move(name);
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.sim = sim;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  if (stack_.empty() || stack_.back() != index) {
    std::fprintf(stderr, "perfbench: span '%s' closed out of order\n",
                 spans_.at(static_cast<std::size_t>(index)).name.c_str());
    std::abort();
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

std::string SpanLog::write_json(const std::string& path) const {
  if (!stack_.empty()) return "spans still open at export";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return "cannot open " + tmp;
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    os << R"({"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"perfbench host"}})";
    char buf[160];
    for (const Span& s : spans_) {
      const std::string parent =
          s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : std::string();
      std::snprintf(buf, sizeof buf, R"(,"ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"sim":%u,)",
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.sim);
      os << ",\n{\"name\":\"" << raccd::json_escape(s.name) << "\",\"ph\":\"X\"" << buf
         << "\"parent\":\"" << raccd::json_escape(parent) << "\"}}";
    }
    os << "\n]}\n";
    if (!os) return "write failed: " + tmp;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return ec ? "rename failed: " + ec.message() : std::string();
}

}  // namespace perfbench
