#include "raccd/apps/registry.hpp"

#include <algorithm>
#include <numeric>

#include "raccd/common/format.hpp"

namespace raccd {
namespace {

/// Levenshtein distance, two-row rolling array — the registry holds a few
/// dozen short names, so the quadratic cost is irrelevant.
[[nodiscard]] std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  std::iota(prev.begin(), prev.end(), std::size_t{0});
  for (std::size_t i = 0; i < a.size(); ++i) {
    cur[0] = i + 1;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t subst = prev[j] + (a[i] == b[j] ? 0 : 1);
      cur[j + 1] = std::min({prev[j + 1] + 1, cur[j] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry registry;
  return registry;
}

bool WorkloadRegistry::add(WorkloadInfo info) {
  if (info.name.empty() || info.factory == nullptr) return false;
  const auto it = std::lower_bound(
      workloads_.begin(), workloads_.end(), info.name,
      [](const WorkloadInfo& w, const std::string& n) { return w.name < n; });
  if (it != workloads_.end() && it->name == info.name) return false;
  workloads_.insert(it, std::move(info));
  return true;
}

const WorkloadInfo* WorkloadRegistry::find(std::string_view name) const {
  const auto it = std::lower_bound(
      workloads_.begin(), workloads_.end(), name,
      [](const WorkloadInfo& w, std::string_view n) { return w.name < n; });
  if (it != workloads_.end() && it->name == name) return &*it;
  return nullptr;
}

std::vector<std::string> WorkloadRegistry::names(std::string_view family) const {
  std::vector<std::string> out;
  for (const WorkloadInfo& w : workloads_) {
    if (family.empty() || w.family == family) out.push_back(w.name);
  }
  return out;
}

std::vector<std::string> WorkloadRegistry::families() const {
  std::vector<std::string> out;
  for (const WorkloadInfo& w : workloads_) {
    if (std::find(out.begin(), out.end(), w.family) == out.end()) {
      out.push_back(w.family);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string WorkloadRegistry::unknown_name_message(std::string_view name) const {
  std::string known;
  const WorkloadInfo* nearest = nullptr;
  std::size_t nearest_d = ~std::size_t{0};
  for (const WorkloadInfo& w : workloads_) {
    if (!known.empty()) known += ", ";
    known += w.name;
    const std::size_t d = edit_distance(name, w.name);
    if (d < nearest_d) {
      nearest_d = d;
      nearest = &w;
    }
  }
  std::string msg = strprintf("unknown workload '%.*s'",
                              static_cast<int>(name.size()), name.data());
  // Only suggest plausible typos: within 3 edits or half the typed length.
  if (nearest != nullptr &&
      nearest_d <= std::max<std::size_t>(3, name.size() / 2)) {
    msg += strprintf(" — did you mean '%s'?", nearest->name.c_str());
  }
  msg += strprintf(" (registered: %s)", known.empty() ? "none" : known.c_str());
  return msg;
}

WorkloadParams WorkloadRegistry::supported_params(std::string_view name,
                                                  const WorkloadParams& params) const {
  const WorkloadInfo* w = find(name);
  if (w == nullptr) return params;
  WorkloadParams out;
  for (const auto& e : params.entries()) {
    if (w->schema.find(e.key) != nullptr) out.set(e.key, e.value);
  }
  return out;
}

std::unique_ptr<App> WorkloadRegistry::create(std::string_view name,
                                              const AppConfig& cfg,
                                              std::string* error) const {
  const WorkloadInfo* w = find(name);
  if (w == nullptr) {
    if (error != nullptr) *error = unknown_name_message(name);
    return nullptr;
  }
  const std::string verr = w->schema.validate(cfg.params);
  if (!verr.empty()) {
    if (error != nullptr) {
      *error = strprintf("workload '%s': %s", w->name.c_str(), verr.c_str());
    }
    return nullptr;
  }
  std::unique_ptr<App> app = w->factory(cfg);
  if (app == nullptr && error != nullptr) {
    *error = strprintf("workload '%s': factory returned no app", w->name.c_str());
  }
  return app;
}

std::string parse_workload_ref(std::string_view ref, std::string& name,
                               WorkloadParams& params) {
  const std::size_t colon = ref.find(':');
  name = std::string(ref.substr(0, colon));
  if (name.empty()) return "empty workload name";
  if (colon == std::string_view::npos) return {};
  return WorkloadParams::parse(ref.substr(colon + 1), params);
}

std::string format_workload_ref(std::string_view name, const WorkloadParams& params) {
  std::string out(name);
  if (!params.empty()) {
    out += ':';
    out += params.canonical();
  }
  return out;
}

}  // namespace raccd
