#include "raccd/obs/trace_validate.hpp"

#include <cstdio>
#include <map>

#include "raccd/common/format.hpp"
#include "raccd/common/json.hpp"

namespace raccd::obs {
namespace {

using json::Value;

[[nodiscard]] bool number_field(const Value& ev, const char* key, double& out) {
  const Value* v = ev.get(key);
  if (v == nullptr || v->kind != Value::Kind::kNumber) return false;
  out = v->number;
  return true;
}

}  // namespace

TraceValidation validate_trace_json(std::string_view json) {
  TraceValidation r;
  Value root;
  if (const std::string err = json::parse(json, root); !err.empty()) {
    r.errors.push_back("JSON parse error: " + err);
    return r;
  }
  if (root.kind != Value::Kind::kObject) {
    r.errors.push_back("top level is not an object");
    return r;
  }
  const Value* events = root.get("traceEvents");
  if (events == nullptr || events->kind != Value::Kind::kArray) {
    r.errors.push_back("missing traceEvents array");
    return r;
  }
  if (const Value* meta = root.get("raccd"); meta != nullptr) {
    double d = 0.0;
    if (number_field(*meta, "dropped_total", d)) {
      r.dropped = static_cast<std::uint64_t>(d);
    }
  }

  struct TrackState {
    std::vector<std::string> open;  ///< B names awaiting E
    double last_ts = -1.0;          ///< last B/E timestamp seen
  };
  std::map<std::pair<double, double>, TrackState> tracks;
  const auto err = [&](std::size_t i, const std::string& what) {
    if (r.errors.size() < 20) {
      r.errors.push_back(strprintf("event %zu: %s", i, what.c_str()));
    }
  };

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const Value& ev = events->array[i];
    if (ev.kind != Value::Kind::kObject) {
      err(i, "not an object");
      continue;
    }
    const Value* name = ev.get("name");
    const Value* ph = ev.get("ph");
    if (name == nullptr || name->kind != Value::Kind::kString) {
      err(i, "missing name");
      continue;
    }
    if (ph == nullptr || ph->kind != Value::Kind::kString || ph->string.size() != 1) {
      err(i, "missing/bad ph");
      continue;
    }
    const char phase = ph->string[0];
    if (phase == 'M') {
      ++r.metadata;
      continue;
    }
    if (phase != 'B' && phase != 'E' && phase != 'X' && phase != 'i' && phase != 'C') {
      err(i, strprintf("unknown phase '%c'", phase));
      continue;
    }
    ++r.events;
    double ts = 0.0, pid = 0.0, tid = 0.0;
    if (!number_field(ev, "ts", ts)) {
      err(i, "missing ts");
      continue;
    }
    if (!number_field(ev, "pid", pid) || !number_field(ev, "tid", tid)) {
      err(i, "missing pid/tid");
      continue;
    }
    TrackState& track = tracks[{pid, tid}];
    if (phase == 'X') {
      double dur = 0.0;
      if (!number_field(ev, "dur", dur)) {
        err(i, "X event missing dur");
        continue;
      }
      if (dur < 0.0) err(i, "negative dur");
      ++r.spans;
      continue;
    }
    if (phase == 'B' || phase == 'E') {
      // Per-track timestamps are simulated core/request clocks: monotone by
      // construction. File order within one track is emission order.
      if (ts < track.last_ts) {
        err(i, strprintf("B/E timestamp moved backwards on track (%g,%g): %g < %g",
                         pid, tid, ts, track.last_ts));
      }
      track.last_ts = ts;
      if (phase == 'B') {
        track.open.push_back(name->string);
      } else {
        if (track.open.empty()) {
          err(i, strprintf("E '%s' with no open B on track (%g,%g)",
                           name->string.c_str(), pid, tid));
        } else {
          if (track.open.back() != name->string) {
            err(i, strprintf("E '%s' closes B '%s'", name->string.c_str(),
                             track.open.back().c_str()));
          }
          track.open.pop_back();
          ++r.spans;
        }
      }
    }
  }
  r.tracks = tracks.size();
  if (r.dropped == 0) {
    for (const auto& [key, track] : tracks) {
      if (!track.open.empty() && r.errors.size() < 20) {
        r.errors.push_back(strprintf(
            "track (%g,%g): %zu span(s) never closed ('%s') and no drops declared",
            key.first, key.second, track.open.size(), track.open.back().c_str()));
      }
    }
  }
  r.ok = r.errors.empty();
  return r;
}

TraceValidation validate_trace_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    TraceValidation r;
    r.errors.push_back(strprintf("cannot open '%s'", path.c_str()));
    return r;
  }
  std::string body;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  return validate_trace_json(body);
}

}  // namespace raccd::obs
