#include "support/trace.hpp"

#include <cstdio>

#include "support/strings.hpp"

namespace mv {

Tracer& Tracer::instance() noexcept {
  static Tracer tracer;
  return tracer;
}

void Tracer::reset() {
  events_.clear();
  track_names_.clear();
  dropped_ = 0;
  last_span_ = 0;
}

void Tracer::bind_clock(const void* owner, CycleFn fn) {
  clock_owner_ = owner;
  clock_ = std::move(fn);
}

void Tracer::clear_clock(const void* owner) noexcept {
  if (clock_owner_ == owner) {
    clock_owner_ = nullptr;
    clock_ = nullptr;
  }
}

void Tracer::set_track_name(unsigned core, std::string name) {
  if (track_names_.size() <= core) track_names_.resize(core + 1);
  track_names_[core] = std::move(name);
}

bool Tracer::push(Event e) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(e));
  return true;
}

void Tracer::complete(unsigned core, const char* category, std::string name,
                      std::uint64_t begin_cycles, std::uint64_t end_cycles,
                      std::string args_json) {
  if (!enabled_) return;
  Event e;
  e.phase = 'X';
  e.core = core;
  e.ts = begin_cycles;
  e.dur = end_cycles >= begin_cycles ? end_cycles - begin_cycles : 0;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args_json);
  push(std::move(e));
}

void Tracer::instant(unsigned core, const char* category, std::string name,
                     std::string args_json) {
  if (!enabled_) return;
  Event e;
  e.phase = 'i';
  e.core = core;
  e.ts = now(core);
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args_json);
  push(std::move(e));
}

void Tracer::flow(char phase, unsigned core, SpanId id, std::uint64_t ts,
                  std::string args_json) {
  if (!enabled_) return;
  Event e;
  e.phase = phase;  // 's', 't', or 'f'
  e.core = core;
  e.ts = ts;
  e.flow_id = id;
  e.category = "span";
  e.name = "request";
  e.args = std::move(args_json);
  push(std::move(e));
}

namespace {

// Minimal JSON string escaping: the simulator only emits printable ASCII
// names, but task names may contain quotes or backslashes in principle.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  // chrome://tracing's "ts"/"dur" unit is nominally microseconds; we emit
  // raw simulated cycles and record the substitution in otherData. All
  // events share pid 0 (one simulated machine); tid = core id.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& obj) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += obj;
  };

  emit("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"multiverse-sim\"}}");
  for (std::size_t core = 0; core < track_names_.size(); ++core) {
    if (track_names_[core].empty()) continue;
    emit(strfmt("{\"ph\":\"M\",\"pid\":0,\"tid\":%zu,"
                "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                core, json_escape(track_names_[core]).c_str()));
  }

  for (const Event& e : events_) {
    std::string obj = strfmt(
        "{\"ph\":\"%c\",\"pid\":0,\"tid\":%u,\"cat\":\"%s\","
        "\"name\":\"%s\",\"ts\":%llu",
        e.phase, e.core, json_escape(e.category).c_str(),
        json_escape(e.name).c_str(), static_cast<unsigned long long>(e.ts));
    if (e.phase == 'X') {
      obj += strfmt(",\"dur\":%llu", static_cast<unsigned long long>(e.dur));
    } else if (e.phase == 'i') {
      obj += ",\"s\":\"t\"";
    } else if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      // Flow events bind by (cat, name, id); "bp":"e" makes the terminator
      // attach to the enclosing slice instead of the next one.
      obj += strfmt(",\"id\":\"%llu\"",
                    static_cast<unsigned long long>(e.flow_id));
      if (e.phase == 'f') obj += ",\"bp\":\"e\"";
    }
    if (!e.args.empty()) {
      obj += strfmt(",\"args\":{%s}", e.args.c_str());
    }
    obj += "}";
    emit(obj);
  }

  out += strfmt("\n],\"otherData\":{\"clock_domain\":\"simulated-cycles\","
                "\"ts_unit\":\"cycles\",\"dropped_events\":%llu}}",
                static_cast<unsigned long long>(dropped_));
  return out;
}

Status Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return err(Err::kIo, "cannot open trace output file: " + path);
  }
  const std::string json = to_chrome_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return err(Err::kIo, "short write to trace output file: " + path);
  }
  return Status::ok();
}

}  // namespace mv
