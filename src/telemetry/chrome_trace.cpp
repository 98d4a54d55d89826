#include "telemetry/chrome_trace.hpp"

#include <set>
#include <unordered_map>

#include "telemetry/json.hpp"

namespace rapsim::telemetry {

std::string spans_to_chrome_trace(const std::vector<SpanRecord>& spans,
                                  const std::string& process_name) {
  // Resolve each span to its root's thread so one request is one track.
  // Parents may complete after children, so resolve via an id index with
  // memoization rather than relying on record order.
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& span : spans) by_id.emplace(span.id, &span);

  std::unordered_map<std::uint64_t, std::uint32_t> track_memo;
  const auto track_of = [&](const SpanRecord& span) {
    std::vector<std::uint64_t> chain;
    const SpanRecord* at = &span;
    for (;;) {
      const auto memo = track_memo.find(at->id);
      if (memo != track_memo.end()) {
        for (const std::uint64_t id : chain) track_memo[id] = memo->second;
        return memo->second;
      }
      chain.push_back(at->id);
      const auto parent = at->parent != kNoSpan ? by_id.find(at->parent)
                                                : by_id.end();
      if (parent == by_id.end()) break;  // root, or parent never completed
      at = parent->second;
    }
    const std::uint32_t track = at->thread;
    for (const std::uint64_t id : chain) track_memo[id] = track;
    return track;
  };

  JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();

  json.begin_object();
  json.kv("name", "process_name").kv("ph", "M").kv("pid", 0).kv("tid", 0);
  json.key("args").begin_object();
  json.kv("name", std::string_view(process_name));
  json.end_object();
  json.end_object();

  std::set<std::uint32_t> tracks;
  for (const SpanRecord& span : spans) tracks.insert(track_of(span));
  for (const std::uint32_t track : tracks) {
    json.begin_object();
    json.kv("name", "thread_name").kv("ph", "M").kv("pid", 0);
    json.kv("tid", track);
    json.key("args").begin_object();
    json.kv("name", std::string_view("track " + std::to_string(track)));
    json.end_object();
    json.end_object();
  }

  for (const SpanRecord& span : spans) {
    json.begin_object();
    json.kv("name", std::string_view(span.name));
    json.kv("cat", "span").kv("ph", "X").kv("pid", 0);
    json.kv("tid", track_of(span));
    // ns rendered as us so Perfetto shows sub-microsecond durations.
    json.kv("ts", static_cast<double>(span.start_ns) / 1000.0);
    json.kv("dur",
            static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    json.key("args").begin_object();
    json.kv("span", span.id);
    json.kv("parent", span.parent);
    json.kv("thread", span.thread);
    json.end_object();
    json.end_object();
  }

  json.end_array();
  json.kv("displayTimeUnit", "ms");
  json.end_object();
  return json.str();
}

}  // namespace rapsim::telemetry
