// Tests for the telemetry subsystem: the JSON writer and parser (and the
// round trip between them), the metrics registry, the Dmm RunTelemetry
// sink, the bank profile, the chrome://tracing exporters, and the
// dmm::Trace renderings (text, phases, chrome trace).
//
// The chrome-trace and registry tests are golden-schema round-trips: they
// pin the keys and the structural invariants (balanced containers, one
// event per dispatch, warp/slot/completion numbers of the Figure 3 worked
// example) that the contract suites (contract.hpp) and external consumers
// (Perfetto, the results/metrics/ drop) rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/certificate.hpp"
#include "core/mapping.hpp"
#include "dmm/machine.hpp"
#include "dmm/trace.hpp"
#include "telemetry/bank_profile.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_telemetry.hpp"
#include "telemetry/span_tracer.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace rapsim {
namespace {

// --- JSON writer -----------------------------------------------------------

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(telemetry::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(telemetry::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, BuildsNestedDocument) {
  telemetry::JsonWriter json;
  json.begin_object();
  json.kv("name", "x\"y");
  json.kv("count", std::uint64_t{7});
  json.kv("ratio", 0.5);
  json.key("list").begin_array().value(1).value(2).end_array();
  json.key("nested").begin_object().kv("flag", true).end_object();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"x\\\"y\",\"count\":7,\"ratio\":0.5,"
            "\"list\":[1,2],\"nested\":{\"flag\":true}}");
}

TEST(JsonWriter, RawValueSplicesVerbatim) {
  telemetry::JsonWriter json;
  json.begin_object();
  json.key("inner").raw_value("{\"a\":1}");
  json.end_object();
  EXPECT_EQ(json.str(), "{\"inner\":{\"a\":1}}");
}

TEST(JsonWriter, RejectsStructuralMisuse) {
  telemetry::JsonWriter json;
  json.begin_object();
  EXPECT_THROW(json.value(1), std::logic_error);   // value without key
  EXPECT_THROW(json.end_array(), std::logic_error);  // wrong closer
  EXPECT_THROW((void)json.str(), std::logic_error);  // still open
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  telemetry::JsonWriter json;
  json.begin_array().value(std::nan("")).end_array();
  EXPECT_EQ(json.str(), "[null]");
}

// --- JSON parser -----------------------------------------------------------

TEST(JsonParse, ScalarsRoundTrip) {
  EXPECT_TRUE(telemetry::parse_json("null").is_null());
  EXPECT_EQ(telemetry::parse_json("true").as_bool(), true);
  EXPECT_EQ(telemetry::parse_json("-42").as_integer(), -42);
  EXPECT_TRUE(telemetry::parse_json("1.5").is_number());
  EXPECT_FALSE(telemetry::parse_json("1.5").is_integer());
  EXPECT_EQ(telemetry::parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(telemetry::parse_json("  7 ").as_integer(), 7);
}

TEST(JsonParse, ObjectKeepsInsertionOrder) {
  const telemetry::JsonValue doc = telemetry::parse_json(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.serialize(), R"({"z":1,"a":2,"m":3})");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->as_integer(), 2);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, RejectsDuplicateKeys) {
  EXPECT_THROW(telemetry::parse_json(R"({"a":1,"a":2})"), std::invalid_argument);
}

TEST(JsonParse, RejectsTrailingGarbageAndCommas) {
  EXPECT_THROW(telemetry::parse_json("1 2"), std::invalid_argument);
  EXPECT_THROW(telemetry::parse_json("[1,2,]"), std::invalid_argument);
  EXPECT_THROW(telemetry::parse_json(R"({"a":1,})"), std::invalid_argument);
  EXPECT_THROW(telemetry::parse_json(""), std::invalid_argument);
  EXPECT_THROW(telemetry::parse_json("NaN"), std::invalid_argument);
}

TEST(JsonParse, DepthCapStopsCraftedNesting) {
  std::string deep;
  for (std::size_t i = 0; i < telemetry::kMaxJsonDepth + 8; ++i) deep += '[';
  for (std::size_t i = 0; i < telemetry::kMaxJsonDepth + 8; ++i) deep += ']';
  EXPECT_THROW(telemetry::parse_json(deep), std::invalid_argument);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(telemetry::parse_json(R"("A\n")").as_string(), "A\n");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(telemetry::parse_json(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(telemetry::parse_json(R"("\uD83D")"), std::invalid_argument);
}

// --- Metrics registry ------------------------------------------------------

TEST(MetricsRegistry, CounterIdentityByNameAndLabels) {
  telemetry::MetricsRegistry registry;
  auto& a = registry.counter("requests", {{"bank", "0"}});
  auto& b = registry.counter("requests", {{"bank", "0"}});
  auto& c = registry.counter("requests", {{"bank", "1"}});
  a.inc(3);
  b.inc(2);
  c.inc();
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, DistributionPercentiles) {
  telemetry::MetricsRegistry registry;
  auto& d = registry.distribution("congestion", {{"scheme", "RAP"}});
  for (std::uint64_t v = 1; v <= 100; ++v) d.observe(v);
  EXPECT_EQ(d.percentile(50.0), 50u);
  EXPECT_EQ(d.percentile(99.0), 99u);
  EXPECT_NEAR(d.stats().mean(), 50.5, 1e-12);
}

TEST(MetricsRegistry, JsonDumpCarriesAllSections) {
  telemetry::MetricsRegistry registry;
  registry.counter("dispatches", {{"scheme", "RAW"}}).inc(4);
  registry.gauge("occupancy").set(0.75);
  registry.distribution("congestion").observe_repeated(3, 10);
  const std::string json = registry.to_json();
  for (const char* key :
       {"\"counters\"", "\"gauges\"", "\"distributions\"", "\"dispatches\"",
        "\"scheme\":\"RAW\"", "\"occupancy\"", "\"p95\"", "\"p99\"",
        "\"histogram\"", "\"3\":10"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// --- Dmm telemetry sink ----------------------------------------------------

/// The Figure 3 worked example: w = 4, l = 5, W(0) -> {7, 5, 15, 0}
/// (bank-3 conflict), W(1) -> {10, 11, 12, 9} (conflict-free).
dmm::Kernel fig3_kernel() {
  dmm::Kernel kernel;
  kernel.num_threads = 8;
  dmm::Row instr(8);
  const std::uint64_t w0[4] = {7, 5, 15, 0};
  const std::uint64_t w1[4] = {10, 11, 12, 9};
  for (std::uint32_t t = 0; t < 4; ++t) {
    instr[t] = dmm::ThreadOp::load(w0[t]);
    instr[4 + t] = dmm::ThreadOp::load(w1[t]);
  }
  kernel.push(std::move(instr));
  return kernel;
}

TEST(RunTelemetry, Fig3BankCountsAndCongestion) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  dmm::Dmm machine(dmm::DmmConfig{4, 5}, map);
  telemetry::RunTelemetry sink;
  machine.set_telemetry(&sink);
  const auto stats = machine.run(fig3_kernel());

  EXPECT_EQ(stats.time, 7u);
  EXPECT_EQ(sink.dispatches, 2u);
  EXPECT_EQ(sink.total_slots, 3u);
  // Banks of {7,5,15,0} = {3,1,3,0}; banks of {10,11,12,9} = {2,3,0,1}.
  ASSERT_EQ(sink.bank_requests.size(), 4u);
  EXPECT_EQ(sink.bank_requests[0], 2u);
  EXPECT_EQ(sink.bank_requests[1], 2u);
  EXPECT_EQ(sink.bank_requests[2], 1u);
  EXPECT_EQ(sink.bank_requests[3], 3u);
  // W(0) put two requests on bank 3; no dispatch put two anywhere else.
  EXPECT_EQ(sink.bank_peak[3], 2u);
  EXPECT_EQ(sink.bank_peak[0], 1u);
  // Congestion histogram: one dispatch at 2, one at 1.
  EXPECT_EQ(sink.congestion.occurrences(1), 1u);
  EXPECT_EQ(sink.congestion.occurrences(2), 1u);
  // W(1) was ready at slot 0 but dispatched at slot 2.
  EXPECT_EQ(sink.warp_stall_slots, 2u);
  EXPECT_EQ(sink.pipeline_idle_slots, 0u);
  EXPECT_NEAR(sink.bank_occupancy(3), 1.0, 1e-12);
}

TEST(RunTelemetry, ResetBetweenRuns) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  dmm::Dmm machine(dmm::DmmConfig{4, 5}, map);
  telemetry::RunTelemetry sink;
  machine.set_telemetry(&sink);
  (void)machine.run(fig3_kernel());
  (void)machine.run(fig3_kernel());
  // Second run starts from zero, not accumulated.
  EXPECT_EQ(sink.dispatches, 2u);
  EXPECT_EQ(sink.bank_requests[3], 3u);
}

TEST(RunTelemetry, NullSinkRunMatchesInstrumentedRun) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  dmm::Dmm plain(dmm::DmmConfig{4, 5}, map);
  dmm::Dmm instrumented(dmm::DmmConfig{4, 5}, map);
  telemetry::RunTelemetry sink;
  instrumented.set_telemetry(&sink);
  const auto a = plain.run(fig3_kernel());
  const auto b = instrumented.run(fig3_kernel());
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.total_stages, b.total_stages);
  EXPECT_EQ(a.dispatches, b.dispatches);
}

TEST(RunTelemetry, FlushIntoRegistry) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  dmm::Dmm machine(dmm::DmmConfig{4, 5}, map);
  telemetry::RunTelemetry sink;
  machine.set_telemetry(&sink);
  (void)machine.run(fig3_kernel());

  telemetry::MetricsRegistry registry;
  sink.flush_into(registry, {{"scheme", "RAW"}});
  EXPECT_EQ(registry.counter("dmm.dispatches", {{"scheme", "RAW"}}).value(),
            2u);
  EXPECT_EQ(registry
                .counter("dmm.bank_requests",
                         {{"bank", "3"}, {"scheme", "RAW"}})
                .value(),
            3u);
  const auto& congestion =
      registry.distribution("dmm.congestion", {{"scheme", "RAW"}});
  EXPECT_EQ(congestion.stats().count(), 2u);
  EXPECT_EQ(congestion.percentile(100.0), 2u);
}

// --- Trace text renderings -------------------------------------------------

dmm::Trace fig3_trace() {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  dmm::Dmm machine(dmm::DmmConfig{4, 5}, map);
  dmm::Trace trace;
  (void)machine.run(fig3_kernel(), &trace);
  return trace;
}

TEST(TraceText, CsvHasHeaderAndOneRowPerDispatch) {
  const std::string csv = fig3_trace().to_csv();
  EXPECT_EQ(csv.find("warp,instruction,start,stages,completion,"
                     "active_threads,unique_requests\n"),
            0u);
  // Two dispatches -> header + 2 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("0,0,0,2,6,4,4"), std::string::npos);
  EXPECT_NE(csv.find("1,0,2,1,7,4,4"), std::string::npos);
}

TEST(TraceText, ToStringDescribesDispatches) {
  const std::string text = fig3_trace().to_string();
  EXPECT_NE(text.find("warp 0 instr 0"), std::string::npos);
  EXPECT_NE(text.find("congestion 2"), std::string::npos);
  EXPECT_NE(text.find("completes at t=7"), std::string::npos);
  EXPECT_NE(text.find("4 unique requests"), std::string::npos);
}

// --- Phase helpers + bank profile ------------------------------------------

TEST(PhaseStats, SplitsTransposeIntoReadAndWrite) {
  const workloads::Workload crsw =
      workloads::workload_program("transpose-crsw", 8);
  const vm::LoweredProgram program =
      vm::lower_program(vm::assemble(crsw.text, 8));
  const core::AddressMap map(core::Scheme::kRaw, 8, program.rows);
  dmm::Dmm machine(dmm::DmmConfig{8, 1}, map);
  dmm::Trace trace;
  const auto report =
      workloads::run_program(program, crsw.reference, machine, 1, &trace);
  ASSERT_TRUE(report.correct);

  const auto read = dmm::phase_stats(trace, 0);
  const auto write = dmm::phase_stats(trace, 1);
  // CRSW under RAW: contiguous read (congestion 1), stride write (w).
  EXPECT_EQ(read.dispatches, 8u);
  EXPECT_DOUBLE_EQ(read.avg_congestion, 1.0);
  EXPECT_EQ(read.max_congestion, 1u);
  EXPECT_EQ(write.max_congestion, 8u);
  EXPECT_DOUBLE_EQ(write.avg_congestion, 8.0);

  const auto phases = dmm::per_instruction_stats(trace);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].instruction, 0u);
  EXPECT_EQ(phases[1].instruction, 1u);
  EXPECT_EQ(phases[0].dispatches + phases[1].dispatches,
            trace.dispatches.size());
  EXPECT_DOUBLE_EQ(phases[1].avg_congestion, write.avg_congestion);

  const std::string timeline = dmm::render_phase_timeline(trace);
  EXPECT_NE(timeline.find("instr 0:"), std::string::npos);
  EXPECT_NE(timeline.find("instr 1:"), std::string::npos);
}

TEST(PhaseStats, MissingInstructionIsEmpty) {
  const auto phase = dmm::phase_stats(fig3_trace(), 42);
  EXPECT_EQ(phase.dispatches, 0u);
  EXPECT_EQ(phase.avg_congestion, 0.0);
}

TEST(BankProfile, HeatmapMarksHotBank) {
  telemetry::BankProfile profile(8);
  profile.add_row("RAW", {64, 1, 1, 1, 1, 1, 1, 1});
  profile.add_row("RAP", {8, 8, 8, 8, 8, 8, 8, 8});
  const std::string heatmap = profile.render_heatmap();
  EXPECT_NE(heatmap.find("RAW"), std::string::npos);
  EXPECT_NE(heatmap.find("max 64 @ bank 0"), std::string::npos);
  // The uniform row renders at full intensity everywhere.
  EXPECT_NE(heatmap.find("[@@@@@@@@]"), std::string::npos);
  // The skewed row has exactly one full-intensity cell inside the map.
  const std::size_t raw_open = heatmap.find('[', heatmap.find("RAW"));
  const std::size_t raw_close = heatmap.find(']', raw_open);
  ASSERT_NE(raw_open, std::string::npos);
  const std::string raw_cells = heatmap.substr(raw_open, raw_close - raw_open);
  EXPECT_EQ(std::count(raw_cells.begin(), raw_cells.end(), '@'), 1);
}

TEST(BankProfile, RejectsWrongWidth) {
  telemetry::BankProfile profile(4);
  EXPECT_THROW(profile.add_row("x", {1, 2, 3}), std::invalid_argument);
}

TEST(BankProfile, FoldsWideMemories) {
  telemetry::BankProfile profile(128);
  std::vector<std::uint64_t> counts(128, 1);
  counts[127] = 100;
  profile.add_row("wide", std::move(counts));
  const std::string heatmap = profile.render_heatmap(64);
  EXPECT_NE(heatmap.find("(x2 per column)"), std::string::npos);
  EXPECT_NE(heatmap.find("max 100 @ bank 127"), std::string::npos);
}

TEST(BankProfile, JsonRoundTrip) {
  telemetry::BankProfile profile(2);
  profile.add_row("RAW", {5, 7});
  EXPECT_EQ(profile.to_json(),
            "{\"width\":2,\"rows\":[{\"label\":\"RAW\","
            "\"bank_requests\":[5,7]}]}");
}

// --- chrome://tracing exporter ---------------------------------------------

TEST(ChromeTrace, Fig3GoldenSchema) {
  const std::string json = dmm::to_chrome_trace(fig3_trace());

  // Structural sanity: balanced braces/brackets (the exporter writes
  // through JsonWriter, which throws on imbalance, but pin it anyway).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  for (const char* key :
       {"\"traceEvents\"", "\"displayTimeUnit\"", "\"process_name\"",
        "\"thread_name\"", "\"warp 0\"", "\"warp 1\"", "\"ph\":\"X\"",
        "\"ph\":\"M\"", "\"ph\":\"C\"", "\"cat\":\"dispatch\"",
        "\"cat\":\"latency\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  // The two dispatches of the worked example: W(0) occupies slots [0, 2)
  // with congestion 2, W(1) slot [2, 3) with congestion 1; both complete
  // by t = 7 (paper: 3 + 5 - 1).
  EXPECT_NE(json.find("\"tid\":0,\"ts\":0,\"dur\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1,\"ts\":2,\"dur\":1"), std::string::npos);
  EXPECT_NE(json.find("\"completion\":7"), std::string::npos);
  // Latency tails: W(0) in flight over [2, 6], W(1) over [3, 7].
  EXPECT_NE(json.find("\"ts\":2,\"dur\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":3,\"dur\":4"), std::string::npos);
}

TEST(ChromeTrace, OptionsDisableOptionalTracks) {
  dmm::ChromeTraceOptions options;
  options.latency_spans = false;
  options.congestion_counter = false;
  const std::string json = dmm::to_chrome_trace(fig3_trace(), options);
  EXPECT_EQ(json.find("\"cat\":\"latency\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"dispatch\""), std::string::npos);
}

TEST(ChromeTrace, EmptyTraceIsStillValid) {
  const std::string json = dmm::to_chrome_trace(dmm::Trace{});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"dispatch\""), std::string::npos);
}

// --- span tracer -----------------------------------------------------------

TEST(SpanTracer, DisabledRecordsNothing) {
  telemetry::SpanTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.begin("phase"), telemetry::kNoSpan);
  tracer.end(telemetry::kNoSpan);  // must be a harmless no-op
  EXPECT_EQ(tracer.completed_count(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(SpanTracer, RecordsParentLinksAndOrderedTimestamps) {
  telemetry::SpanTracer tracer;
  tracer.enable();
  const std::uint64_t root = tracer.begin("request");
  const std::uint64_t child = tracer.begin("execute", root);
  ASSERT_NE(root, telemetry::kNoSpan);
  ASSERT_NE(child, telemetry::kNoSpan);
  EXPECT_NE(root, child);
  tracer.end(child);
  tracer.end(root);

  const std::vector<telemetry::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: the child closed first.
  EXPECT_EQ(spans[0].name, "execute");
  EXPECT_EQ(spans[0].parent, root);
  EXPECT_EQ(spans[1].name, "request");
  EXPECT_EQ(spans[1].parent, telemetry::kNoSpan);
  for (const telemetry::SpanRecord& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].end_ns, spans[1].end_ns);
}

TEST(SpanTracer, UnknownAndDoubleEndAreNoOps) {
  telemetry::SpanTracer tracer;
  tracer.enable();
  tracer.end(12345);  // never begun
  const std::uint64_t id = tracer.begin("once");
  tracer.end(id);
  tracer.end(id);  // already closed
  EXPECT_EQ(tracer.completed_count(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.completed_count(), 0u);
}

TEST(SpanTracer, DisableMidRequestDropsTheOpenSpanQuietly) {
  telemetry::SpanTracer tracer;
  tracer.enable();
  const std::uint64_t id = tracer.begin("inflight");
  tracer.disable();
  // The transport still calls end() on the id it was handed.
  tracer.end(id);
  EXPECT_EQ(tracer.begin("after"), telemetry::kNoSpan);
}

TEST(SpanTracer, ScopedSpanIsNullSafeAndBalances) {
  {
    telemetry::ScopedSpan null_span(nullptr, "nothing");
    EXPECT_EQ(null_span.id(), telemetry::kNoSpan);
  }
  telemetry::SpanTracer tracer;
  tracer.enable();
  {
    telemetry::ScopedSpan outer(&tracer, "outer");
    telemetry::ScopedSpan inner(&tracer, "inner", outer.id());
    EXPECT_NE(inner.id(), telemetry::kNoSpan);
  }
  const std::vector<telemetry::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent, spans[1].id);
}

TEST(SpanTracer, ChromeExportRehomesChildrenOntoTheRootTrack) {
  telemetry::SpanTracer tracer;
  tracer.enable();
  const std::uint64_t root = tracer.begin("request");
  const std::uint64_t exec = tracer.begin("execute", root);
  std::thread worker([&] {
    const std::uint64_t nested = tracer.begin("replay:lower", exec);
    tracer.end(nested);
  });
  worker.join();
  tracer.end(exec);
  tracer.end(root);

  const std::string json =
      telemetry::spans_to_chrome_trace(tracer.snapshot(), "unit");
  for (const char* key :
       {"\"traceEvents\"", "\"process_name\"", "\"unit\"", "\"ph\":\"X\"",
        "\"name\":\"request\"", "\"name\":\"execute\"",
        "\"name\":\"replay:lower\"", "\"cat\":\"span\"", "\"span\":",
        "\"parent\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Re-homing: the worker-thread span renders on the ROOT's track, so
  // the whole request is one nested flame. With a single request the
  // document therefore carries exactly one span track.
  const std::string track = "\"tid\":0";
  std::size_t occurrences = 0;
  for (std::size_t at = json.find(track); at != std::string::npos;
       at = json.find(track, at + 1)) {
    ++occurrences;
  }
  // 3 X events + the thread_name metadata row for track 0.
  EXPECT_GE(occurrences, 4u);
  EXPECT_EQ(json.find("\"tid\":1,\"ts\""), std::string::npos);
}


// --- JSON writer -> parser round trip --------------------------------------

/// Writes `value` as the one element of an array and parses it back.
template <typename T>
telemetry::JsonValue round_trip(T value) {
  telemetry::JsonWriter json;
  json.begin_array().value(value).end_array();
  return telemetry::parse_json(json.str()).as_array().at(0);
}

TEST(JsonRoundTrip, EveryEscapedByteSurvives) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) {
    const std::string byte(1, static_cast<char>(c));
    EXPECT_EQ(round_trip(std::string_view(byte)).as_string(), byte)
        << "control byte " << c;
    all += byte;
  }
  all += "\"\\/ plain ";
  all += "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80";  // raw UTF-8
  EXPECT_EQ(round_trip(std::string_view(all)).as_string(), all);

  // Keys go through the same escaping.
  telemetry::JsonWriter json;
  json.begin_object().kv(all, 1).end_object();
  const telemetry::JsonValue doc = telemetry::parse_json(json.str());
  ASSERT_EQ(doc.as_object().size(), 1u);
  EXPECT_EQ(doc.as_object()[0].first, all);
}

TEST(JsonRoundTrip, IntegerExtremesAndNonFiniteDoubles) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(round_trip(kMin).as_integer(), kMin);
  EXPECT_EQ(round_trip(kMax).as_integer(), kMax);

  // Beyond int64 the parser keeps the literal as a double.
  const telemetry::JsonValue big =
      round_trip(std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(big.is_integer());
  EXPECT_DOUBLE_EQ(big.as_number(), 18446744073709551615.0);

  EXPECT_TRUE(round_trip(std::nan("")).is_null());
  EXPECT_TRUE(round_trip(std::numeric_limits<double>::infinity()).is_null());
  EXPECT_TRUE(round_trip(-std::numeric_limits<double>::infinity()).is_null());

  // Doubles are written as "%.12g": 12 significant digits, not the
  // shortest form that round-trips.
  EXPECT_EQ(round_trip(0.5).as_number(), 0.5);
  EXPECT_EQ(round_trip(1.0 / 3.0).as_number(), 0.333333333333);
}

TEST(JsonRoundTrip, EveryInTreeWriterParsesAndReserializesVerbatim) {
  telemetry::MetricsRegistry registry;
  registry.counter("dispatches", {{"scheme", "RAW"}}).inc(4);
  registry.gauge("occupancy").set(0.75);
  registry.distribution("congestion").observe_repeated(3, 10);

  telemetry::BankProfile profile(4);
  profile.add_row("RAW \"stride\"", {9, 0, 0, 1});

  telemetry::SpanTracer tracer;
  tracer.enable();
  const std::uint64_t root = tracer.begin("request");
  tracer.end(tracer.begin("execute", root));
  tracer.end(root);

  std::vector<std::vector<std::uint64_t>> column(1);
  for (std::uint64_t lane = 0; lane < 16; ++lane) column[0].push_back(lane * 16);

  for (const std::string& doc :
       {registry.to_json(), profile.to_json(),
        telemetry::spans_to_chrome_trace(tracer.snapshot(), "unit"),
        dmm::to_chrome_trace(fig3_trace()),
        analyze::prove_worst_warp(column, 16, 256, core::Scheme::kRap)
            .to_json()}) {
    const telemetry::JsonValue parsed = telemetry::parse_json(doc);
    EXPECT_TRUE(parsed.is_object()) << doc;
    EXPECT_EQ(parsed.serialize(), doc);
  }
}
}  // namespace
}  // namespace rapsim
