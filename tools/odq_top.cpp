// odq_top — live viewer for the metrics snapshot the MetricsExporter
// writes (odq_serve --telemetry; see obs/metrics.hpp and the "Serving
// telemetry" section of docs/observability.md).
//
//   odq_top --snapshot serve.telemetry.json            # live tail
//   odq_top --once --json --snapshot serve.telemetry.json   # scripting
//
// Tails the snapshot file (atomic tmp+rename writes mean every read sees a
// complete document or the previous one) and renders a per-window table of
// every series (count/mean/p50/p95/p99/p999 over total/1s/10s/60s) and
// counter, plus the flush sequence and the trace droppedEvents counter.
//
// Options:
//   --snapshot <path>   snapshot file (required)
//   --interval-ms <n>   poll interval in live mode (default 500)
//   --iterations <n>    stop after n renders (0 = until interrupted)
//   --once              read and render once, then exit (exit 1 when the
//                       snapshot is missing or malformed)
//   --json              emit the parsed snapshot back as JSON on stdout
//                       instead of the table (scripting/ctest; implies the
//                       same validation as the table path)
//   --section <prefix>  only render series/counters whose name starts with
//                       <prefix> (e.g. --section quality, --section serve.)
//
// Series under the quality.* namespace (the shadow lane's per-layer drift
// statistics, recorded in scaled integer units — basis points for
// fractions/TV distance, centi-dB for SQNR) additionally get a decoded
// per-layer table.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "tool_main.hpp"
#include "util/json.hpp"
#include "util/json_read.hpp"
#include "util/status.hpp"

namespace {

using namespace odq;

struct Options {
  std::string snapshot;
  std::string section;
  std::int64_t interval_ms = 500;
  std::int64_t iterations = 0;
  bool once = false;
  bool json = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: odq_top --snapshot snap.json [--interval-ms n]\n"
               "               [--iterations n] [--once] [--json]\n"
               "               [--section prefix]\n");
  return 2;
}

bool in_section(const std::string& name, const std::string& prefix) {
  return prefix.empty() || name.compare(0, prefix.size(), prefix) == 0;
}

// Re-serialize a parsed document (std::map keys iterate sorted, which is
// exactly the writer's convention, so round-trips are stable).
void emit_json(const util::JsonValue& v, util::JsonWriter& w) {
  using Kind = util::JsonValue::Kind;
  switch (v.kind) {
    case Kind::kNull:
      w.value_null();
      break;
    case Kind::kBool:
      w.value(v.b);
      break;
    case Kind::kNumber:
      w.value(v.num);
      break;
    case Kind::kString:
      w.value(v.str);
      break;
    case Kind::kArray:
      w.begin_array();
      for (const util::JsonValue& e : v.arr) emit_json(e, w);
      w.end_array();
      break;
    case Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.obj) {
        w.key(k);
        emit_json(e, w);
      }
      w.end_object();
      break;
  }
}

double num_or(const util::JsonValue& obj, const std::string& key,
              double fallback) {
  if (!obj.has(key)) return fallback;
  const util::JsonValue& v = obj.at(key);
  return v.is_number() ? v.num : fallback;
}

// A snapshot is usable when it self-identifies and carries the schema
// version this viewer understands.
util::Status validate(const util::JsonValue& doc) {
  if (doc.kind != util::JsonValue::Kind::kObject || !doc.has("bench") ||
      !doc.at("bench").is_string() || doc.at("bench").str != "odq_telemetry") {
    return util::Status(util::StatusCode::kCorruption,
                        "not an odq_telemetry snapshot");
  }
  const double version = num_or(doc, "schema_version", -1.0);
  if (version != static_cast<double>(obs::kMetricsSchemaVersion)) {
    return util::Status(util::StatusCode::kFailedPrecondition,
                        "unsupported telemetry schema_version");
  }
  return util::Status::Ok();
}

// Decoded per-layer view of the quality.* series: the shadow lane records
// scaled integers (basis points / centi-dB), so the raw table is hard to
// eyeball; this one undoes the scaling.
void render_quality(const util::JsonValue& doc) {
  if (!doc.has("series") ||
      doc.at("series").kind != util::JsonValue::Kind::kObject) {
    return;
  }
  struct Row {
    double samples = -1.0;
    double sensitive_pct = -1.0;  // negative = metric absent
    double sqnr_db = -1.0;
    double drift_tv = -1.0;
  };
  std::map<std::string, Row> rows;  // by layer suffix ("layer0", ...)
  for (const auto& [name, s] : doc.at("series").obj) {
    static const std::string kPrefix = "quality.";
    if (!in_section(name, kPrefix)) continue;
    const std::size_t dot = name.rfind('.');
    if (dot == std::string::npos || dot < kPrefix.size()) continue;
    const std::string metric = name.substr(kPrefix.size(), dot - kPrefix.size());
    const std::string layer = name.substr(dot + 1);
    if (!s.has("total")) continue;
    const util::JsonValue& total = s.at("total");
    Row& row = rows[layer];
    if (metric == "sensitive_fraction") {
      row.samples = num_or(total, "count", 0);
      row.sensitive_pct = num_or(total, "mean", 0) / 100.0;  // bp -> %
    } else if (metric == "sqnr_db") {
      row.sqnr_db = num_or(total, "mean", 0) / 100.0;  // centi-dB -> dB
    } else if (metric == "drift_distance") {
      row.drift_tv = num_or(total, "mean", 0) / 10000.0;  // bp -> [0,1]
    }
  }
  if (rows.empty()) return;
  std::printf("%-28s %9s %11s %9s %9s\n", "quality (decoded means)",
              "samples", "sensitive%", "sqnr dB", "drift tv");
  for (const auto& [layer, row] : rows) {
    auto cell = [](double v, const char* fmt, char* buf, std::size_t n) {
      if (v < 0.0) {
        std::snprintf(buf, n, "-");
      } else {
        std::snprintf(buf, n, fmt, v);
      }
      return buf;
    };
    char a[32], b[32], c[32], d[32];
    std::printf("%-28s %9s %11s %9s %9s\n", layer.c_str(),
                cell(row.samples, "%.0f", a, sizeof a),
                cell(row.sensitive_pct, "%.2f", b, sizeof b),
                cell(row.sqnr_db, "%.1f", c, sizeof c),
                cell(row.drift_tv, "%.4f", d, sizeof d));
  }
}

void render(const util::JsonValue& doc, const std::string& section) {
  std::printf("odq_top — flush #%.0f   generated %.3f s   trace drops %.0f\n",
              num_or(doc, "flush_seq", 0),
              num_or(doc, "generated_us", 0) / 1e6,
              num_or(doc, "trace_dropped_events", 0));
  static const std::vector<std::string> kWindows = {"total", "1s", "10s",
                                                    "60s"};
  if (doc.has("series") &&
      doc.at("series").kind == util::JsonValue::Kind::kObject) {
    std::printf("%-28s %-6s %9s %10s %8s %8s %8s %8s\n", "series", "win",
                "count", "mean", "p50", "p95", "p99", "p999");
    for (const auto& [name, s] : doc.at("series").obj) {
      if (!in_section(name, section)) continue;
      bool first = true;
      for (const std::string& win : kWindows) {
        // A window object can legitimately be absent (e.g. a series added
        // by a newer writer, or pruned windows): keep the row aligned with
        // a placeholder instead of silently dropping it.
        if (!s.has(win)) {
          std::printf("%-28s %-6s %9s %10s %8s %8s %8s %8s\n",
                      first ? name.c_str() : "", win.c_str(), "-", "-", "-",
                      "-", "-", "-");
          first = false;
          continue;
        }
        const util::JsonValue& ws = s.at(win);
        std::printf("%-28s %-6s %9.0f %10.1f %8.0f %8.0f %8.0f %8.0f\n",
                    first ? name.c_str() : "", win.c_str(),
                    num_or(ws, "count", 0), num_or(ws, "mean", 0),
                    num_or(ws, "p50", 0), num_or(ws, "p95", 0),
                    num_or(ws, "p99", 0), num_or(ws, "p999", 0));
        first = false;
      }
    }
  }
  if (doc.has("counters") &&
      doc.at("counters").kind == util::JsonValue::Kind::kObject &&
      !doc.at("counters").obj.empty()) {
    bool header = false;
    for (const auto& [name, c] : doc.at("counters").obj) {
      if (!in_section(name, section)) continue;
      if (!header) {
        std::printf("%-28s %12s %9s %9s %9s\n", "counter", "total", "1s",
                    "10s", "60s");
        header = true;
      }
      std::printf("%-28s %12.0f %9.0f %9.0f %9.0f\n", name.c_str(),
                  num_or(c, "total", 0), num_or(c, "1s", 0),
                  num_or(c, "10s", 0), num_or(c, "60s", 0));
    }
  }
  if (in_section("quality.", section) || in_section(section, "quality")) {
    render_quality(doc);
  }
}

}  // namespace

int tool_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "odq_top: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--snapshot") {
      opt.snapshot = next("--snapshot");
    } else if (a == "--interval-ms") {
      opt.interval_ms = std::atoll(next("--interval-ms"));
    } else if (a == "--iterations") {
      opt.iterations = std::atoll(next("--iterations"));
    } else if (a == "--once") {
      opt.once = true;
    } else if (a == "--json") {
      opt.json = true;
    } else if (a == "--section") {
      opt.section = next("--section");
    } else {
      return usage();
    }
  }
  if (opt.snapshot.empty()) {
    std::fprintf(stderr, "odq_top: --snapshot is required\n");
    return usage();
  }
  if (opt.interval_ms < 1) opt.interval_ms = 1;

  std::int64_t renders = 0;
  while (true) {
    const util::StatusOr<util::JsonValue> parsed =
        util::json_try_parse_file(opt.snapshot);
    util::Status ok = parsed.ok() ? validate(*parsed) : parsed.status();
    if (ok.ok()) {
      if (opt.json) {
        util::JsonWriter w;
        emit_json(*parsed, w);
        std::printf("%s\n", w.take().c_str());
      } else {
        if (!opt.once) std::printf("\033[2J\033[H");  // clear in live mode
        render(*parsed, opt.section);
      }
      std::fflush(stdout);
      ++renders;
    } else if (opt.once) {
      std::fprintf(stderr, "odq_top: %s: %s\n", opt.snapshot.c_str(),
                   ok.message().c_str());
      return 1;
    }
    if (opt.once) return 0;
    if (opt.iterations > 0 && renders >= opt.iterations) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
  }
}

int main(int argc, char** argv) {
  return odq::tools::run_guarded("odq_top",
                                 [&] { return tool_main(argc, argv); });
}
