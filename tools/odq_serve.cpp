// odq_serve — batched inference serving engine driven by a synthetic
// client workload (load generator + bit-identity verifier).
//
//   odq_serve --model lenet5 --scheme odq --workers 4 --requests 1000
//             --verify --json serve.json
//
// Builds the requested model (optionally loading a v3 checkpoint) as one
// session every worker shares, starts a ServeEngine, and drives it from
// concurrent client threads submitting single-sample requests. Reports
// p50/p95/p99 latency, throughput and the observed batch-size distribution,
// and mirrors the results as a bench-JSON document odq_bench_diff can gate:
// the deterministic cells (request/error counts, bit-identity) live in the
// "serve" section; wall-clock cells live in "serve_host_wall_clock", which
// the gate ignores by default.
//
// --verify re-runs every request sequentially (batch size 1, fresh session)
// and compares outputs bit-for-bit against the served responses: dynamic
// batching must be a pure scheduling decision, never a numerical one.
//
// Options:
//   --model <name>        lenet5 | resnet20 | resnet56 | vgg16 | densenet
//   --scheme <s>          odq | drq | static_int8 | fp32     (default odq)
//   --checkpoint <path>   v3 checkpoint loaded into every model copy
//   --save-checkpoint <p> write the initialized model as a v3 checkpoint
//                         and exit (companion for --checkpoint runs)
//   --workers <n>         engine worker threads (default 4)
//   --clients <n>         concurrent submitting clients (default 4)
//   --requests <n>        total requests (default 1000)
//   --max-batch <n>       batch flush size (default 8)
//   --flush-us <n>        batch flush deadline in µs (default 2000)
//   --queue-cap <n>       queue capacity / backpressure bound (default 64)
//   --arrival-us <n>      mean inter-arrival sleep per client (default 0)
//   --threshold <t>       ODQ sensitivity threshold (default 0.15)
//   --width <w>           model width parameter (default 8)
//   --seed <s>            workload seed (default 42)
//   --verify              check bit-identity against sequential execution
//   --require-batching    fail unless some batch carried > 1 request
//   --json <path>         write the bench-JSON document
//   --telemetry <path>    switch metrics on; run a background exporter
//                         writing the windowed snapshot to <path> (JSON)
//                         and <path base>.prom (Prometheus text) while the
//                         load runs; tail it live with tools/odq_top
//   --telemetry-flush-ms <n>  exporter flush interval (default 50)
//   --slo-us <n>          per-request latency SLO handed to the engine
//                         (over-SLO requests emit rate-limited exemplars)
//   --check-telemetry     after the run, check the telemetry histogram's
//                         p50/p95/p99 against the load generator's own
//                         measured latencies (must agree within one
//                         histogram bucket) and that the exported snapshot
//                         parses; failures exit 1
//   --shadow-rate <n>     shadow-FP32 quality sampling: deterministically
//                         route 1-in-n requests (by request index, seeded)
//                         through a reference evaluation lane computing
//                         per-layer SQNR / sensitive-fraction / drift
//                         statistics (serve/shadow.hpp); 0 disables
//   --drift-baseline <p>  odq_quality_baseline JSON (odq_fidelity
//                         --emit-baseline) the drift detector compares
//                         sampled windows against
//   --drift-window <n>    sampled requests per drift-detection window
//   --drift-tv <t>        histogram TV-distance alert threshold
//   --flight-dump <p>     write the anomaly flight-recorder ring (input
//                         tensors + per-layer stats of drift-flagged
//                         requests) as a CRC-checked binary dump, replayable
//                         via odq_fidelity --replay; written even when empty
//   --drift-snapshot <p>  write the drift detector's per-layer summary JSON
//   --input-shift <f>     add f to every input value — a deliberate
//                         distribution shift for drift-detection tests
//   --fail-on-drift       exit 1 if any drift alert fired
//   --require-drift       exit 1 if NO drift alert fired (shift tests)
//   --quiet               suppress the human-readable summary on stderr
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "core/odq.hpp"
#include "data/synthetic.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "nn/models.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"
#include "replica.hpp"
#include "serve/engine.hpp"
#include "serve/frontend.hpp"
#include "serve/session.hpp"
#include "serve/shadow.hpp"
#include "tensor/tensor.hpp"
#include "tool_main.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/json_read.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace {

using namespace odq;

struct Options {
  std::string model = "lenet5";
  std::string scheme = "odq";
  std::string checkpoint;
  std::string save_checkpoint;
  std::string json_path;
  std::string telemetry_path;
  int workers = 4;
  int clients = 4;
  std::int64_t requests = 1000;
  std::int64_t max_batch = 8;
  std::int64_t flush_us = 2000;
  std::int64_t queue_cap = 64;
  std::int64_t arrival_us = 0;
  std::int64_t telemetry_flush_ms = 50;
  std::int64_t slo_us = 0;
  float threshold = 0.15f;
  std::int64_t width = 8;
  std::uint64_t seed = 42;
  bool verify = false;
  bool require_batching = false;
  bool check_telemetry = false;
  bool quiet = false;
  // Shadow quality lane.
  std::uint64_t shadow_rate = 0;
  std::string drift_baseline;
  std::string flight_dump;
  std::string drift_snapshot;
  std::int64_t drift_window = 8;
  double drift_tv = 0.12;
  float input_shift = 0.0f;
  bool fail_on_drift = false;
  bool require_drift = false;
  // Networked serving (docs/serving.md). mode selects the in-process load
  // generator ("") or one of the net roles.
  std::string mode;  // "" | "net-server" | "net-client" | "net-bench"
  std::string port_file;
  std::string result_path;  // net-client: where to write the result JSON
  int port = 0;
  std::string tenant = "gold";
  std::int64_t deadline_ms = 0;        // client per-request budget; 0 = none
  std::int64_t read_timeout_ms = 500;  // server receive timeout (slowloris)
  std::int64_t idle_timeout_ms = 30000;
  std::int64_t degrade_high = 0;  // 0 = derived from queue_cap
  std::int64_t shed_high = 0;
  std::int64_t low_water = 0;
  std::int64_t down_hold = 4;
  int client_procs = 2;         // net-bench: processes at 1x load
  std::int64_t req_base = 0;    // net-client: first request id
  std::int64_t overload_slo_ms = 0;  // net-bench: admitted p99 SLO at 2x
};

int usage() {
  std::fprintf(
      stderr,
      "usage: odq_serve [--model lenet5|resnet20|resnet56|vgg16|densenet]\n"
      "                 [--scheme odq|drq|static_int8|fp32]\n"
      "                 [--checkpoint ckpt.bin] [--save-checkpoint ckpt.bin]\n"
      "                 [--workers n] [--clients n] [--requests n]\n"
      "                 [--max-batch n] [--flush-us n] [--queue-cap n]\n"
      "                 [--arrival-us n] [--threshold t] [--width w]\n"
      "                 [--seed s] [--verify] [--require-batching]\n"
      "                 [--json out.json] [--telemetry snap.json]\n"
      "                 [--telemetry-flush-ms n] [--slo-us n]\n"
      "                 [--check-telemetry] [--quiet]\n"
      "                 [--shadow-rate n] [--drift-baseline base.json]\n"
      "                 [--drift-window n] [--drift-tv t]\n"
      "                 [--flight-dump dump.bin] [--drift-snapshot out.json]\n"
      "                 [--input-shift f] [--fail-on-drift] "
      "[--require-drift]\n"
      "       odq_serve --net-server  [--port n] [--port-file p]\n"
      "                 [--read-timeout-ms n] [--idle-timeout-ms n]\n"
      "                 [--degrade-high n] [--shed-high n] [--low-water n]\n"
      "                 [--down-hold n] + model/engine flags\n"
      "       odq_serve --net-client --port n [--tenant t] [--deadline-ms n]\n"
      "                 [--req-base n] [--result out.json] [--verify]\n"
      "                 + model/load flags\n"
      "       odq_serve --net-bench  [--client-procs n] [--deadline-ms n]\n"
      "                 [--overload-slo-ms n] [--json out.json] [--verify]\n"
      "                 + model/engine/load flags\n");
  return 2;
}

// Every copy of the served model holds identical weights
// (tools::make_replica), or batched-vs-sequential comparisons would measure
// replica skew, not batching.
std::unique_ptr<serve::ModelSession> make_session(
    const Options& opt, const std::string& scheme,
    std::shared_ptr<serve::InferenceSession> degraded = nullptr) {
  core::OdqConfig cfg;
  cfg.threshold = opt.threshold;
  return std::make_unique<serve::ModelSession>(
      tools::make_replica(opt.model, opt.width, opt.checkpoint),
      serve::make_conv_executor(scheme, cfg), scheme, std::move(degraded));
}

// Deterministic synthetic request: id -> [1,C,H,W] tensor, independent of
// submission order (so the sequential verifier can regenerate it). Shared
// with odq_fidelity --emit-baseline via data::make_request_input; the
// optional --input-shift offsets every value to simulate drifted traffic.
tensor::Tensor make_request_input(const Options& opt, std::uint64_t id,
                                  const tensor::Shape& chw) {
  tensor::Tensor x = data::make_request_input(opt.seed, id, chw);
  if (opt.input_shift != 0.0f) {
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] += opt.input_shift;
  }
  return x;
}

// Bit-compare two tensors. Returns -1 when identical, -2 on a shape
// mismatch, else the first mismatching flat element index — so verify
// failures report the exact (request, element) pair, not just "diverged".
std::int64_t first_mismatch(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.shape() != b.shape()) return -2;
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0) {
    return -1;
  }
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return i;
  }
  return -1;  // unreachable: memcmp said they differ
}

std::uint32_t float_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Report one verify divergence with the exact element and both bit
// patterns (mismatch == -2 means the shapes themselves disagree).
void print_mismatch(const char* what, std::int64_t request,
                    std::int64_t mismatch, const tensor::Tensor& expected,
                    const tensor::Tensor& got) {
  if (mismatch == -2) {
    std::fprintf(stderr, "odq_serve: %s MISMATCH request %lld: shape differs\n",
                 what, static_cast<long long>(request));
    return;
  }
  std::fprintf(stderr,
               "odq_serve: %s MISMATCH request %lld element %lld: expected "
               "%.9g (0x%08x) got %.9g (0x%08x)\n",
               what, static_cast<long long>(request),
               static_cast<long long>(mismatch),
               static_cast<double>(expected[mismatch]),
               float_bits(expected[mismatch]),
               static_cast<double>(got[mismatch]), float_bits(got[mismatch]));
}

// "x.json" -> "x.prom"; anything else gets ".prom" appended.
std::string prom_path_for(const std::string& json_path) {
  if (json_path.size() > 5 &&
      json_path.compare(json_path.size() - 5, 5, ".json") == 0) {
    return json_path.substr(0, json_path.size() - 5) + ".prom";
  }
  return json_path + ".prom";
}

// ---------------------------------------------------------------------------
// Networked serving modes (docs/serving.md).
// ---------------------------------------------------------------------------

// --net-server: serve the engine over TCP until a client sends the
// kShutdown frame, then drain (connections -> front end -> engine) and
// exit 0. The tenant roster is fixed — "gold" (guaranteed, weight 4) and
// "batch" (best-effort, weight 1) — so every process in a multi-process
// run agrees on admission semantics without a config file.
int run_net_server(const Options& opt) {
  serve::EngineConfig ecfg;
  ecfg.num_workers = opt.workers;
  ecfg.queue_capacity = static_cast<std::size_t>(opt.queue_cap);
  ecfg.max_batch = static_cast<std::size_t>(opt.max_batch);
  ecfg.flush_timeout_us = opt.flush_us;
  ecfg.slo_us = opt.slo_us;
  // One session serves every worker; degraded requests go to a second one.
  const std::shared_ptr<serve::InferenceSession> session =
      make_session(opt, opt.scheme, make_session(opt, "static_int8"));
  serve::ServeEngine engine(ecfg, [&](int) { return session; });

  const auto cap = static_cast<std::size_t>(opt.queue_cap);
  serve::FrontEndConfig fcfg;
  serve::TenantSpec gold;
  gold.name = "gold";
  gold.weight = 4.0;
  gold.queue_limit = cap * 4;
  serve::TenantSpec batch;
  batch.name = "batch";
  batch.weight = 1.0;
  batch.queue_limit = cap * 4;
  batch.best_effort = true;
  fcfg.tenants = {gold, batch};
  fcfg.degrade.degrade_high =
      opt.degrade_high > 0 ? static_cast<std::size_t>(opt.degrade_high) : cap;
  fcfg.degrade.shed_high =
      opt.shed_high > 0 ? static_cast<std::size_t>(opt.shed_high) : 3 * cap;
  fcfg.degrade.low_water =
      opt.low_water > 0 ? static_cast<std::size_t>(opt.low_water) : cap / 4;
  fcfg.degrade.down_hold = static_cast<int>(opt.down_hold);
  serve::ServeFrontEnd frontend(engine, std::move(fcfg));

  net::ServerConfig scfg;
  scfg.port = static_cast<std::uint16_t>(opt.port);
  scfg.read_timeout_ms = opt.read_timeout_ms;
  scfg.idle_timeout_ms = opt.idle_timeout_ms;
  scfg.default_tenant = "gold";
  net::NetServer server(frontend, scfg);
  util::Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "odq_serve: --net-server: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  if (!opt.port_file.empty()) {
    st = util::write_file_atomic(opt.port_file,
                                 std::to_string(server.port()) + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "odq_serve: --port-file: %s\n",
                   st.to_string().c_str());
      return 1;
    }
  }
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "odq_serve: net server on 127.0.0.1:%u (%s/%s, %d "
                 "workers)\n",
                 server.port(), opt.model.c_str(), opt.scheme.c_str(),
                 opt.workers);
  }

  server.wait_for_shutdown_request();
  // Drain order matters: connections first (their writers need live engine
  // workers to fulfill in-flight futures), then the tenant queues, then
  // the engine itself.
  server.shutdown();
  frontend.shutdown();
  engine.shutdown();

  if (!opt.quiet) {
    const net::ServerStats ns = server.stats();
    const serve::EngineStats es = engine.stats();
    std::fprintf(stderr,
                 "odq_serve: net server drained: %" PRIu64 " conn(s), %" PRIu64
                 " request(s), %" PRIu64 " health probe(s), %" PRIu64
                 " decode error(s), %" PRIu64 " accept error(s)\n",
                 ns.connections, ns.requests, ns.health_probes,
                 ns.decode_errors, ns.accept_errors);
    std::fprintf(stderr,
                 "  engine: %" PRIu64 " completed, %" PRIu64 " degraded, %"
                 PRIu64 " deadline-expired, %" PRIu64 " rejected\n",
                 es.completed, es.degraded, es.deadline_exceeded, es.rejected);
    for (const auto& [name, ts] : frontend.all_tenant_stats()) {
      std::fprintf(stderr,
                   "  tenant %s: accepted %" PRIu64 " rejected %" PRIu64
                   " shed %" PRIu64 " deadline-shed %" PRIu64 " degraded %"
                   PRIu64 "\n",
                   name.c_str(), ts.accepted, ts.rejected, ts.shed,
                   ts.deadline_shed, ts.degraded);
    }
  }
  return 0;
}

// Per-process load accounting for --net-client (and the aggregation the
// bench driver does over client result files).
struct NetLoadResult {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;  // kResourceExhausted (tenant queue limit)
  std::int64_t shed = 0;      // kUnavailable (overload / shutdown)
  std::int64_t deadline = 0;  // kDeadlineExceeded
  std::int64_t other = 0;     // anything else (corruption, io, ...)
  std::int64_t degraded = 0;  // ok responses served on the degraded path
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t give_ups = 0;
  std::vector<double> ok_latency_ms;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  bool bit_identical = true;

  void merge(const NetLoadResult& o) {
    sent += o.sent;
    ok += o.ok;
    rejected += o.rejected;
    shed += o.shed;
    deadline += o.deadline;
    other += o.other;
    degraded += o.degraded;
    retries += o.retries;
    reconnects += o.reconnects;
    give_ups += o.give_ups;
    ok_latency_ms.insert(ok_latency_ms.end(), o.ok_latency_ms.begin(),
                         o.ok_latency_ms.end());
    p50_ms = std::max(p50_ms, o.p50_ms);
    p95_ms = std::max(p95_ms, o.p95_ms);
    p99_ms = std::max(p99_ms, o.p99_ms);
    bit_identical = bit_identical && o.bit_identical;
    conservation_ok = conservation_ok && o.conservation_ok;
  }

  bool conservation_ok = true;  // sent == ok + every error class
  void finish() {
    p50_ms = util::percentile(ok_latency_ms, 0.50);
    p95_ms = util::percentile(ok_latency_ms, 0.95);
    p99_ms = util::percentile(ok_latency_ms, 0.99);
    conservation_ok =
        sent == ok + rejected + shed + deadline + other;
  }
};

// --net-client: drive `--clients` threads of synchronous requests against
// --port, classify every outcome, optionally verify ok responses
// bit-for-bit against a local oracle replica (the cross-process version of
// --verify: same deterministic inputs, same checkpoint, same executor).
int run_net_client(const Options& opt) {
  if (opt.port <= 0) {
    std::fprintf(stderr, "odq_serve: --net-client needs --port\n");
    return 2;
  }
  const tensor::Shape input_chw = nn::model_input_shape(opt.model);

  // Verify oracles, built lazily under a mutex (requests are wire-bound;
  // oracle evaluation is the rare path). Degraded responses check against
  // the degraded scheme's executor — the server tells us which path served
  // each request.
  std::mutex oracle_mu;
  std::unique_ptr<serve::ModelSession> oracle_full;
  std::unique_ptr<serve::ModelSession> oracle_degraded;

  const std::int64_t n = opt.requests;
  std::vector<NetLoadResult> per_thread(
      static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  const std::int64_t per =
      (n + opt.clients - 1) / static_cast<std::int64_t>(opt.clients);
  for (int t = 0; t < opt.clients; ++t) {
    const std::int64_t lo = t * per;
    const std::int64_t hi = std::min<std::int64_t>(n, lo + per);
    if (lo >= hi) break;
    threads.emplace_back([&, lo, hi, t] {
      NetLoadResult& agg = per_thread[static_cast<std::size_t>(t)];
      net::ClientConfig ccfg;
      ccfg.port = static_cast<std::uint16_t>(opt.port);
      ccfg.seed = opt.seed + 0x9E3779B9ULL *
                                 static_cast<std::uint64_t>(
                                     opt.req_base + t + 1);
      net::NetClient client(ccfg);
      for (std::int64_t r = lo; r < hi; ++r) {
        const std::int64_t id = opt.req_base + r;
        net::WireRequest req;
        req.client_req_id = static_cast<std::uint64_t>(id);
        req.tenant = opt.tenant;
        // +1: wire tag 0 means "engine-assigned"; ids start at 0.
        req.tag = static_cast<std::uint64_t>(id) + 1;
        req.input = make_request_input(opt, static_cast<std::uint64_t>(id),
                                       input_chw);
        auto deadline = std::chrono::steady_clock::time_point::max();
        if (opt.deadline_ms > 0) {
          deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(opt.deadline_ms);
        }
        const auto t0 = std::chrono::steady_clock::now();
        auto res = client.infer(req, deadline);
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ++agg.sent;
        if (!res.ok()) {
          switch (res.status().code()) {
            case util::StatusCode::kResourceExhausted:
              ++agg.rejected;
              break;
            case util::StatusCode::kUnavailable:
              ++agg.shed;
              break;
            case util::StatusCode::kDeadlineExceeded:
              ++agg.deadline;
              break;
            default:
              ++agg.other;
              break;
          }
          continue;
        }
        ++agg.ok;
        agg.ok_latency_ms.push_back(ms);
        const net::WireResponse& wire = res.value();
        if (wire.degraded != 0) ++agg.degraded;
        if (opt.verify) {
          std::lock_guard<std::mutex> lock(oracle_mu);
          std::unique_ptr<serve::ModelSession>& oracle =
              wire.degraded != 0 ? oracle_degraded : oracle_full;
          if (oracle == nullptr) {
            oracle = make_session(
                opt, wire.degraded != 0 ? "static_int8" : opt.scheme);
          }
          tensor::Tensor expected = oracle->run(req.input);
          const std::int64_t mismatch =
              first_mismatch(expected, wire.output);
          if (mismatch != -1) {
            print_mismatch("net-verify", id, mismatch, expected,
                           wire.output);
            agg.bit_identical = false;
          }
        }
      }
      const net::ClientStats& cs = client.stats();
      agg.retries = cs.retries;
      agg.reconnects = cs.reconnects;
      agg.give_ups = cs.deadline_give_ups;
    });
  }
  for (std::thread& th : threads) th.join();

  NetLoadResult total;
  for (const NetLoadResult& r : per_thread) total.merge(r);
  total.finish();

  if (!opt.result_path.empty()) {
    util::JsonWriter w;
    w.begin_object();
    w.kv("sent", total.sent);
    w.kv("ok", total.ok);
    w.kv("rejected", total.rejected);
    w.kv("shed", total.shed);
    w.kv("deadline", total.deadline);
    w.kv("other", total.other);
    w.kv("degraded", total.degraded);
    w.kv("retries", static_cast<std::int64_t>(total.retries));
    w.kv("reconnects", static_cast<std::int64_t>(total.reconnects));
    w.kv("give_ups", static_cast<std::int64_t>(total.give_ups));
    w.kv("p50_ms", total.p50_ms);
    w.kv("p95_ms", total.p95_ms);
    w.kv("p99_ms", total.p99_ms);
    w.kv("bit_identical", total.bit_identical ? 1 : 0);
    w.kv("conservation_ok", total.conservation_ok ? 1 : 0);
    w.end_object();
    const util::Status st =
        util::write_file_atomic(opt.result_path, w.take() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "odq_serve: --result: %s\n",
                   st.to_string().c_str());
      return 1;
    }
  }
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "odq_serve: net client [%s]: %lld sent, %lld ok, %lld "
                 "rejected, %lld shed, %lld deadline, %lld other, %lld "
                 "degraded, %" PRIu64 " retries  p99 %.2f ms\n",
                 opt.tenant.c_str(), static_cast<long long>(total.sent),
                 static_cast<long long>(total.ok),
                 static_cast<long long>(total.rejected),
                 static_cast<long long>(total.shed),
                 static_cast<long long>(total.deadline),
                 static_cast<long long>(total.other),
                 static_cast<long long>(total.degraded), total.retries,
                 total.p99_ms);
  }
  if (!total.conservation_ok) {
    std::fprintf(stderr, "odq_serve: net client response conservation "
                 "violated (sent != sum of outcomes)\n");
    return 1;
  }
  return total.bit_identical ? 0 : 1;
}

pid_t spawn_self(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  return pid;
}

// waitpid with a wall-clock bound; on timeout the child is SIGKILLed and
// reaped (false = wedge, the thing the chaos job asserts never happens).
bool wait_child(pid_t pid, int* exit_code, std::int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      return true;
    }
    if (r < 0) {
      *exit_code = 128;
      return false;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      *exit_code = 137;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

struct PhaseOutcome {
  std::string label;
  int procs = 0;
  NetLoadResult totals;
  double seconds = 0.0;
  double goodput_rps = 0.0;
  int max_degrade_level = 0;
  std::uint64_t health_probes = 0;
  std::uint64_t health_failures = 0;
  bool health_ok = false;  // at least one probe answered during the phase
  bool clients_ok = true;  // every client process exited 0 in time
};

// --net-bench: spawn one --net-server process and waves of --net-client
// processes at 0.5x / 1x / 2x the configured process count, measure
// goodput and tail latency per phase, then run the kShutdown handshake
// and require a clean, bounded drain. Overload behavior is asserted via
// the exit code (no collapse at 2x, health answered throughout);
// deterministic cells land in the "net" bench-JSON section.
int run_net_bench(const Options& opt) {
  // The driver itself must stay fault-free: children inherit ODQ_FAULT
  // from the environment, but the parent's own health probes and shutdown
  // handshake are control plane, not the system under test.
  util::fault_configure("");

  const std::string prefix =
      (opt.json_path.empty() ? std::string("net_bench") : opt.json_path) +
      "." + std::to_string(static_cast<long long>(::getpid()));
  const std::string port_file = prefix + ".port";
  std::vector<std::string> cleanup{port_file};

  auto arg = [](std::int64_t v) { return std::to_string(v); };
  std::vector<std::string> sargs = {
      "odq_serve",    "--net-server",
      "--model",      opt.model,
      "--scheme",     opt.scheme,
      "--workers",    arg(opt.workers),
      "--queue-cap",  arg(opt.queue_cap),
      "--max-batch",  arg(opt.max_batch),
      "--flush-us",   arg(opt.flush_us),
      "--threshold",  std::to_string(opt.threshold),
      "--width",      arg(opt.width),
      "--seed",       arg(static_cast<std::int64_t>(opt.seed)),
      "--read-timeout-ms", arg(opt.read_timeout_ms),
      "--idle-timeout-ms", arg(opt.idle_timeout_ms),
      "--down-hold",  arg(opt.down_hold),
      "--port-file",  port_file,
      "--quiet"};
  if (!opt.checkpoint.empty()) {
    sargs.push_back("--checkpoint");
    sargs.push_back(opt.checkpoint);
  }
  if (opt.degrade_high > 0) {
    sargs.push_back("--degrade-high");
    sargs.push_back(arg(opt.degrade_high));
  }
  if (opt.shed_high > 0) {
    sargs.push_back("--shed-high");
    sargs.push_back(arg(opt.shed_high));
  }
  if (opt.low_water > 0) {
    sargs.push_back("--low-water");
    sargs.push_back(arg(opt.low_water));
  }
  const pid_t server_pid = spawn_self(sargs);

  auto fail = [&](const char* why) {
    std::fprintf(stderr, "odq_serve: --net-bench: %s\n", why);
    ::kill(server_pid, SIGKILL);
    int code = 0;
    ::waitpid(server_pid, &code, 0);
    for (const std::string& p : cleanup) std::remove(p.c_str());
    return 1;
  };

  // Wait for the server to publish its port (written atomically).
  int port = 0;
  {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (port == 0) {
      std::FILE* f = std::fopen(port_file.c_str(), "r");
      if (f != nullptr) {
        if (std::fscanf(f, "%d", &port) != 1) port = 0;
        std::fclose(f);
      }
      if (port != 0) break;
      int code = 0;
      if (::waitpid(server_pid, &code, WNOHANG) == server_pid) {
        std::fprintf(stderr,
                     "odq_serve: --net-bench: server exited before "
                     "publishing a port\n");
        for (const std::string& p : cleanup) std::remove(p.c_str());
        return 1;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        return fail("timed out waiting for the server port file");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  const int procs_1x = std::max(1, opt.client_procs);
  const struct {
    const char* label;
    int procs;
  } phases[3] = {{"0.5x", std::max(1, procs_1x / 2)},
                 {"1x", procs_1x},
                 {"2x", 2 * procs_1x}};
  std::vector<PhaseOutcome> outcomes;
  std::int64_t req_base = 0;

  for (const auto& phase : phases) {
    PhaseOutcome out;
    out.label = phase.label;
    out.procs = phase.procs;

    // Health poller: the "is the server still answering" probe that runs
    // *during* the load, including at 2x overload.
    std::atomic<bool> poll_stop{false};
    std::thread poller([&] {
      net::ClientConfig hcfg;
      hcfg.port = static_cast<std::uint16_t>(port);
      net::NetClient probe(hcfg);
      while (!poll_stop.load(std::memory_order_relaxed)) {
        auto h = probe.health();
        ++out.health_probes;
        if (h.ok()) {
          out.health_ok = true;
          out.max_degrade_level =
              std::max(out.max_degrade_level,
                       static_cast<int>(h.value().degrade_level));
        } else {
          ++out.health_failures;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });

    util::WallTimer timer;
    std::vector<pid_t> pids;
    std::vector<std::string> results;
    for (int i = 0; i < phase.procs; ++i) {
      const std::string result = prefix + "." + phase.label + ".client" +
                                 std::to_string(i) + ".json";
      results.push_back(result);
      cleanup.push_back(result);
      std::vector<std::string> cargs = {
          "odq_serve",  "--net-client",
          "--model",    opt.model,
          "--scheme",   opt.scheme,
          "--threshold", std::to_string(opt.threshold),
          "--width",    arg(opt.width),
          "--seed",     arg(static_cast<std::int64_t>(opt.seed)),
          "--port",     arg(port),
          "--clients",  arg(opt.clients),
          "--requests", arg(opt.requests),
          // Even processes drive the guaranteed tenant, odd ones the
          // best-effort tenant that absorbs overload.
          "--tenant",   (i % 2 == 0) ? "gold" : "batch",
          "--req-base", arg(req_base),
          "--result",   result,
          "--quiet"};
      if (!opt.checkpoint.empty()) {
        cargs.push_back("--checkpoint");
        cargs.push_back(opt.checkpoint);
      }
      if (opt.deadline_ms > 0) {
        cargs.push_back("--deadline-ms");
        cargs.push_back(arg(opt.deadline_ms));
      }
      if (opt.verify) cargs.push_back("--verify");
      req_base += opt.requests;
      pids.push_back(spawn_self(cargs));
    }
    for (const pid_t pid : pids) {
      int code = 0;
      if (!wait_child(pid, &code, 300000) || code != 0) {
        out.clients_ok = false;
      }
    }
    out.seconds = timer.seconds();
    poll_stop.store(true, std::memory_order_relaxed);
    poller.join();

    for (const std::string& result : results) {
      auto parsed = util::json_try_parse_file(result);
      if (!parsed.ok()) {
        out.clients_ok = false;
        continue;
      }
      const util::JsonValue& v = parsed.value();
      NetLoadResult r;
      r.sent = static_cast<std::int64_t>(v.at("sent").num);
      r.ok = static_cast<std::int64_t>(v.at("ok").num);
      r.rejected = static_cast<std::int64_t>(v.at("rejected").num);
      r.shed = static_cast<std::int64_t>(v.at("shed").num);
      r.deadline = static_cast<std::int64_t>(v.at("deadline").num);
      r.other = static_cast<std::int64_t>(v.at("other").num);
      r.degraded = static_cast<std::int64_t>(v.at("degraded").num);
      r.retries = static_cast<std::uint64_t>(v.at("retries").num);
      r.reconnects = static_cast<std::uint64_t>(v.at("reconnects").num);
      r.give_ups = static_cast<std::uint64_t>(v.at("give_ups").num);
      r.p50_ms = v.at("p50_ms").num;
      r.p95_ms = v.at("p95_ms").num;
      r.p99_ms = v.at("p99_ms").num;
      r.bit_identical = v.at("bit_identical").num != 0;
      r.conservation_ok = v.at("conservation_ok").num != 0;
      out.totals.merge(r);
    }
    out.goodput_rps = out.seconds > 0
                          ? static_cast<double>(out.totals.ok) / out.seconds
                          : 0.0;
    if (!opt.quiet) {
      std::fprintf(stderr,
                   "odq_serve: net-bench phase %-4s %d proc(s): %lld ok / "
                   "%lld sent  goodput %.1f req/s  p99 %.2f ms  shed %lld  "
                   "degraded %lld  level<=%d\n",
                   out.label.c_str(), out.procs,
                   static_cast<long long>(out.totals.ok),
                   static_cast<long long>(out.totals.sent), out.goodput_rps,
                   out.totals.p99_ms, static_cast<long long>(out.totals.shed),
                   static_cast<long long>(out.totals.degraded),
                   out.max_degrade_level);
    }
    outcomes.push_back(std::move(out));
  }

  // Clean-stop handshake + bounded drain.
  bool shutdown_ack_ok = false;
  {
    net::ClientConfig ccfg;
    ccfg.port = static_cast<std::uint16_t>(port);
    net::NetClient stopper(ccfg);
    shutdown_ack_ok = stopper.send_shutdown().ok();
  }
  int server_code = -1;
  const bool clean_drain =
      wait_child(server_pid, &server_code, 30000) && server_code == 0;
  for (const std::string& p : cleanup) std::remove(p.c_str());

  // Overload verdicts.
  bool all_clients_ok = true, all_health_ok = true, conservation_ok = true;
  bool bit_identical = true;
  for (const PhaseOutcome& out : outcomes) {
    all_clients_ok = all_clients_ok && out.clients_ok;
    all_health_ok = all_health_ok && out.health_ok;
    conservation_ok = conservation_ok && out.totals.conservation_ok;
    bit_identical = bit_identical && out.totals.bit_identical;
  }
  const double goodput_1x = outcomes[1].goodput_rps;
  const double goodput_2x = outcomes[2].goodput_rps;
  const bool goodput_ok =
      goodput_1x > 0.0 && goodput_2x >= 0.9 * goodput_1x;
  const bool slo_ok = opt.overload_slo_ms <= 0 ||
                      outcomes[2].totals.p99_ms <=
                          static_cast<double>(opt.overload_slo_ms);

  if (!opt.json_path.empty()) {
    util::JsonWriter w;
    w.begin_object();
    w.kv("bench", "odq_serve_net");
    w.kv("reproduces",
         "multi-process serving over TCP: admission, WFQ, degradation, "
         "clean drain under overload");
    w.kv("scale", opt.model);
    w.key("rows");
    w.begin_array();
    // Deterministic cells: protocol constants and the invariants the exit
    // code enforces (all pinned 1 on a passing run).
    w.begin_object();
    w.kv("section", "net");
    w.kv("model", opt.model);
    w.kv("scheme", opt.scheme);
    w.kv("protocol_version",
         static_cast<std::int64_t>(net::kWireProtocolVersion));
    w.kv("frame_header_bytes",
         static_cast<std::int64_t>(net::kFrameHeaderBytes));
    w.kv("frame_trailer_bytes",
         static_cast<std::int64_t>(net::kFrameTrailerBytes));
    w.kv("phases", static_cast<std::int64_t>(outcomes.size()));
    w.kv("conservation_ok", conservation_ok ? 1 : 0);
    w.kv("health_ok", all_health_ok ? 1 : 0);
    w.kv("shutdown_ack_ok", shutdown_ack_ok ? 1 : 0);
    w.kv("clean_drain", clean_drain ? 1 : 0);
    w.kv("goodput_ok", goodput_ok ? 1 : 0);
    if (opt.verify) w.kv("bit_identical", bit_identical ? 1 : 0);
    w.end_object();
    for (const PhaseOutcome& out : outcomes) {
      w.begin_object();
      w.kv("section", "net_host_wall_clock");
      w.kv("model", opt.model);
      w.kv("scheme", opt.scheme);
      w.kv("phase", out.label);
      w.kv("procs", out.procs);
      w.kv("sent", out.totals.sent);
      w.kv("ok", out.totals.ok);
      w.kv("rejected", out.totals.rejected);
      w.kv("shed", out.totals.shed);
      w.kv("deadline", out.totals.deadline);
      w.kv("other", out.totals.other);
      w.kv("degraded", out.totals.degraded);
      w.kv("retries", static_cast<std::int64_t>(out.totals.retries));
      w.kv("reconnects", static_cast<std::int64_t>(out.totals.reconnects));
      w.kv("p50_ms", out.totals.p50_ms);
      w.kv("p95_ms", out.totals.p95_ms);
      w.kv("p99_ms", out.totals.p99_ms);
      w.kv("goodput_rps", out.goodput_rps);
      w.kv("total_seconds", out.seconds);
      w.kv("max_degrade_level", out.max_degrade_level);
      w.kv("health_probes",
           static_cast<std::int64_t>(out.health_probes));
      w.kv("health_failures",
           static_cast<std::int64_t>(out.health_failures));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    const util::Status st =
        util::write_file_atomic(opt.json_path, w.take() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "odq_serve: --json: %s\n",
                   st.to_string().c_str());
      return 1;
    }
  }

  if (!opt.quiet) {
    std::fprintf(stderr,
                 "odq_serve: net-bench goodput 1x %.1f -> 2x %.1f req/s "
                 "(%s), health %s, shutdown ack %s, drain %s\n",
                 goodput_1x, goodput_2x, goodput_ok ? "no collapse"
                                                    : "COLLAPSED",
                 all_health_ok ? "answered" : "UNANSWERED",
                 shutdown_ack_ok ? "ok" : "MISSING",
                 clean_drain ? "clean" : "WEDGED");
  }

  int rc = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "odq_serve: --net-bench FAILED: %s\n", what);
      rc = 1;
    }
  };
  check(all_clients_ok, "a client process failed or timed out");
  check(conservation_ok, "response conservation violated");
  check(all_health_ok, "health probe went unanswered during a phase");
  check(shutdown_ack_ok, "no shutdown ack from the server");
  check(clean_drain, "server did not drain and exit cleanly");
  check(goodput_ok, "goodput collapsed at 2x overload");
  check(slo_ok, "admitted p99 over --overload-slo-ms at 2x");
  if (opt.verify) check(bit_identical, "cross-process bit-identity failed");
  return rc;
}

}  // namespace

int tool_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "odq_serve: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--model") {
      opt.model = next("--model");
    } else if (a == "--scheme") {
      opt.scheme = next("--scheme");
    } else if (a == "--checkpoint") {
      opt.checkpoint = next("--checkpoint");
    } else if (a == "--save-checkpoint") {
      opt.save_checkpoint = next("--save-checkpoint");
    } else if (a == "--workers") {
      opt.workers = std::atoi(next("--workers"));
    } else if (a == "--clients") {
      opt.clients = std::atoi(next("--clients"));
    } else if (a == "--requests") {
      opt.requests = std::atoll(next("--requests"));
    } else if (a == "--max-batch") {
      opt.max_batch = std::atoll(next("--max-batch"));
    } else if (a == "--flush-us") {
      opt.flush_us = std::atoll(next("--flush-us"));
    } else if (a == "--queue-cap") {
      opt.queue_cap = std::atoll(next("--queue-cap"));
    } else if (a == "--arrival-us") {
      opt.arrival_us = std::atoll(next("--arrival-us"));
    } else if (a == "--telemetry") {
      opt.telemetry_path = next("--telemetry");
    } else if (a == "--telemetry-flush-ms") {
      opt.telemetry_flush_ms = std::atoll(next("--telemetry-flush-ms"));
    } else if (a == "--slo-us") {
      opt.slo_us = std::atoll(next("--slo-us"));
    } else if (a == "--check-telemetry") {
      opt.check_telemetry = true;
    } else if (a == "--shadow-rate") {
      opt.shadow_rate = std::strtoull(next("--shadow-rate"), nullptr, 0);
    } else if (a == "--drift-baseline") {
      opt.drift_baseline = next("--drift-baseline");
    } else if (a == "--drift-window") {
      opt.drift_window = std::atoll(next("--drift-window"));
    } else if (a == "--drift-tv") {
      opt.drift_tv = std::strtod(next("--drift-tv"), nullptr);
    } else if (a == "--flight-dump") {
      opt.flight_dump = next("--flight-dump");
    } else if (a == "--drift-snapshot") {
      opt.drift_snapshot = next("--drift-snapshot");
    } else if (a == "--input-shift") {
      opt.input_shift = std::strtof(next("--input-shift"), nullptr);
    } else if (a == "--fail-on-drift") {
      opt.fail_on_drift = true;
    } else if (a == "--require-drift") {
      opt.require_drift = true;
    } else if (a == "--threshold") {
      opt.threshold = std::strtof(next("--threshold"), nullptr);
    } else if (a == "--width") {
      opt.width = std::atoll(next("--width"));
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next("--seed"), nullptr, 0);
    } else if (a == "--net-server") {
      opt.mode = "net-server";
    } else if (a == "--net-client") {
      opt.mode = "net-client";
    } else if (a == "--net-bench") {
      opt.mode = "net-bench";
    } else if (a == "--port") {
      opt.port = std::atoi(next("--port"));
    } else if (a == "--port-file") {
      opt.port_file = next("--port-file");
    } else if (a == "--result") {
      opt.result_path = next("--result");
    } else if (a == "--tenant") {
      opt.tenant = next("--tenant");
    } else if (a == "--deadline-ms") {
      opt.deadline_ms = std::atoll(next("--deadline-ms"));
    } else if (a == "--read-timeout-ms") {
      opt.read_timeout_ms = std::atoll(next("--read-timeout-ms"));
    } else if (a == "--idle-timeout-ms") {
      opt.idle_timeout_ms = std::atoll(next("--idle-timeout-ms"));
    } else if (a == "--degrade-high") {
      opt.degrade_high = std::atoll(next("--degrade-high"));
    } else if (a == "--shed-high") {
      opt.shed_high = std::atoll(next("--shed-high"));
    } else if (a == "--low-water") {
      opt.low_water = std::atoll(next("--low-water"));
    } else if (a == "--down-hold") {
      opt.down_hold = std::atoll(next("--down-hold"));
    } else if (a == "--client-procs") {
      opt.client_procs = std::atoi(next("--client-procs"));
    } else if (a == "--req-base") {
      opt.req_base = std::atoll(next("--req-base"));
    } else if (a == "--overload-slo-ms") {
      opt.overload_slo_ms = std::atoll(next("--overload-slo-ms"));
    } else if (a == "--verify") {
      opt.verify = true;
    } else if (a == "--require-batching") {
      opt.require_batching = true;
    } else if (a == "--json") {
      opt.json_path = next("--json");
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      return usage();
    }
  }
  if (opt.workers < 1 || opt.clients < 1 || opt.requests < 1 ||
      opt.max_batch < 1 || opt.queue_cap < 1 || opt.width < 1) {
    return usage();
  }

  if (opt.mode == "net-server") return run_net_server(opt);
  if (opt.mode == "net-client") return run_net_client(opt);
  if (opt.mode == "net-bench") return run_net_bench(opt);

  if (!opt.save_checkpoint.empty()) {
    tools::make_replica(opt.model, opt.width)
        .try_save(opt.save_checkpoint)
        .throw_if_error();
    if (!opt.quiet) {
      std::fprintf(stderr, "odq_serve: wrote v3 checkpoint %s\n",
                   opt.save_checkpoint.c_str());
    }
    return 0;
  }

  const tensor::Shape input_chw = nn::model_input_shape(opt.model);

  // Telemetry: switch metrics on and run the background exporter over the
  // whole load phase, so odq_top can tail the snapshot while the run is
  // live.
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!opt.telemetry_path.empty()) {
    obs::set_metrics_enabled(true);
    obs::MetricsExporterConfig tcfg;
    tcfg.json_path = opt.telemetry_path;
    tcfg.prom_path = prom_path_for(opt.telemetry_path);
    tcfg.flush_interval_ms =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            1, opt.telemetry_flush_ms));
    exporter = std::make_unique<obs::MetricsExporter>(std::move(tcfg));
    exporter->start();
  }

  // Shadow quality lane: one extra replica re-evaluating a deterministic
  // 1-in-N sample of the live requests under fidelity instrumentation.
  std::unique_ptr<serve::ShadowLane> shadow;
  if (opt.shadow_rate > 0) {
    serve::ShadowConfig scfg;
    scfg.rate = opt.shadow_rate;
    scfg.seed = opt.seed;
    scfg.quality.drift_window = opt.drift_window;
    scfg.quality.hist_drift_threshold = opt.drift_tv;
    shadow = std::make_unique<serve::ShadowLane>(scfg,
                                                 make_session(opt, opt.scheme));
    obs::FlightContext fctx;
    fctx.model = opt.model;
    fctx.scheme = opt.scheme;
    fctx.checkpoint = opt.checkpoint;
    fctx.width = opt.width;
    fctx.threshold = opt.threshold;
    shadow->monitor().flight().set_context(std::move(fctx));
    if (!opt.drift_baseline.empty()) {
      util::StatusOr<obs::QualityBaseline> base =
          obs::QualityBaseline::load(opt.drift_baseline);
      if (!base.ok()) {
        std::fprintf(stderr, "odq_serve: --drift-baseline: %s\n",
                     base.status().message().c_str());
        return 1;
      }
      shadow->monitor().set_baseline(std::move(base.value()));
    }
  }

  serve::EngineConfig ecfg;
  ecfg.num_workers = opt.workers;
  ecfg.queue_capacity = static_cast<std::size_t>(opt.queue_cap);
  ecfg.max_batch = static_cast<std::size_t>(opt.max_batch);
  ecfg.flush_timeout_us = opt.flush_us;
  ecfg.slo_us = opt.slo_us;
  ecfg.shadow = shadow.get();
  // One session serves every worker. Its executor's stats cover the run.
  std::shared_ptr<serve::ModelSession> session = make_session(opt, opt.scheme);
  serve::ServeEngine engine(ecfg, [&](int) { return session; });

  const std::int64_t n = opt.requests;
  std::vector<std::future<serve::InferResponse>> futures(
      static_cast<std::size_t>(n));
  std::vector<serve::InferResponse> responses(static_cast<std::size_t>(n));
  std::vector<util::Status> submit_errors(static_cast<std::size_t>(n));

  // Load phase: `clients` threads submit disjoint contiguous request
  // ranges as fast as --arrival-us allows; backpressure (bounded queue)
  // throttles them against the workers.
  util::WallTimer load_timer;
  {
    std::vector<std::thread> clients;
    const std::int64_t per =
        (n + opt.clients - 1) / static_cast<std::int64_t>(opt.clients);
    for (int c = 0; c < opt.clients; ++c) {
      const std::int64_t lo = c * per;
      const std::int64_t hi = std::min<std::int64_t>(n, lo + per);
      if (lo >= hi) break;
      clients.emplace_back([&, lo, hi, c] {
        util::Rng arrival_rng(opt.seed + 1000003ULL * (c + 1));
        for (std::int64_t r = lo; r < hi; ++r) {
          if (opt.arrival_us > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(arrival_rng.uniform_int(
                    0, static_cast<int>(2 * opt.arrival_us))));
          }
          auto fut = engine.submit(make_request_input(opt, r, input_chw),
                                   static_cast<std::uint64_t>(r));
          if (fut.ok()) {
            futures[static_cast<std::size_t>(r)] = std::move(*fut);
          } else {
            submit_errors[static_cast<std::size_t>(r)] = fut.status();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::int64_t r = 0; r < n; ++r) {
      auto& fut = futures[static_cast<std::size_t>(r)];
      if (fut.valid()) {
        responses[static_cast<std::size_t>(r)] = fut.get();
      } else {
        responses[static_cast<std::size_t>(r)].status =
            submit_errors[static_cast<std::size_t>(r)];
      }
    }
  }
  const double load_seconds = load_timer.seconds();
  engine.shutdown();
  // Shadow drain before the telemetry drain flush, so every sampled
  // request's quality series/counters make it into the final snapshot.
  if (shadow != nullptr) shadow->stop();
  // Drain flush: everything recorded up to shutdown is on disk after this.
  if (exporter != nullptr) exporter->stop();
  const serve::EngineStats stats = engine.stats();

  std::int64_t errors = 0;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(n));
  for (const serve::InferResponse& res : responses) {
    if (!res.status.ok()) {
      ++errors;
      continue;
    }
    latencies_ms.push_back(res.latency_us() / 1000.0);
  }
  const double p50 = util::percentile(latencies_ms, 0.50);
  const double p95 = util::percentile(latencies_ms, 0.95);
  const double p99 = util::percentile(latencies_ms, 0.99);
  const double throughput =
      load_seconds > 0 ? static_cast<double>(n) / load_seconds : 0.0;

  // Sequential oracle: same inputs, fresh replica, one request at a time.
  // Bit-identity is the serving engine's core invariant — how requests
  // were coalesced must never show up in the outputs.
  bool bit_identical = true;
  std::int64_t verified = 0;
  if (opt.verify) {
    std::unique_ptr<serve::ModelSession> oracle = make_session(opt, opt.scheme);
    for (std::int64_t r = 0; r < n; ++r) {
      const serve::InferResponse& res = responses[static_cast<std::size_t>(r)];
      if (!res.status.ok()) continue;
      tensor::Tensor expected =
          oracle->run(make_request_input(opt, r, input_chw));
      const std::int64_t mismatch = first_mismatch(expected, res.output);
      if (mismatch != -1) {
        // Always printed (even under --quiet): the (request, element)
        // pair is the whole point of a verify failure.
        print_mismatch("verify", r, mismatch, expected, res.output);
        if (bit_identical && !opt.quiet) {
          std::fprintf(stderr,
                       "odq_serve:   (batch_size %zu, worker %d)\n",
                       res.batch_size, res.worker_id);
        }
        bit_identical = false;
      }
      ++verified;
    }
  }

  // Telemetry self-check: the windowed histogram's quantiles must land in
  // (or next to) the bucket holding the load generator's own measured
  // order statistic — the histogram is the live view of the exact same
  // latencies, so disagreement beyond bucket resolution is a bug.
  int telemetry_quantile_check = -1;  // -1 not run, 0 failed, 1 passed
  int telemetry_snapshot_valid = -1;
  std::uint64_t telemetry_observed = 0;
  obs::WindowStats telemetry_total;
  if (!opt.telemetry_path.empty()) {
    const obs::LogHistogram hist = obs::series("serve.latency_us").total();
    telemetry_observed = hist.count();
    telemetry_total.count = hist.count();
    telemetry_total.mean = hist.mean();
    telemetry_total.p50 = hist.quantile(0.50);
    telemetry_total.p95 = hist.quantile(0.95);
    telemetry_total.p99 = hist.quantile(0.99);

    const util::StatusOr<util::JsonValue> parsed =
        util::json_try_parse_file(opt.telemetry_path);
    telemetry_snapshot_valid = parsed.ok() ? 1 : 0;

    if (opt.check_telemetry) {
      std::vector<std::uint64_t> oracle_us;
      oracle_us.reserve(responses.size());
      for (const serve::InferResponse& res : responses) {
        if (res.done_us > 0.0) {
          oracle_us.push_back(res.latency_us() > 0.0
                                  ? static_cast<std::uint64_t>(
                                        res.latency_us())
                                  : 0);
        }
      }
      std::sort(oracle_us.begin(), oracle_us.end());
      telemetry_quantile_check =
          (!oracle_us.empty() && hist.count() == oracle_us.size()) ? 1 : 0;
      for (const double q : {0.50, 0.95, 0.99}) {
        if (oracle_us.empty()) break;
        const std::size_t rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(oracle_us.size()))));
        const std::uint64_t oracle_v = oracle_us[rank - 1];
        const auto ob =
            static_cast<std::int64_t>(obs::log_bucket_index(oracle_v));
        const auto hb =
            static_cast<std::int64_t>(obs::log_bucket_index(hist.quantile(q)));
        if (ob - hb > 1 || hb - ob > 1) {
          telemetry_quantile_check = 0;
          if (!opt.quiet) {
            std::fprintf(stderr,
                         "odq_serve: telemetry p%g MISMATCH: oracle %llu us "
                         "(bucket %lld) vs histogram %llu us (bucket %lld)\n",
                         100 * q, static_cast<unsigned long long>(oracle_v),
                         static_cast<long long>(ob),
                         static_cast<unsigned long long>(hist.quantile(q)),
                         static_cast<long long>(hb));
          }
        }
      }
    }
  }

  // Shadow quality accounting. After stop() the lane has evaluated every
  // sampled request it accepted, so (on an error-free run) the sample count
  // must equal the count the deterministic predicate says — an exact
  // cross-check that the sampler keyed on request indices, not engine ids.
  std::int64_t shadow_expected = 0;
  bool shadow_count_ok = true;
  std::vector<obs::QualityMonitor::LayerSummary> quality_layers;
  std::int64_t drift_alerts = 0;
  if (shadow != nullptr) {
    for (std::int64_t r = 0; r < n; ++r) {
      if (shadow->sampled(static_cast<std::uint64_t>(r))) ++shadow_expected;
    }
    if (errors == 0 && stats.rejected == 0) {
      shadow_count_ok =
          shadow->samples() == static_cast<std::uint64_t>(shadow_expected) &&
          shadow->evaluated() + shadow->dropped() == shadow->samples();
    }
    quality_layers = shadow->monitor().summary();
    drift_alerts = shadow->monitor().drift_alerts();

    if (!opt.flight_dump.empty()) {
      const util::Status st = shadow->monitor().flight().dump(opt.flight_dump);
      if (!st.ok()) {
        std::fprintf(stderr, "odq_serve: --flight-dump: %s\n",
                     st.message().c_str());
        return 1;
      }
    }
    if (!opt.drift_snapshot.empty()) {
      util::JsonWriter w;
      shadow->monitor().drift_snapshot_json(w);
      const util::Status st =
          util::write_file(opt.drift_snapshot, w.take() + "\n");
      if (!st.ok()) {
        std::fprintf(stderr, "odq_serve: --drift-snapshot: %s\n",
                     st.message().c_str());
        return 1;
      }
    }
  }

  const double multi_frac =
      stats.batches > 0 ? static_cast<double>(stats.multi_request_batches) /
                              static_cast<double>(stats.batches)
                        : 0.0;

  if (!opt.quiet) {
    std::fprintf(stderr,
                 "odq_serve: %s/%s  %d worker(s), %d client(s), %lld "
                 "requests (%lld errors, %" PRIu64 " rejected)\n",
                 opt.model.c_str(), opt.scheme.c_str(), opt.workers,
                 opt.clients, static_cast<long long>(n),
                 static_cast<long long>(errors), stats.rejected);
    std::fprintf(stderr,
                 "  latency  p50 %.2f ms   p95 %.2f ms   p99 %.2f ms\n", p50,
                 p95, p99);
    std::fprintf(stderr, "  throughput %.1f req/s over %.2f s\n", throughput,
                 load_seconds);
    std::fprintf(stderr, "  batches %" PRIu64 " (%.0f%% multi-request, "
                 "largest %" PRIu64 ")\n",
                 stats.batches, 100.0 * multi_frac, stats.max_batch_observed);
    std::fprintf(stderr, "  batch-size histogram:");
    for (std::size_t k = 1; k < stats.batch_size_hist.size(); ++k) {
      if (stats.batch_size_hist[k] > 0) {
        std::fprintf(stderr, "  %zu:%" PRIu64, k, stats.batch_size_hist[k]);
      }
    }
    std::fputc('\n', stderr);
    if (const auto* odq_exec =
            dynamic_cast<core::OdqConvExecutor*>(session->executor().get())) {
      const core::OdqLayerStats total = odq_exec->total_stats();
      std::fprintf(stderr, "  odq sensitive fraction %.1f%% over %lld outputs\n",
                   100.0 * total.sensitive_fraction(),
                   static_cast<long long>(total.outputs));
    }
    if (opt.verify) {
      std::fprintf(stderr, "  verify: %lld outputs %s\n",
                   static_cast<long long>(verified),
                   bit_identical ? "bit-identical to sequential execution"
                                 : "DIVERGED from sequential execution");
    }
    if (shadow != nullptr) {
      std::fprintf(stderr,
                   "  shadow: 1-in-%" PRIu64 " sampling, %" PRIu64
                   " sampled (expected %lld), %" PRIu64 " evaluated, %" PRIu64
                   " dropped, %" PRIu64 " errors%s\n",
                   opt.shadow_rate, shadow->samples(),
                   static_cast<long long>(shadow_expected),
                   shadow->evaluated(), shadow->dropped(), shadow->errors(),
                   shadow_count_ok ? "" : "  COUNT MISMATCH");
      std::fprintf(stderr, "  drift: %s baseline, %lld alert(s), %" PRIu64
                   " flight record(s)\n",
                   shadow->monitor().has_baseline() ? "with" : "no",
                   static_cast<long long>(drift_alerts),
                   shadow->monitor().flight().total_recorded());
      for (const auto& l : quality_layers) {
        std::fprintf(stderr,
                     "    layer %d: %lld req, sensitive %.2f%% (baseline "
                     "%.2f%%), sqnr %.1f dB, drift tv %.4f%s\n",
                     l.layer, static_cast<long long>(l.requests),
                     100.0 * l.sensitive_fraction, 100.0 * l.baseline_fraction,
                     l.sqnr_db, l.drift_distance,
                     l.drifted ? "  DRIFTED" : "");
      }
    }
    if (!opt.telemetry_path.empty()) {
      std::fprintf(stderr,
                   "  telemetry: %" PRIu64 " samples  p50 %.2f ms  p95 %.2f "
                   "ms  p99 %.2f ms (windowed histogram), snapshot %s\n",
                   telemetry_observed, telemetry_total.p50 / 1000.0,
                   telemetry_total.p95 / 1000.0, telemetry_total.p99 / 1000.0,
                   telemetry_snapshot_valid == 1 ? opt.telemetry_path.c_str()
                                                 : "INVALID");
      std::fprintf(stderr,
                   "  queue depth peak %" PRIu64 "  slo violations %" PRIu64
                   " (slo %lld us)  trace drops %" PRIu64 "\n",
                   obs::series("serve.queue_depth").total().max(),
                   stats.slo_violations, static_cast<long long>(opt.slo_us),
                   obs::trace_dropped_events());
      if (opt.check_telemetry) {
        std::fprintf(stderr, "  telemetry quantile check: %s\n",
                     telemetry_quantile_check == 1 ? "within one bucket of "
                                                    "measured latencies"
                                                  : "FAILED");
      }
    }
  }

  if (!opt.json_path.empty()) {
    util::JsonWriter w;
    w.begin_object();
    w.kv("bench", "odq_serve");
    w.kv("reproduces",
         "serving load run: dynamic batching with single-request "
         "bit-identity");
    w.kv("scale", opt.model);
    w.key("rows");
    w.begin_array();
    w.begin_object();
    w.kv("section", "serve");
    w.kv("model", opt.model);
    w.kv("scheme", opt.scheme);
    w.kv("workers", opt.workers);
    w.kv("max_batch", opt.max_batch);
    w.kv("requests", n);
    w.kv("errors", errors);
    w.kv("rejected", static_cast<std::int64_t>(stats.rejected));
    if (opt.verify) w.kv("bit_identical", bit_identical ? 1 : 0);
    w.end_object();
    w.begin_object();
    w.kv("section", "serve_host_wall_clock");
    w.kv("model", opt.model);
    w.kv("scheme", opt.scheme);
    w.kv("p50_ms", p50);
    w.kv("p95_ms", p95);
    w.kv("p99_ms", p99);
    w.kv("throughput_rps", throughput);
    w.kv("total_seconds", load_seconds);
    w.kv("batches", static_cast<std::int64_t>(stats.batches));
    w.kv("multi_request_batch_frac", multi_frac);
    w.kv("max_batch_observed",
         static_cast<std::int64_t>(stats.max_batch_observed));
    w.end_object();
    if (!opt.telemetry_path.empty()) {
      // Deterministic exposition-schema cells, gated against
      // tools/testdata/serve_baseline.json: bucket-layout or schema
      // changes must fail the bench gate until the baseline is refreshed.
      w.begin_object();
      w.kv("section", "telemetry");
      w.kv("model", opt.model);
      w.kv("scheme", opt.scheme);
      w.kv("schema_version", obs::kMetricsSchemaVersion);
      w.kv("windows", static_cast<int>(obs::kMetricWindowsS.size()));
      w.kv("sub_bucket_bits", obs::kLogHistSubBits);
      w.kv("max_value_pow2", obs::kLogHistMaxPow);
      w.kv("observed", static_cast<std::int64_t>(telemetry_observed));
      w.kv("snapshot_valid", telemetry_snapshot_valid);
      w.kv("quantile_check", telemetry_quantile_check);
      w.end_object();
    }
    if (shadow != nullptr) {
      // Deterministic quality cells: sample counts come from the seeded
      // predicate, per-layer fractions and TV distances from
      // order-independent integer counts — identical across reruns of the
      // same command (sqnr_db is double-merge order-dependent only at ulp
      // scale, far inside the gate's 10% tolerance).
      w.begin_object();
      w.kv("section", "quality");
      w.kv("model", opt.model);
      w.kv("scheme", opt.scheme);
      w.kv("shadow_rate", static_cast<std::int64_t>(opt.shadow_rate));
      w.kv("shadow_samples", static_cast<std::int64_t>(shadow->samples()));
      w.kv("shadow_evaluated",
           static_cast<std::int64_t>(shadow->evaluated()));
      w.kv("shadow_dropped", static_cast<std::int64_t>(shadow->dropped()));
      w.kv("sample_count_ok", shadow_count_ok ? 1 : 0);
      w.kv("has_baseline", shadow->monitor().has_baseline() ? 1 : 0);
      w.kv("drift_alerts", drift_alerts);
      w.end_object();
      for (const auto& l : quality_layers) {
        w.begin_object();
        w.kv("section", "quality");
        w.kv("model", opt.model);
        w.kv("scheme", opt.scheme);
        w.kv("layer", "conv" + std::to_string(l.layer));
        w.kv("requests", l.requests);
        w.kv("sensitive_fraction", l.sensitive_fraction);
        w.kv("baseline_fraction", l.baseline_fraction);
        w.kv("sqnr_db", l.sqnr_db);
        w.kv("drift_distance", l.drift_distance);
        w.kv("alerts", l.alerts);
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();

    const util::Status st = util::write_file(opt.json_path, w.take() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "odq_serve: --json: %s\n", st.message().c_str());
      return 1;
    }
  }

  if (errors > 0) return 1;
  if (opt.verify && !bit_identical) return 1;
  if (opt.check_telemetry &&
      (telemetry_quantile_check != 1 || telemetry_snapshot_valid != 1)) {
    std::fprintf(stderr, "odq_serve: --check-telemetry failed (quantiles %d, "
                 "snapshot %d)\n",
                 telemetry_quantile_check, telemetry_snapshot_valid);
    return 1;
  }
  if (opt.require_batching && stats.multi_request_batches == 0) {
    std::fprintf(stderr,
                 "odq_serve: --require-batching: every batch carried a "
                 "single request\n");
    return 1;
  }
  if (shadow != nullptr && !shadow_count_ok) {
    std::fprintf(stderr,
                 "odq_serve: shadow sample accounting mismatch: %" PRIu64
                 " sampled vs %lld expected, %" PRIu64 " evaluated + %" PRIu64
                 " dropped\n",
                 shadow->samples(), static_cast<long long>(shadow_expected),
                 shadow->evaluated(), shadow->dropped());
    return 1;
  }
  if (opt.fail_on_drift && drift_alerts > 0) {
    std::fprintf(stderr, "odq_serve: --fail-on-drift: %lld drift alert(s)\n",
                 static_cast<long long>(drift_alerts));
    return 1;
  }
  if (opt.require_drift && drift_alerts == 0) {
    std::fprintf(stderr,
                 "odq_serve: --require-drift: no drift alert fired on the "
                 "shifted stream\n");
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return odq::tools::run_guarded("odq_serve",
                                 [&] { return tool_main(argc, argv); });
}
