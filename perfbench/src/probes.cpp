// perfbench: short per-layer probes and the report-only accelerator counts.
#include "accel/config.hpp"
#include "accel/cyclesim/layer_engine.hpp"
#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "bench.hpp"
#include "serve/session.hpp"

namespace perfbench {

void report_scheme(const SchemeRow& row, const Ledger& l, Report& r) {
  const double n = static_cast<double>(l.forwards);
  r.set(row.forward_metric, l.forward_ms / n, "ms");
  if (row.conv_metric) r.set(row.conv_metric, l.conv_ms / n, "ms");
}

void scheme_probe(odq::nn::Model& model, std::int64_t batch,
                  const odq::core::OdqConfig& odq_cfg, std::uint64_t seed,
                  int forwards_per_scheme, Report& r) {
  const Tensor x = seeded_batch(seed, 6, 0, batch);
  for (const SchemeRow& row : kSchemeRows) {
    auto exec = odq::serve::make_conv_executor(row.scheme, odq_cfg);
    Tracer tracer(model, exec,
                  dynamic_cast<odq::core::OdqConvExecutor*>(exec.get()));
    (void)tracer.forward(x, false);  // warm-up
    tracer.ledger = Ledger{};
    for (int i = 0; i < forwards_per_scheme; ++i) (void)tracer.forward(x, false);
    report_scheme(row, tracer.ledger, r);
    tracer.detach();
  }
}

void accel_probe(odq::nn::Model& model, const odq::core::OdqConfig& cfg,
                 Report& r) {
  // One fixed batch, independent of --seed, so the counts only move when
  // the model, the threshold or the simulators do.
  const Tensor sample = seeded_batch(/*seed=*/0, 7, 0, 8);
  const std::vector<odq::accel::ConvWorkload> wls =
      odq::accel::extract_workloads(model, sample, cfg, odq::drq::DrqConfig{});
  const auto t0 = Clock::now();
  double odq_cycles = 0.0;
  for (const odq::accel::AcceleratorConfig& acc : odq::accel::table2_configs()) {
    const double cycles = odq::accel::simulate(acc, wls).total_cycles;
    switch (acc.kind) {
      case odq::accel::AcceleratorKind::kInt16Static:
        r.set("accel.cycles.int16", cycles, "cycles");
        break;
      case odq::accel::AcceleratorKind::kInt8Static:
        r.set("accel.cycles.int8", cycles, "cycles");
        break;
      case odq::accel::AcceleratorKind::kDrq:
        r.set("accel.cycles.drq", cycles, "cycles");
        break;
      case odq::accel::AcceleratorKind::kOdq:
        r.set("accel.cycles.odq", cycles, "cycles");
        odq_cycles = cycles;
        break;
    }
  }
  const auto micro = odq::accel::cyclesim::simulate_network(wls, {});
  r.set("accel.sim_host_ms", ms_since(t0), "ms");
  r.set("accel.cyclesim_cycles", static_cast<double>(micro.cycles), "cycles");
  r.set("accel.cyclesim_over_analytic",
        static_cast<double>(micro.cycles) / odq_cycles, "ratio");
}

void complete_ledger(const Args& a, Report& r, const Covered& done,
                     odq::nn::Model& model, std::int64_t batch,
                     const odq::core::OdqConfig& odq_cfg) {
  if (!done.schemes) scheme_probe(model, batch, odq_cfg, a.seed, 5, r);
  if (!done.serve) serve_probe(a, 1.0, r);
  if (!done.train) train_probe(a, 3, r);
}

}  // namespace perfbench
