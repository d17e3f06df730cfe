#include "accel/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace odq::accel {

namespace {

// Energy of a MAC with a-bit and b-bit operands (quadratic multiplier model;
// mac_base * 8 * 8 reproduces the INT8 reference point).
double mac_pj(const EnergyParams& e, int a_bits, int b_bits) {
  return e.mac_base_pj * static_cast<double>(a_bits) *
         static_cast<double>(b_bits);
}

// Buffer traffic per MAC: two operands at the given widths, discounted for
// weight/input reuse (weights stay in PE registers; line buffers broadcast
// inputs across arrays, so each operand byte is fetched from SRAM far less
// than once per MAC). The discount is identical across designs, so
// normalized comparisons depend only on operand widths.
constexpr double kReuseDiscount = 0.05;

double buffer_pj_for_macs(const EnergyParams& e, double macs, int a_bits,
                          int b_bits) {
  const double bytes = macs * (a_bits + b_bits) / 8.0 * kReuseDiscount;
  return bytes * e.sram_pj_per_byte;
}

// Off-chip traffic for one layer. Weights always stream from DRAM; input
// and output feature maps round-trip through DRAM only when they do not fit
// in the global buffer (half the 0.17 MB is reserved for activations, the
// rest for weights and masks) — the latency-hiding role the paper assigns
// to the global weight/input buffer.
double dram_bytes_for(const AcceleratorConfig& cfg, const ConvWorkload& wl,
                      double in_bits, double w_bits, double out_bits) {
  const double w_bytes = static_cast<double>(wl.weight_elems) * w_bits / 8.0;
  const double fm_bytes = (static_cast<double>(wl.input_elems) * in_bits +
                           static_cast<double>(wl.out_elems) * out_bits) /
                          8.0;
  const double fm_capacity = cfg.onchip_mem_mb * 1e6 * 0.5;
  return w_bytes + (fm_bytes <= fm_capacity ? 0.0 : fm_bytes);
}

LayerSimResult simulate_uniform(const AcceleratorConfig& cfg,
                                const ConvWorkload& wl,
                                const SimOptions& opts,
                                double cycles_per_mac, int a_bits, int b_bits,
                                double dram_bytes) {
  LayerSimResult r;
  r.name = wl.name;
  const double macs = static_cast<double>(wl.total_macs);
  r.compute_cycles = macs * cycles_per_mac / cfg.num_pes;
  r.dram_bytes = dram_bytes;
  r.dram_cycles = dram_bytes / cfg.dram_bytes_per_cycle;
  r.cycles = std::max(r.compute_cycles, r.dram_cycles);
  // When DRAM-bound, PEs wait for data.
  r.idle_pe_fraction =
      r.cycles > 0.0 ? 1.0 - r.compute_cycles / r.cycles : 0.0;

  r.energy.core_pj = macs * mac_pj(opts.energy, a_bits, b_bits) +
                     r.cycles * cfg.num_pes *
                         opts.energy.leakage_pj_per_pe_cycle;
  r.energy.buffer_pj = buffer_pj_for_macs(opts.energy, macs, a_bits, b_bits) +
                       r.cycles * opts.energy.buffer_static_pj_per_cycle;
  r.energy.dram_pj = dram_bytes * opts.energy.dram_pj_per_byte +
                     r.cycles * opts.energy.dram_static_pj_per_cycle;
  return r;
}

LayerSimResult simulate_drq_layer(const AcceleratorConfig& cfg,
                                  const ConvWorkload& wl,
                                  const SimOptions& opts) {
  // DRQ INT8/INT4 mix: sensitive input regions are 8x8 MACs (4 cycles on
  // INT4 fusion units), insensitive are 4x8 (2 cycles).
  const double s = wl.drq_sensitive_input_fraction;
  const double macs = static_cast<double>(wl.total_macs);
  const double cycles_per_mac = s * 4.0 + (1.0 - s) * 2.0;
  // Sensitivity analysis: one add per input element (region accumulation).
  const double predict_cycles =
      static_cast<double>(wl.input_elems) / cfg.num_pes;

  const double in_bits = s * 8.0 + (1.0 - s) * 4.0;
  LayerSimResult r;
  r.name = wl.name;
  const double dram_bytes = dram_bytes_for(cfg, wl, in_bits, 8.0, 8.0);
  r.compute_cycles = macs * cycles_per_mac / cfg.num_pes + predict_cycles;
  r.dram_bytes = dram_bytes;
  r.dram_cycles = dram_bytes / cfg.dram_bytes_per_cycle;
  r.cycles = std::max(r.compute_cycles, r.dram_cycles);
  r.idle_pe_fraction =
      r.cycles > 0.0 ? 1.0 - r.compute_cycles / r.cycles : 0.0;

  r.energy.core_pj = macs * (s * mac_pj(opts.energy, 8, 8) +
                             (1.0 - s) * mac_pj(opts.energy, 4, 8)) +
                     r.cycles * cfg.num_pes *
                         opts.energy.leakage_pj_per_pe_cycle;
  r.energy.buffer_pj =
      buffer_pj_for_macs(opts.energy, macs, static_cast<int>(in_bits + 0.5),
                         8) +
      r.cycles * opts.energy.buffer_static_pj_per_cycle;
  r.energy.dram_pj = dram_bytes * opts.energy.dram_pj_per_byte +
                     r.cycles * opts.energy.dram_static_pj_per_cycle;
  return r;
}

LayerSimResult simulate_odq_layer(const AcceleratorConfig& cfg,
                                  const ConvWorkload& wl,
                                  const SimOptions& opts) {
  const int pes_per_array = opts.slice.pes_per_array(cfg.num_pes);
  const double s = wl.odq_sensitive_fraction;

  const PeAllocation alloc = opts.dynamic_allocation
                                 ? choose_allocation(s, opts.slice)
                                 : opts.static_allocation;
  const double p_arrays = alloc.predictor_arrays;
  const double e_arrays = alloc.executor_arrays;

  // Predictor: 1 INT2 MAC per PE per cycle over every output.
  const double macs = static_cast<double>(wl.total_macs);
  const double pred_cycles = macs / (p_arrays * pes_per_array);

  // Executor: 3 cycles per MAC for sensitive outputs. Distribute per-channel
  // workloads across executor arrays with the selected schedule.
  std::vector<std::int64_t> work_per_channel;
  if (!wl.sensitive_per_channel.empty()) {
    work_per_channel.reserve(wl.sensitive_per_channel.size());
    for (std::int64_t cnt : wl.sensitive_per_channel) {
      work_per_channel.push_back(
          (cnt * wl.macs_per_out * 3 + pes_per_array - 1) / pes_per_array);
    }
  } else {
    // No mask data: assume an even split over channels.
    const std::int64_t per_channel = static_cast<std::int64_t>(
        s * static_cast<double>(wl.total_macs) * 3.0 /
        (static_cast<double>(std::max<std::int64_t>(wl.out_channels, 1)) *
         pes_per_array));
    work_per_channel.assign(
        static_cast<std::size_t>(std::max<std::int64_t>(wl.out_channels, 1)),
        per_channel);
  }
  // One output occupies an executor array for 3 cycles per MAC spread over
  // its PEs — the migration granularity of the dynamic schedule.
  const std::int64_t out_granularity =
      std::max<std::int64_t>(1, wl.macs_per_out * 3 / pes_per_array);
  const ScheduleResult sched =
      opts.dynamic_workload_schedule
          ? schedule_dynamic(work_per_channel, alloc.executor_arrays,
                             out_granularity)
          : schedule_static(work_per_channel, alloc.executor_arrays);
  const double exec_cycles = static_cast<double>(sched.makespan);

  LayerSimResult r;
  r.name = wl.name;
  r.allocation = alloc;
  r.predictor_cycles = pred_cycles;
  r.executor_cycles = exec_cycles;
  // Pipelined stages: the layer drains at the slower stage's pace.
  r.compute_cycles = std::max(pred_cycles, exec_cycles);

  // Operands move at INT4 plus the bit mask (1 bit per output).
  const double dram_bytes =
      dram_bytes_for(cfg, wl, 4.0, 4.0, 4.0) +
      static_cast<double>(wl.out_elems) / 8.0;
  r.dram_bytes = dram_bytes;
  r.dram_cycles = dram_bytes / cfg.dram_bytes_per_cycle;
  r.cycles = std::max(r.compute_cycles, r.dram_cycles);

  // Idle accounting over (P+E) arrays for the layer's duration.
  const double t = std::max(r.cycles, 1e-9);
  const double pred_busy = pred_cycles * p_arrays;
  const double exec_busy =
      (exec_cycles * e_arrays) - static_cast<double>(sched.idle_cycles);
  r.predictor_idle_fraction = 1.0 - pred_busy / (t * p_arrays);
  r.executor_idle_fraction = 1.0 - exec_busy / (t * e_arrays);
  r.idle_pe_fraction =
      1.0 - (pred_busy + exec_busy) / (t * (p_arrays + e_arrays));

  // Energy: predictor MACs are 2x2; executor remainder is 3 INT2-grade
  // sub-MACs per sensitive MAC; threshold compare per output.
  const double exec_macs = macs * s;
  r.energy.core_pj =
      macs * mac_pj(opts.energy, 2, 2) +
      exec_macs * 3.0 * mac_pj(opts.energy, 2, 2) +
      static_cast<double>(wl.out_elems) * 0.01 +
      r.cycles * cfg.num_pes * opts.energy.leakage_pj_per_pe_cycle;
  r.energy.buffer_pj = buffer_pj_for_macs(opts.energy, macs, 2, 2) +
                       buffer_pj_for_macs(opts.energy, exec_macs * 3.0, 2, 2) +
                       r.cycles * opts.energy.buffer_static_pj_per_cycle;
  r.energy.dram_pj = dram_bytes * opts.energy.dram_pj_per_byte +
                     r.cycles * opts.energy.dram_static_pj_per_cycle;
  return r;
}

}  // namespace

SimResult simulate(const AcceleratorConfig& cfg,
                   const std::vector<ConvWorkload>& workloads,
                   const SimOptions& opts) {
  obs::TraceSpan span("sim.network." + cfg.name);
  span.arg("layers", static_cast<std::int64_t>(workloads.size()));
  SimResult res;
  res.accelerator = cfg.name;
  double idle_weighted = 0.0;

  for (const ConvWorkload& wl : workloads) {
    LayerSimResult lr;
    switch (cfg.kind) {
      case AcceleratorKind::kInt16Static:
        lr = simulate_uniform(cfg, wl, opts, /*cycles_per_mac=*/1.0, 16, 16,
                              dram_bytes_for(cfg, wl, 16.0, 16.0, 16.0));
        break;
      case AcceleratorKind::kInt8Static:
        lr = simulate_uniform(cfg, wl, opts, /*cycles_per_mac=*/4.0, 8, 8,
                              dram_bytes_for(cfg, wl, 8.0, 8.0, 8.0));
        break;
      case AcceleratorKind::kDrq:
        lr = simulate_drq_layer(cfg, wl, opts);
        break;
      case AcceleratorKind::kOdq:
        lr = simulate_odq_layer(cfg, wl, opts);
        break;
      default:
        throw std::logic_error("simulate: unknown accelerator kind");
    }
    res.total_cycles += lr.cycles;
    idle_weighted += lr.idle_pe_fraction * lr.cycles;
    res.energy += lr.energy;
    res.layers.push_back(std::move(lr));
  }
  res.idle_pe_fraction =
      res.total_cycles > 0.0 ? idle_weighted / res.total_cycles : 0.0;
  if (obs::metrics_enabled()) {
    static obs::Counter& runs = obs::counter("sim.runs");
    static obs::Counter& layers = obs::counter("sim.layers");
    static obs::Counter& cycles = obs::counter("sim.cycles");
    static obs::Series& idle = obs::series("sim.layer_idle_fraction");
    runs.increment();
    layers.add(static_cast<std::int64_t>(res.layers.size()));
    cycles.add(static_cast<std::int64_t>(res.total_cycles));
    for (const LayerSimResult& lr : res.layers) {
      idle.record(obs::basis_points(lr.idle_pe_fraction));
    }
  }
  return res;
}

}  // namespace odq::accel
