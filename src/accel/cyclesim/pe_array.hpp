// A PE array in the cycle-stepped simulator.
//
// Each array holds `pes` processing elements and works on one output
// feature at a time:
//   * predictor role — one INT2 MAC per PE per cycle, so an output with
//     `macs` MACs completes in ceil(macs / pes) cycles;
//   * executor role — the remaining three partial products of Eq. (3)
//     take 3 cycles per MAC (BitFusion-style multi-precision PE), i.e.
//     ceil(3 * macs / pes) cycles per output.
//
// The array stalls when its line buffer has no column for the next output.
#pragma once

#include <cstdint>

#include "accel/cyclesim/line_buffer.hpp"

namespace odq::accel::cyclesim {

enum class ArrayRole { kPredictor, kExecutor };

class PeArray {
 public:
  PeArray(int pes, ArrayRole role) : pes_(pes), role_(role) {}

  ArrayRole role() const { return role_; }

  bool busy() const { return cycles_left_ > 0; }

  // Start one output computation (`macs` MACs). Requires !busy().
  // Consumes one input column from `lb`; returns false (and stays idle) on
  // line-buffer underrun.
  bool issue(std::int64_t macs, LineBuffer& lb);

  // As issue(), for work whose input column was already fetched (columns
  // are broadcast to every predictor array, paper Fig. 17).
  bool issue_prefetched(std::int64_t macs);

  // Advance one cycle. Returns true if an output completed this cycle.
  bool step();

  std::int64_t busy_cycles() const { return busy_cycles_; }
  std::int64_t idle_cycles() const { return idle_cycles_; }
  std::int64_t outputs_done() const { return outputs_done_; }

 private:
  int pes_;
  ArrayRole role_;
  std::int64_t cycles_left_ = 0;
  std::int64_t busy_cycles_ = 0;
  std::int64_t idle_cycles_ = 0;
  std::int64_t outputs_done_ = 0;
};

}  // namespace odq::accel::cyclesim
