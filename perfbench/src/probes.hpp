// Per-layer probes for the traced run: each one calls a module's public
// functions at the workload's shapes, wrapped in a span, and reports the
// median wall time over repeated calls.
#pragma once

#include <cstddef>

#include "gsfl/core/experiment.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct ProbeSetup {
  const gsfl::core::Experiment& experiment;
  /// Replicas one FedAvg fold averages in this workload's round.
  std::size_t fold_replicas;
  Tracer& tracer;
};

/// data.generate_ms, data.partition_ms.
void probe_data(const ProbeSetup& setup, Report& report);

/// nn.* (model, split halves, per-layer fused pairs, optimizer, state copy),
/// data.batch_gather_us, tensor.* (GEMM at the layer shapes, im2col),
/// common.* (fork-join, lane hand-off) and schemes.fedavg_*.
void probe_layers(const ProbeSetup& setup, Report& report);

}  // namespace perfbench
