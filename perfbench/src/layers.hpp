// Per-call times of the layers under the workloads, measured by driving
// each layer's public functions at the shapes the real workloads use:
//
//   core     PolicyEvaluator::score on the paper setup
//   rl       DdpgAgent::act / train_step (state 12, actions 1 and 2, batch
//            64, 64x64 hidden, full replay buffer), Mlp forward / backward
//   kernels  gemm / gemm_backward / bias_act at the 64-wide shape, under
//            each backend via force_backend
//   sim      one Simulator::run (500 events, greedy and Q-learning training
//            mode), generate_arrivals for 500 events
//   energy   make_paper_setup per harvesting source
//
// Each value is the median over several batches of repeated calls.
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <vector>

#include "checks.hpp"

namespace perfbench {

/// Every per-call layer metric, named as in BENCHMARK.json.
std::vector<Metric> measure_layers();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
