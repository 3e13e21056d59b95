#pragma once
// Frontier hardware description used by every performance model.
//
// Numbers come from the paper's Sec. IV-A and the public Frontier guide:
// each node has four MI250X GPUs (eight GCDs), 383 TFLOPS peak per MI250X
// (191.5 per GCD), 64 GB HBM per GCD, 100 GB/s Infinity Fabric between
// MI250Xs (200 GB/s between the two GCDs of one MI250X), and 100 GB/s
// Slingshot-11 between nodes. 9408 nodes = 75,264 effective GPUs.

#include <cstdint>

namespace matgpt::sim {

/// One Graphics Compute Die — the paper's "effective GPU".
struct GcdSpec {
  double peak_flops = 191.5e12;  // bf16/fp16 matrix peak per GCD
  double hbm_bytes = 64.0e9;     // HBM capacity per GCD
  double hbm_bandwidth = 1.6e12; // bytes/s sustained per GCD

  /// Power model (per GCD; the MI250X sensor reports the 2-GCD sum).
  double idle_power_w = 90.0;
  double max_power_w = 250.0;  // per GCD (500 W MI250X board envelope)
};

/// Link bandwidths in bytes/s, and per-hop latencies.
struct FrontierTopology {
  int gcds_per_node = 8;
  int nodes = 9408;

  double intra_mi250x_bw = 200.0e9;  // two GCDs on one MI250X
  double intra_node_bw = 100.0e9;    // Infinity Fabric between MI250Xs
  double inter_node_bw = 100.0e9;    // Slingshot-11 per node

  double intra_mi250x_latency_s = 0.5e-6;
  double intra_node_latency_s = 1.0e-6;
  double inter_node_latency_s = 2.5e-6;

  /// Fixed per-collective cost (RCCL kernel launch + host synchronization on
  /// Frontier). A platform whose collectives are not GPU kernels sets its
  /// own measured per-call overhead here.
  double collective_launch_overhead_s = 50.0e-6;

  int total_gcds() const { return gcds_per_node * nodes; }

  /// Narrowest link a communicator group of `group_size` consecutive GCDs
  /// must traverse (the paper maps TP=2 onto the 2-GCD MI250X pair precisely
  /// to exploit this hierarchy).
  double group_bandwidth(int group_size) const;
  double group_latency(int group_size) const;
};

/// The standard experiment platform: spec + topology defaults.
struct Platform {
  GcdSpec gcd;
  FrontierTopology topology;
};

}  // namespace matgpt::sim
