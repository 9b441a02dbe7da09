#pragma once
// Flat CSR (compressed sparse row) view of a netlist, shared by the
// wirelength model and the routing estimator.
//
// The AoS structures (PlacePin / db::Net) are convenient to build but force
// the hot kernels into pointer-chasing loops. This flattens both directions
// of the bipartite net<->node graph into contiguous arrays:
//
//   net  -> pins : net_offset[n] .. net_offset[n+1] index into the pin arrays
//   pin  -> node : pin_node / pin_ox / pin_oy (SoA)
//   node -> pins : node_pin_offset / node_pin, pin ids ASCENDING — the order
//                  in which a sequential walk over nets touches each node,
//                  so a per-node gather reproduces the sequential gradient
//                  accumulation order bit for bit.
//
// plus per-pin gather/scatter buffers (pin_cx/pin_cy, pin_gx/pin_gy) that
// let the parallel kernels write per-PIN results race-free: every pin is
// owned by exactly one net, every net by exactly one chunk.

#include <vector>

#include "db/design.hpp"
#include "model/problem.hpp"

namespace rp {

struct NetlistCsr {
  int num_nodes = 0;
  int num_nets = 0;
  int num_pins = 0;
  int max_net_degree = 0;  ///< pin count of the largest net

  // net -> pin range
  std::vector<int> net_offset;     ///< size num_nets + 1
  std::vector<double> net_weight;  ///< size num_nets

  // pin -> node (SoA)
  std::vector<int> pin_node;   ///< size num_pins
  std::vector<double> pin_ox;  ///< offset from node center
  std::vector<double> pin_oy;

  // node -> pin incidence (pin ids ascending per node)
  std::vector<int> node_pin_offset;  ///< size num_nodes + 1
  std::vector<int> node_pin;         ///< size num_pins

  // Per-pin gather / scatter buffers (kernel scratch, sized num_pins).
  std::vector<double> pin_cx, pin_cy;  ///< gathered pin coordinates
  std::vector<double> pin_gx, pin_gy;  ///< per-pin gradient scatter slots

  int net_degree(int n) const {
    return net_offset[static_cast<std::size_t>(n) + 1] -
           net_offset[static_cast<std::size_t>(n)];
  }

  /// Flatten a PlaceProblem's netlist (topology only; coordinates are
  /// gathered per eval with gather_coords).
  static NetlistCsr from_problem(const PlaceProblem& p);

  /// Flatten a Design's netlist; pin offsets are taken from Pin::offset so
  /// gather_coords(d) reproduces Design::pin_pos for every pin.
  static NetlistCsr from_design(const Design& d);

  /// Parallel gather of pin coordinates from problem node centers.
  void gather_coords(const PlaceProblem& p);
  /// Parallel gather of pin coordinates from design cell centers.
  void gather_coords(const Design& d);
};

}  // namespace rp
