#include "model/netlist_csr.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace rp {

namespace {

/// Build the node->pin incidence from pin_node with counting sort, so
/// node_pin lists every node's pins in ascending pin-id order.
void build_incidence(NetlistCsr& c) {
  c.node_pin_offset.assign(static_cast<std::size_t>(c.num_nodes) + 1, 0);
  for (const int v : c.pin_node) ++c.node_pin_offset[static_cast<std::size_t>(v) + 1];
  for (int v = 0; v < c.num_nodes; ++v)
    c.node_pin_offset[static_cast<std::size_t>(v) + 1] +=
        c.node_pin_offset[static_cast<std::size_t>(v)];
  c.node_pin.resize(static_cast<std::size_t>(c.num_pins));
  std::vector<int> cursor(c.node_pin_offset.begin(), c.node_pin_offset.end() - 1);
  for (int pin = 0; pin < c.num_pins; ++pin) {
    const int v = c.pin_node[static_cast<std::size_t>(pin)];
    c.node_pin[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = pin;
  }
}

void size_buffers(NetlistCsr& c) {
  const auto np = static_cast<std::size_t>(c.num_pins);
  c.pin_g.resize(2 * np);
  c.max_net_degree = 0;
  for (int n = 0; n < c.num_nets; ++n)
    c.max_net_degree = std::max(c.max_net_degree, c.net_degree(n));
}

}  // namespace

NetlistCsr NetlistCsr::from_problem(const PlaceProblem& p) {
  NetlistCsr c;
  c.num_nodes = p.num_nodes();
  c.num_nets = p.num_nets();
  c.num_pins = static_cast<int>(p.pins.size());
  c.net_offset.resize(static_cast<std::size_t>(c.num_nets) + 1);
  // PlaceProblem pins are already grouped by net in net order; reuse the
  // ranges directly (and assert the invariant we rely on).
  int expect = 0;
  for (int n = 0; n < c.num_nets; ++n) {
    const PlaceNet& net = p.nets[static_cast<std::size_t>(n)];
    RP_ASSERT(net.pin_begin == expect, "PlaceProblem pins not contiguous by net");
    c.net_offset[static_cast<std::size_t>(n)] = net.pin_begin;
    expect = net.pin_end;
  }
  c.net_offset[static_cast<std::size_t>(c.num_nets)] = expect;
  RP_ASSERT(expect == c.num_pins, "PlaceProblem pin ranges do not cover pins");

  c.pin_node.resize(static_cast<std::size_t>(c.num_pins));
  for (int i = 0; i < c.num_pins; ++i)
    c.pin_node[static_cast<std::size_t>(i)] = p.pins[static_cast<std::size_t>(i)].node;
  build_incidence(c);
  size_buffers(c);
  return c;
}

NetlistCsr NetlistCsr::from_design(const Design& d) {
  NetlistCsr c;
  c.num_nodes = d.num_cells();
  c.num_nets = d.num_nets();
  c.net_offset.resize(static_cast<std::size_t>(c.num_nets) + 1);
  int total = 0;
  for (NetId n = 0; n < d.num_nets(); ++n) {
    c.net_offset[static_cast<std::size_t>(n)] = total;
    total += d.net(n).degree();
  }
  c.net_offset[static_cast<std::size_t>(c.num_nets)] = total;
  c.num_pins = total;

  c.pin_node.resize(static_cast<std::size_t>(total));
  c.pin_ox.resize(static_cast<std::size_t>(total));
  c.pin_oy.resize(static_cast<std::size_t>(total));
  int i = 0;
  for (NetId n = 0; n < d.num_nets(); ++n) {
    for (const PinId pid : d.net(n).pins) {
      const Pin& pin = d.pin(pid);
      c.pin_node[static_cast<std::size_t>(i)] = pin.cell;
      c.pin_ox[static_cast<std::size_t>(i)] = pin.offset.x;
      c.pin_oy[static_cast<std::size_t>(i)] = pin.offset.y;
      ++i;
    }
  }
  build_incidence(c);
  size_buffers(c);
  return c;
}

void NetlistCsr::gather_coords(const Design& d) {
  pin_cx.resize(static_cast<std::size_t>(num_pins));
  pin_cy.resize(static_cast<std::size_t>(num_pins));
  parallel::parallel_for(static_cast<std::size_t>(num_pins), 8192,
                         [&](std::size_t b, std::size_t e, int) {
                           for (std::size_t i = b; i < e; ++i) {
                             const Point ctr = d.cell_center(pin_node[i]);
                             pin_cx[i] = ctr.x + pin_ox[i];
                             pin_cy[i] = ctr.y + pin_oy[i];
                           }
                         });
}

}  // namespace rp
