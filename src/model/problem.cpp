#include "model/problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace rp {

double PlaceProblem::movable_area() const {
  double a = 0.0;
  for (const auto& n : nodes)
    if (!n.fixed) a += n.area();
  return a;
}

double PlaceProblem::hpwl() const {
  double sum = 0.0;
  for (const PlaceNet& net : nets) {
    if (net.degree() < 2) continue;
    BBox bb;
    for (int p = net.pin_begin; p < net.pin_end; ++p) {
      const PlacePin& pin = pins[static_cast<std::size_t>(p)];
      bb.add({x[static_cast<std::size_t>(pin.node)] + pin.ox,
              y[static_cast<std::size_t>(pin.node)] + pin.oy});
    }
    sum += net.weight * bb.half_perimeter();
  }
  return sum;
}

void PlaceProblem::clamp_to_die() {
  for (std::size_t v = 0; v < nodes.size(); ++v)
    if (!nodes[v].fixed) clamp_node(v);
}

void PlaceProblem::clamp_node(std::size_t v) {
  const auto& n = nodes[v];
  // Nodes wider than the die are centered.
  const double hw = std::min(n.w, die.width()) / 2;
  const double hh = std::min(n.h, die.height()) / 2;
  x[v] = std::clamp(x[v], die.lx + hw, die.hx - hw);
  y[v] = std::clamp(y[v], die.ly + hh, die.hy - hh);
}

void PlaceProblem::validate() const {
  const auto n = nodes.size();
  if (x.size() != n || y.size() != n || inflate.size() != n)
    throw std::runtime_error("PlaceProblem: coordinate array size mismatch");
  if (die.width() <= 0 || die.height() <= 0)
    throw std::runtime_error("PlaceProblem: degenerate die");
  for (const PlaceNet& net : nets) {
    if (net.pin_begin < 0 || net.pin_end > static_cast<int>(pins.size()) ||
        net.pin_begin > net.pin_end)
      throw std::runtime_error("PlaceProblem: bad net pin range");
  }
  for (const PlacePin& p : pins) {
    if (p.node < 0 || p.node >= static_cast<int>(n))
      throw std::runtime_error("PlaceProblem: pin references bad node");
  }
}

PlaceProblem make_problem(const Design& d) {
  RP_ASSERT(d.finalized(), "make_problem needs a finalized design");
  PlaceProblem p;
  p.die = d.die();
  p.nodes.resize(static_cast<std::size_t>(d.num_cells()));
  p.x.resize(p.nodes.size());
  p.y.resize(p.nodes.size());
  p.inflate.assign(p.nodes.size(), 1.0);
  for (CellId c = 0; c < d.num_cells(); ++c) {
    const Cell& k = d.cell(c);
    auto& n = p.nodes[static_cast<std::size_t>(c)];
    n.w = k.w;
    n.h = k.h;
    n.fixed = k.fixed;
    n.macro = k.is_macro();
    const Point ctr = d.cell_center(c);
    p.x[static_cast<std::size_t>(c)] = ctr.x;
    p.y[static_cast<std::size_t>(c)] = ctr.y;
  }
  p.pins.reserve(static_cast<std::size_t>(d.num_pins()));
  p.nets.reserve(static_cast<std::size_t>(d.num_nets()));
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(n);
    PlaceNet pn;
    pn.pin_begin = static_cast<int>(p.pins.size());
    pn.weight = net.weight;
    for (const PinId pid : net.pins) {
      const Pin& pin = d.pin(pid);
      p.pins.push_back(PlacePin{pin.cell, pin.offset.x, pin.offset.y});
    }
    pn.pin_end = static_cast<int>(p.pins.size());
    p.nets.push_back(pn);
  }
  p.validate();
  return p;
}

void apply_solution(const PlaceProblem& p, Design& d) {
  RP_ASSERT(p.num_nodes() == d.num_cells(), "apply_solution: node count mismatch");
  for (CellId c = 0; c < d.num_cells(); ++c) {
    if (d.cell(c).fixed) continue;
    d.set_center(c, {p.x[static_cast<std::size_t>(c)], p.y[static_cast<std::size_t>(c)]});
  }
}

}  // namespace rp
