#pragma once
// Differentiable wirelength models.
//
// HPWL is non-smooth; analytical placement replaces it per net and axis with
// a smooth approximation controlled by a smoothing parameter gamma:
//
//  * LSE (log-sum-exp):   gamma * (log Σ e^{x/γ} + log Σ e^{-x/γ})
//    Classic NTUplace3 model; always an OVER-estimate of HPWL.
//  * WA (weighted-average): Σ x e^{x/γ} / Σ e^{x/γ} - Σ x e^{-x/γ} / Σ e^{-x/γ}
//    (Hsu/Chang model) — an UNDER-estimate with strictly smaller absolute
//    error bound than LSE at the same γ (error ≤ γ·ln n for LSE vs ≤ γ/e·...).
//
// Both implementations subtract the per-net max/min before exponentiating,
// so they are numerically stable for any γ down to ~1e-3 of the die size.
//
// eval() returns the model value and ACCUMULATES dWL/dx into grad arrays
// (callers zero them). Gradients flow to every node, fixed included; the
// solver masks fixed nodes.
//
// Evaluation is parallel over net chunks through util/parallel on a CSR
// flattening of the netlist (model/netlist_csr.hpp): each net writes its
// per-pin gradients into pin-owned slots (race-free), the value is reduced
// in fixed chunk order, and a second parallel pass gathers per-node
// gradients over each node's pin list in ascending pin order — so results
// are bitwise identical for any thread count. The two passes are public
// (begin_nets / net_chunk / end_nets, then gather_chunk), so a caller can
// run each in one pool job with other independent work; eval() and value()
// are compositions of the same passes. The per-pin gradients stay in the
// model until the next net pass, so the gather may come later.
//
// Each net chunk is one batched kernel: it stages its nets' pin
// coordinates (read straight from the node centres and pin offsets) and exp
// arguments, runs a single vector exp over the chunk, then finishes every
// net. Nets of degree 2..kLaneMaxDegree are
// staged four of one degree side by side, one net per SIMD lane, and run
// through the dispatched simd::Ops net_lanes kernels; larger nets run the
// scalar level's 4-lane reduction tree inline. Either way each net gets
// the bits of one dispatched call per net and array, at every RP_SIMD
// level, and per-net values are summed in net order.
//
// The CSR view, the lane layout and the per-thread chunk scratch live in
// the model. Each chunk checks the problem's net pin ranges and pin nodes
// against the cached view while it stages; a mismatch (the model evaluated
// on a different netlist of equal size) rebuilds the view and evaluates
// again, so a stale view can never be read. Steady-state evals allocate
// nothing.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/netlist_csr.hpp"
#include "model/problem.hpp"
#include "util/parallel.hpp"

namespace rp {

/// Per-thread scratch of the chunk kernel (owned by the model, one slot per
/// pool thread, reused across chunks and evals). Each evaluation unit of a
/// chunk — a lane group of up to four nets of one degree, or one larger net
/// — takes consecutive slices: its pin coordinates in `coords`, its exp
/// arguments (exponentiated in place) in `exps`, its extremes in `extent`;
/// `value` holds each net's x and y extent, `grad` one unit's x and y
/// gradients. prepare() sizes every slot to the largest chunk up front;
/// ensure() revalidates per chunk so a model evaluated on a larger design
/// through a reused ThreadPool can never index past a stale capacity (the
/// buffers only ever grow).
struct WlThreadScratch {
  std::vector<double> coords;
  std::vector<double> exps;
  std::vector<double> extent;
  std::vector<double> value;
  std::vector<double> grad;

  void ensure(std::size_t ncoords, std::size_t nexps, std::size_t extents, std::size_t nets,
              std::size_t max_degree);
};

/// Where each chunk's nets go: chunk k, nets [first_net[k] ..
/// first_net[k+1]), evaluates order[begin[k] .. begin[k+1]) — its nets of
/// degree 2..kLaneMaxDegree by ascending degree (net order within a degree,
/// four per lane group), then its larger nets in net order — in
/// `coords[k]` staged coordinates, `exps[k]` exp arguments and
/// `extents[k]` extremes.
struct WlLaneLayout {
  std::vector<int> order;
  std::vector<std::size_t> first_net;
  std::vector<std::size_t> begin;
  std::vector<std::size_t> coords;
  std::vector<std::size_t> exps;
  std::vector<std::size_t> extents;
};

class WirelengthModel {
 public:
  /// Minimum nets per parallel chunk. The chunk layout (and so the order in
  /// which per-chunk values are summed) is parallel::plan_chunks(nets, this).
  static constexpr std::size_t kNetGrain = 64;
  /// Largest net degree evaluated in SIMD lanes; larger nets run per net.
  static constexpr int kLaneMaxDegree = 12;

  virtual ~WirelengthModel() = default;
  virtual std::string name() const = 0;
  /// Smoothed wirelength + gradient accumulation. gx/gy sized num_nodes.
  double eval(const PlaceProblem& p, std::span<double> gx, std::span<double> gy) const;
  /// Value only — skips every gradient store and the node gather pass.
  double value(const PlaceProblem& p) const;

  // The two passes of eval(): the net pass is begin_nets, net_chunk for
  // every chunk of the plan it returns, then end_nets; the gather pass is
  // gather_chunk for every chunk of gather_plan().
  /// Prepares the view of p, counts one evaluation and returns the net
  /// chunk plan. With `grad` the chunks store per-pin gradients, which the
  /// model keeps for the gather until the next begin_nets.
  parallel::ChunkPlan begin_nets(const PlaceProblem& p, bool grad) const;
  /// Evaluates net chunk k on pool worker `worker`.
  void net_chunk(const PlaceProblem& p, int k, int worker) const;
  /// The value: the chunk values summed in chunk order. If a chunk found
  /// the view stale, rebuilds it and reruns the net pass (its own region).
  double end_nets(const PlaceProblem& p) const;
  /// Node chunks of the gather over the last net pass's pin gradients.
  parallel::ChunkPlan gather_plan() const;
  /// Per node v of chunk k: g[v] += Σ its pin gradients in ascending pin
  /// order, or g[v] = 0.0 + Σ when !accumulate (the bits of zeroing first).
  void gather_chunk(int k, std::span<double> gx, std::span<double> gy, bool accumulate) const;

  virtual void set_gamma(double g) { gamma_ = g; }
  double gamma() const { return gamma_; }

 protected:
  /// wa: the weighted-average model, else log-sum-exp.
  explicit WirelengthModel(bool wa, double gamma) : gamma_(gamma), wa_(wa) {}

  double gamma_ = 1.0;

 private:
  /// CSR view and lane layout of p, rebuilt when `rebuild` or the problem
  /// shape (node/pin/net counts) changes; also sizes the per-thread
  /// scratch to the current pool width and the largest chunk.
  NetlistCsr& prepare(const PlaceProblem& p, bool rebuild) const;
  /// begin_nets, every chunk as one region, end_nets.
  double run_nets(const PlaceProblem& p, bool grad) const;

  bool wa_;
  mutable NetlistCsr csr_;
  mutable WlLaneLayout layout_;
  mutable bool csr_valid_ = false;
  /// The largest chunk's coordinate, exp-argument and extreme counts.
  mutable std::size_t chunk_coords_ = 0, chunk_exps_ = 0, chunk_extents_ = 0;
  mutable std::size_t chunk_nets_ = 0;  ///< Largest chunk's net count.
  mutable std::vector<WlThreadScratch> scratch_;
  // The net pass in flight: with pin gradients or not, and per chunk its
  // weighted value and whether it found the view current (each chunk
  // writes only its own slots).
  mutable bool pass_grad_ = false;
  mutable std::vector<double> part_;
  mutable std::vector<unsigned char> fresh_;
};

class LseWirelength final : public WirelengthModel {
 public:
  explicit LseWirelength(double gamma = 1.0) : WirelengthModel(false, gamma) {}
  std::string name() const override { return "LSE"; }
};

class WaWirelength final : public WirelengthModel {
 public:
  explicit WaWirelength(double gamma = 1.0) : WirelengthModel(true, gamma) {}
  std::string name() const override { return "WA"; }
};

std::unique_ptr<WirelengthModel> make_wirelength_model(const std::string& name,
                                                       double gamma);

}  // namespace rp
