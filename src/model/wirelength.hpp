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
// are bitwise identical for any thread count. Each chunk is one batched
// kernel: it stages every pin's exp arguments, runs a single vector exp
// over the chunk's contiguous pin range (so 2- and 3-pin nets fill vector
// lanes too), then finishes each net with the scalar level's 4-lane
// reduction tree inline — the same bits as one dispatched call per net and
// array, at every RP_SIMD level. The CSR view and per-thread chunk scratch
// live in the model and are rebuilt only when the problem shape
// (node/pin/net counts) changes; steady-state evals allocate nothing.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/netlist_csr.hpp"
#include "model/problem.hpp"

namespace rp {

/// Per-thread scratch of the chunk kernel (owned by the model, one slot per
/// pool thread, reused across chunks and evals). A chunk stages its pins'
/// exp arguments in `exps` as four pin-length planes — e^{(x-max)/γ},
/// e^{(min-x)/γ}, then the same for y — and exponentiates them in place;
/// `extent` holds each net's x/y min and max. prepare() sizes every slot to
/// the largest chunk up front; ensure() revalidates per chunk so a model
/// evaluated on a larger design through a reused ThreadPool can never index
/// past a stale capacity (the buffers only ever grow).
struct WlThreadScratch {
  std::vector<double> exps;    ///< 4 planes x chunk pins
  std::vector<double> extent;  ///< 4 per net: x min, x max, y min, y max

  void ensure(std::size_t pins, std::size_t nets) {
    if (exps.size() < 4 * pins) exps.resize(4 * pins);
    if (extent.size() < 4 * nets) extent.resize(4 * nets);
  }
};

class WirelengthModel {
 public:
  /// Minimum nets per parallel chunk. The chunk layout (and so the order in
  /// which per-chunk values are summed) is parallel::plan_chunks(nets, this).
  static constexpr std::size_t kNetGrain = 64;

  virtual ~WirelengthModel() = default;
  virtual std::string name() const = 0;
  /// Smoothed wirelength + gradient accumulation. gx/gy sized num_nodes.
  virtual double eval(const PlaceProblem& p, std::span<double> gx,
                      std::span<double> gy) const = 0;
  /// Value only — skips every gradient store and the node gather pass.
  virtual double value(const PlaceProblem& p) const = 0;

  virtual void set_gamma(double g) { gamma_ = g; }
  double gamma() const { return gamma_; }

 protected:
  double gamma_ = 1.0;

  /// CSR view of p, rebuilt when the problem shape changes; also sizes the
  /// per-thread scratch to the current pool width and the largest chunk.
  NetlistCsr& prepare(const PlaceProblem& p) const;
  std::vector<WlThreadScratch>& scratch() const { return scratch_; }

 private:
  mutable NetlistCsr csr_;
  mutable bool csr_valid_ = false;
  mutable std::size_t chunk_pins_ = 0;  ///< Largest chunk's pin count.
  mutable std::size_t chunk_nets_ = 0;  ///< Largest chunk's net count.
  mutable std::vector<WlThreadScratch> scratch_;
};

class LseWirelength final : public WirelengthModel {
 public:
  explicit LseWirelength(double gamma = 1.0) { gamma_ = gamma; }
  std::string name() const override { return "LSE"; }
  double eval(const PlaceProblem& p, std::span<double> gx,
              std::span<double> gy) const override;
  double value(const PlaceProblem& p) const override;
};

class WaWirelength final : public WirelengthModel {
 public:
  explicit WaWirelength(double gamma = 1.0) { gamma_ = gamma; }
  std::string name() const override { return "WA"; }
  double eval(const PlaceProblem& p, std::span<double> gx,
              std::span<double> gy) const override;
  double value(const PlaceProblem& p) const override;
};

std::unique_ptr<WirelengthModel> make_wirelength_model(const std::string& name,
                                                       double gamma);

}  // namespace rp
