#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "util/logger.hpp"
#include "util/simd_detail.hpp"

namespace rp::simd {

using namespace detail;

// ------------------------------------------------------------ scalar level
// The scalar kernels execute the 4-virtual-lane reduction tree literally
// (see util/simd.hpp); vector levels map the same lanes onto registers.

namespace {

void s_affine(const double* x, std::size_t n, double bias, double scale,
              double* out) {
  affine_range(x, 0, n, bias, scale, out);
}

void s_exp_nonpos(const double* x, std::size_t n, double* out) {
  exp_range(x, 0, n, out);
}

void s_neg(const double* x, std::size_t n, double* out) {
  neg_range(x, 0, n, out);
}

void s_axpy(double a, const double* x, std::size_t n, double* y) {
  axpy_range(a, x, 0, n, y);
}

void s_axpy_out(const double* z, double a, const double* d, std::size_t n,
                double* out) {
  axpy_out_range(z, a, d, 0, n, out);
}

void s_cg_dir(const double* g, double beta, double* d, std::size_t n) {
  cg_dir_range(g, beta, d, 0, n);
}

void s_lse_grad(const double* ep, const double* em, std::size_t n, double rsp,
                double rsm, double* dc) {
  lse_grad_range(ep, em, 0, n, rsp, rsm, dc);
}

void s_wa_grad(const double* c, const double* ep, const double* em,
               std::size_t n, double xmax, double xmin, double ig, double rsp,
               double rsm, double* dc) {
  wa_grad_range(c, ep, em, 0, n, xmax, xmin, ig, rsp, rsm, dc);
}

double s_abs_max(const double* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    l0 = max2(l0, abs_one(x[i]));
    l1 = max2(l1, abs_one(x[i + 1]));
    l2 = max2(l2, abs_one(x[i + 2]));
    l3 = max2(l3, abs_one(x[i + 3]));
  }
  double m = max2(max2(l0, l1), max2(l2, l3));
  for (; i < n; ++i) m = max2(m, abs_one(x[i]));
  return m;
}

double s_pr_num(const double* g, const double* gp, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 3 < n; i += 4) {
    l0 += g[i] * (g[i] - gp[i]);
    l1 += g[i + 1] * (g[i + 1] - gp[i + 1]);
    l2 += g[i + 2] * (g[i + 2] - gp[i + 2]);
    l3 += g[i + 3] * (g[i + 3] - gp[i + 3]);
  }
  return combine_sum(l0, l1, l2, l3, pr_num_tail(g, gp, i, n));
}

constexpr Ops kScalarOps = {
    Level::Scalar,  s_affine,   s_exp_nonpos, s_neg,
    s_axpy,         s_axpy_out, s_cg_dir,     s_lse_grad,
    s_wa_grad,      bell_splat_lanes, bell_gather_lanes,
    minmax_lanes,   sum_lanes,  dot_lanes,    s_abs_max,
    s_pr_num,
};

}  // namespace

const Ops& scalar_ops() { return kScalarOps; }

// -------------------------------------------------------------- dispatch --

const char* level_name(Level l) {
  switch (l) {
    case Level::Scalar: return "scalar";
    case Level::Avx2: return "avx2";
    case Level::Neon: return "neon";
  }
  return "?";
}

const HostFeatures& host_features() {
  static const HostFeatures f = [] {
    HostFeatures h;
#if defined(__x86_64__) || defined(__i386__)
    h.avx2 = __builtin_cpu_supports("avx2") != 0;
#elif defined(__aarch64__)
    h.neon = true;
#endif
    return h;
  }();
  return f;
}

namespace {

std::atomic<const Ops*> g_active{nullptr};
std::mutex g_mutex;
std::string g_requested = "auto";

const Ops* table_for(Level l) {
  if (l == Level::Avx2)
    if (const Ops* t = avx2_ops()) return t;
  if (l == Level::Neon)
    if (const Ops* t = neon_ops()) return t;
  return &scalar_ops();
}

// Requires g_mutex.
void apply_locked(const std::string& req, Level l) {
  g_requested = req;
  g_active.store(table_for(l), std::memory_order_release);
}

}  // namespace

Level resolve(const std::string& req, bool* recognized) {
  if (recognized != nullptr) *recognized = true;
  if (req == "off" || req == "scalar") return Level::Scalar;
  if (req == "avx2")
    return (host_features().avx2 && avx2_ops() != nullptr) ? Level::Avx2
                                                           : Level::Scalar;
  if (req == "neon")
    return (host_features().neon && neon_ops() != nullptr) ? Level::Neon
                                                           : Level::Scalar;
  if (req.empty() || req == "auto") {
    if (host_features().avx2 && avx2_ops() != nullptr) return Level::Avx2;
    if (host_features().neon && neon_ops() != nullptr) return Level::Neon;
    return Level::Scalar;
  }
  if (recognized != nullptr) *recognized = false;
  return Level::Scalar;
}

bool set_from_string(const std::string& req) {
  bool recognized = false;
  const Level l = resolve(req, &recognized);
  if (!recognized) return false;
  std::lock_guard<std::mutex> lock(g_mutex);
  if ((req == "avx2" || req == "neon") && l == Level::Scalar)
    RP_WARN("RP_SIMD=%s requested but unavailable on this host; "
            "falling back to scalar kernels", req.c_str());
  apply_locked(req, l);
  return true;
}

const Ops& ops() {
  const Ops* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    t = g_active.load(std::memory_order_relaxed);
    if (t == nullptr) {
      const char* env = std::getenv("RP_SIMD");
      std::string req = env != nullptr ? env : "auto";
      bool recognized = false;
      Level l = resolve(req, &recognized);
      if (!recognized) {
        RP_WARN("unknown RP_SIMD value '%s'; using auto", req.c_str());
        req = "auto";
        l = resolve(req, nullptr);
      }
      apply_locked(req, l);
      t = g_active.load(std::memory_order_relaxed);
    }
  }
  return *t;
}

Level active_level() { return ops().level; }

const std::string& requested() {
  ops();  // force init so the provenance string is populated
  return g_requested;
}

}  // namespace rp::simd
