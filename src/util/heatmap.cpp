#include "util/heatmap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/logger.hpp"

namespace rp {

namespace {

constexpr char kMagic[4] = {'R', 'P', 'G', '1'};

bool write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    RP_ERROR("heatmap: cannot open '%s' for writing", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) RP_ERROR("heatmap: short write to '%s'", path.c_str());
  return ok;
}

}  // namespace

GridStats grid_stats(const Grid2D<double>& g) {
  GridStats s;
  bool first = true;
  for (const double v : g.data()) {
    if (!std::isfinite(v)) {
      ++s.non_finite;
      continue;
    }
    if (first) {
      s.min = s.max = v;
      first = false;
    } else {
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    s.sum += v;
  }
  const std::size_t n = g.size() - static_cast<std::size_t>(s.non_finite);
  s.mean = n > 0 ? s.sum / static_cast<double>(n) : 0.0;
  return s;
}

std::string grid_to_bytes(const Grid2D<double>& g) {
  std::string out;
  out.resize(sizeof kMagic + 2 * sizeof(std::uint32_t) + g.size() * sizeof(double));
  char* p = out.data();
  std::memcpy(p, kMagic, sizeof kMagic);
  p += sizeof kMagic;
  const std::uint32_t nx = static_cast<std::uint32_t>(g.nx());
  const std::uint32_t ny = static_cast<std::uint32_t>(g.ny());
  std::memcpy(p, &nx, sizeof nx);
  p += sizeof nx;
  std::memcpy(p, &ny, sizeof ny);
  p += sizeof ny;
  if (!g.data().empty())
    std::memcpy(p, g.data().data(), g.size() * sizeof(double));
  return out;
}

bool grid_from_bytes(const std::string& bytes, Grid2D<double>& out) {
  const std::size_t header = sizeof kMagic + 2 * sizeof(std::uint32_t);
  if (bytes.size() < header) return false;
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) return false;
  std::uint32_t nx = 0, ny = 0;
  std::memcpy(&nx, bytes.data() + sizeof kMagic, sizeof nx);
  std::memcpy(&ny, bytes.data() + sizeof kMagic + sizeof nx, sizeof ny);
  // Both dims must fit Grid2D's int. The payload is checked by dividing it
  // down to a cell count, since nx*ny*8 can wrap size_t.
  constexpr auto kMaxDim = static_cast<std::uint32_t>(std::numeric_limits<int>::max());
  if (nx > kMaxDim || ny > kMaxDim) return false;
  const std::size_t cells = static_cast<std::size_t>(nx) * ny;
  const std::size_t payload = bytes.size() - header;
  if (payload % sizeof(double) != 0 || payload / sizeof(double) != cells) return false;
  out = Grid2D<double>(static_cast<int>(nx), static_cast<int>(ny));
  if (cells > 0)
    std::memcpy(out.data().data(), bytes.data() + header, cells * sizeof(double));
  return true;
}

bool write_grid_bin(const std::string& path, const Grid2D<double>& g) {
  return write_file(path, grid_to_bytes(g));
}

bool read_grid_bin(const std::string& path, Grid2D<double>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return grid_from_bytes(bytes, out);
}

}  // namespace rp
