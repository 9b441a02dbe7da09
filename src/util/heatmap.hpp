#pragma once
// Spatial-map serialization for the snapshot subsystem.
//
// A snapshot map is one compact binary grid file ("RPG1": magic, uint32
// nx/ny, float64 row-major payload) — the byte-exact form the determinism
// tests and scripts/report_diff.py compare, and the one
// scripts/render_report.py turns into images.
//
// The writer is deterministic: same grid in, same bytes out. The format
// stores doubles in host byte order (the toolchain targets little-endian;
// the reader asserts the magic so a foreign-endian file is rejected rather
// than misread).

#include <string>

#include "util/grid.hpp"

namespace rp {

/// Summary statistics over the finite values of a grid.
struct GridStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double sum = 0.0;
  int non_finite = 0;  ///< Count of NaN/Inf cells (excluded from min/max/mean).
};

GridStats grid_stats(const Grid2D<double>& g);

// ---- binary grid files ----

/// Serialize to the "RPG1" binary layout.
std::string grid_to_bytes(const Grid2D<double>& g);
/// Parse grid_to_bytes() output; returns false on bad magic/size, or on dims
/// an int cannot hold.
bool grid_from_bytes(const std::string& bytes, Grid2D<double>& out);

bool write_grid_bin(const std::string& path, const Grid2D<double>& g);
bool read_grid_bin(const std::string& path, Grid2D<double>& out);

}  // namespace rp
