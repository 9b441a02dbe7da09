#pragma once
// Build/version provenance stamped into every run report, so a report
// identifies the binary that produced it (scripts/report_diff.py skips this
// block: two builds of the same source place identically). Values are
// injected by src/core/CMakeLists.txt at configure time; builds outside git
// fall back to "unknown".

#include <string>

namespace rp {

struct BuildInfo {
  std::string git_describe;  ///< `git describe --always --dirty --tags`.
  std::string compiler;      ///< e.g. "GNU 12.2.0".
  std::string build_type;    ///< CMAKE_BUILD_TYPE.
  std::string flags;         ///< Effective CXX flags for that build type.
  long cxx_standard = 0;     ///< __cplusplus of the build.
};

/// The process's immutable build stamp.
const BuildInfo& build_info();

}  // namespace rp
