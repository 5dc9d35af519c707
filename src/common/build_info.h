// Build provenance: the compile-time facts stamped into every
// BENCH_*.json (so tools/benchdiff can label the runs it compares) and
// into the statusz build section. The values reach build_info.cpp only:
// the git sha through a header every build regenerates (and rewrites
// only when the text changes), the build type and flags through
// per-file compile definitions. A new commit recompiles one
// translation unit, not the tree.
#pragma once

#include <string>

namespace shflbw {

struct BuildInfo {
  std::string git_sha;     ///< `git describe --always --dirty --abbrev=7`
                           ///< at build time ("-dirty": uncommitted
                           ///< changes), or "unknown" outside a checkout.
  std::string compiler;    ///< __VERSION__ of the compiler that built this.
  std::string build_type;  ///< CMAKE_BUILD_TYPE ("" for multi-config).
  std::string cxx_flags;   ///< CMAKE_CXX_FLAGS as configured.
  long cxx_standard = 0;   ///< __cplusplus of the build.
};

/// The process's build info; constructed once, immutable after.
const BuildInfo& GetBuildInfo();

}  // namespace shflbw
