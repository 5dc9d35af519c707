// Shared helpers for the bench binaries: section banners and the
// provenance block every BENCH_*.json carries.
#pragma once

#include <cstdio>
#include <string>

#include "common/build_info.h"
#include "common/thread_pool.h"
#include "kernels/spmm_vector_wise.h"
#include "obs/json_escape.h"

namespace shflbw::bench {

inline void Title(const std::string& t) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", t.c_str());
  std::printf("================================================================\n");
}

inline void Section(const std::string& t) {
  std::printf("\n--- %s ---\n", t.c_str());
}

/// Emits the `"provenance": {...},` member every BENCH_*.json carries
/// (called right after the opening `{ "bench": ... }` line): build sha,
/// compiler, flags, the VW-family kernel tier this host runs and the
/// resolved thread count, so tools/benchdiff can label the two runs it
/// compares and a regression report says what built each side. Keys
/// under provenance never gate (benchdiff's default rules ignore them),
/// but benchdiff refuses to compare runs whose threads or build_type
/// differ.
inline void WriteProvenance(std::FILE* f) {
  const BuildInfo& bi = GetBuildInfo();
  std::fprintf(f, "  \"provenance\": {\n");
  std::fprintf(f, "    \"git_sha\": \"%s\",\n",
               obs::JsonEscape(bi.git_sha).c_str());
  std::fprintf(f, "    \"compiler\": \"%s\",\n",
               obs::JsonEscape(bi.compiler).c_str());
  std::fprintf(f, "    \"build_type\": \"%s\",\n",
               obs::JsonEscape(bi.build_type).c_str());
  std::fprintf(f, "    \"cxx_flags\": \"%s\",\n",
               obs::JsonEscape(bi.cxx_flags).c_str());
  std::fprintf(f, "    \"cxx_standard\": %ld,\n", bi.cxx_standard);
  std::fprintf(f, "    \"kernel_tier\": \"%s\",\n",
               KernelTierName(ActiveKernelTier()));
  std::fprintf(f, "    \"threads\": %d\n", ParallelThreadCount());
  std::fprintf(f, "  },\n");
}

}  // namespace shflbw::bench
