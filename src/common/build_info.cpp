#include "common/build_info.h"

// CMake regenerates shflbw_git_sha.h on every build (cmake/GitSha.cmake)
// and stamps the other two onto this file alone (the
// set_source_files_properties block in CMakeLists.txt); the fallbacks
// keep the file buildable outside CMake (IDE indexers, tooling).
#if __has_include("shflbw_git_sha.h")
#include "shflbw_git_sha.h"
#endif
#ifndef SHFLBW_GIT_SHA
#define SHFLBW_GIT_SHA "unknown"
#endif
#ifndef SHFLBW_BUILD_TYPE
#define SHFLBW_BUILD_TYPE ""
#endif
#ifndef SHFLBW_CXX_FLAGS
#define SHFLBW_CXX_FLAGS ""
#endif

namespace shflbw {

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_sha = SHFLBW_GIT_SHA;
    b.compiler = __VERSION__;
    b.build_type = SHFLBW_BUILD_TYPE;
    b.cxx_flags = SHFLBW_CXX_FLAGS;
    b.cxx_standard = __cplusplus;
    return b;
  }();
  return info;
}

}  // namespace shflbw
