# Writes the build's git sha into a header, run as a script on every
# build (the shflbw_git_sha target in CMakeLists.txt):
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P cmake/GitSha.cmake
#
# `--dirty` marks a tree with uncommitted changes; outside a git
# checkout the sha reads "unknown". The header is rewritten only when
# its text changes, so a build at an unchanged commit recompiles
# nothing and a new commit recompiles build_info.cpp alone.
execute_process(COMMAND git describe --always --dirty --abbrev=7
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE sha
                OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()

set(text "#define SHFLBW_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE ${OUTPUT} "${text}")
endif()
