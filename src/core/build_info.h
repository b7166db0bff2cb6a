// Build provenance for artifact self-description: version, git describe,
// build type, -march, compiler and the geometry profiles this binary
// knows. Version, git describe and profiles are printed by `espsim
// --version` and embedded in every run manifest; `macro_replay` also
// stamps the build settings into its JSON `run` object, so outputs can be
// traced back to the exact tree and build that produced them.
#pragma once

#include <string>

namespace esp::core {

/// Project version (CMake PROJECT_VERSION).
const char* build_version();

/// `git describe --always --dirty` at configure time; "unknown" when the
/// tree was built outside git.
const char* build_git_describe();

/// CMAKE_BUILD_TYPE of this build ("none" when unset).
const char* build_type();

/// The -march value the library was compiled with ("default" when none).
const char* build_march();

/// Compiler id and version, e.g. "GNU 13.2.0".
const char* build_compiler();

/// Comma-separated list of named geometry profiles compiled in.
const char* build_geometry_profiles();

/// One-line summary: "espnand <version> (<git>) geometries=<profiles>".
std::string build_info_line();

}  // namespace esp::core
