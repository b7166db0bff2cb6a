// Build provenance for artifact self-description: version, git describe,
// build type, -march, compiler and the geometry profiles this binary
// knows. Version, git describe and profiles are printed by `espsim
// --version` and embedded in every run manifest; write_build_provenance
// stamps the build settings and host core count into every run manifest
// and bench `run` object, so outputs can be traced back to the exact tree,
// build and machine that produced them.
#pragma once

#include <string>

namespace esp::telemetry {
class JsonWriter;
}  // namespace esp::telemetry

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

/// Writes build_type, build_march, build_compiler and host_cores as keys
/// of the JSON object `w` is inside. For non-deterministic provenance
/// objects only: the host core count differs from machine to machine.
void write_build_provenance(telemetry::JsonWriter& w);

}  // namespace esp::core
