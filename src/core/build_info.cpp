#include "core/build_info.h"

#include <cstdint>
#include <thread>

#include "core/version_info.h"
#include "telemetry/json.h"

namespace esp::core {

const char* build_version() { return ESPNAND_VERSION; }

const char* build_git_describe() { return ESPNAND_GIT_DESCRIBE; }

const char* build_type() { return ESPNAND_BUILD_TYPE; }

const char* build_march() { return ESPNAND_BUILD_MARCH; }

const char* build_compiler() { return ESPNAND_BUILD_COMPILER; }

const char* build_geometry_profiles() {
  // Keep in sync with nand::geometry_profile() -- there is no registry to
  // enumerate, and the tests pin this list against the profiles compiling.
  return "paper,prod";
}

std::string build_info_line() {
  std::string line = "espnand ";
  line += build_version();
  line += " (";
  line += build_git_describe();
  line += ") geometries=";
  line += build_geometry_profiles();
  return line;
}

void write_build_provenance(telemetry::JsonWriter& w) {
  w.kv("build_type", build_type());
  w.kv("build_march", build_march());
  w.kv("build_compiler", build_compiler());
  w.kv("host_cores",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

}  // namespace esp::core
