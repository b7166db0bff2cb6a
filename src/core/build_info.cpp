#include "core/build_info.h"

#include "core/version_info.h"

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

}  // namespace esp::core
