// Flat field extraction from one line of a sidecar stream (journal, health,
// forensics). The writers emit each line as a single flat object with a
// known key order and no escaped strings, so a `"key":` substring search
// finds a field exactly. Shared by espreport and esphealth.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

namespace esp::tools {

inline bool find_raw(const std::string& line, const char* key,
                     std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t start = pos + needle.size();
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(start, end - start);
  return true;
}

inline bool find_str(const std::string& line, const char* key,
                     std::string* out) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return false;
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') return false;
  *out = raw.substr(1, raw.size() - 2);
  return true;
}

inline bool find_u64(const std::string& line, const char* key,
                     std::uint64_t* out) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return false;
  *out = std::strtoull(raw.c_str(), nullptr, 10);
  return true;
}

inline bool find_double(const std::string& line, const char* key,
                        double* out) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return false;
  *out = std::strtod(raw.c_str(), nullptr);
  return true;
}

}  // namespace esp::tools
