#pragma once
/// \file cli_flags.hpp
/// The `--key=value` / `--flag` argument parsing every command-line tool
/// and bench harness shares. Lookups scan argv on each call (argument lists
/// are tiny); an absent or empty value yields the fallback.

#include <cstdlib>
#include <cstring>
#include <string>

namespace fastqaoa::cli {

/// Value of a "--key=value" option, or fallback when absent.
inline std::string string_option(int argc, char** argv, const char* key,
                                 const std::string& fallback) {
  const std::size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return fallback;
}

/// True when a "--key=value" option is present (even with an empty value).
inline bool has_option(int argc, char** argv, const char* key) {
  const std::size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return true;
    }
  }
  return false;
}

/// Integer "--key=value" option (strtoll, base 10), or fallback.
inline long long int_option(int argc, char** argv, const char* key,
                            long long fallback) {
  const std::string v = string_option(argc, argv, key, "");
  return v.empty() ? fallback : std::strtoll(v.c_str(), nullptr, 10);
}

/// Floating-point "--key=value" option (strtod), or fallback.
inline double double_option(int argc, char** argv, const char* key,
                            double fallback) {
  const std::string v = string_option(argc, argv, key, "");
  return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
}

/// True when the bare flag (e.g. "--full") appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace fastqaoa::cli
