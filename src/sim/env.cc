#include "sim/env.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

namespace cronets::sim {

namespace {

void warn(const char* name, const char* value, const char* why) {
  std::fprintf(stderr, "cronets: ignoring %s=\"%s\" (%s); using the default\n",
               name, value, why);
}

/// True the first time a given (knob, reason) pair warns; later calls for
/// the same pair stay silent, so a knob read in a hot loop (per run, per
/// round) complains once instead of flooding stderr.
bool first_warning(const char* name, const char* why) {
  static std::mutex mu;
  static std::set<std::string> seen;
  std::lock_guard<std::mutex> lock(mu);
  return seen.insert(std::string(name) + '\0' + why).second;
}

/// True when `s` is non-empty and `end` consumed it entirely (trailing
/// whitespace allowed, so "8 " parses but "8x" does not).
bool fully_parsed(const char* s, const char* end) {
  if (end == s) return false;
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
    ++end;
  }
  return true;
}

}  // namespace

long env_int(const char* name, long def, long lo, long hi) {
  const char* s = std::getenv(name);
  if (s == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (!fully_parsed(s, end) || errno == ERANGE) {
    warn(name, s, "not an integer");
    return def;
  }
  if (v < lo || v > hi) {
    std::fprintf(stderr,
                 "cronets: ignoring %s=%ld (outside [%ld, %ld]); using the "
                 "default\n",
                 name, v, lo, hi);
    return def;
  }
  return v;
}

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* s = std::getenv(name);
  if (s == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  // Reject the sign strtoull would silently wrap.
  const char* digits = s;
  while (std::isspace(static_cast<unsigned char>(*digits))) ++digits;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!fully_parsed(s, end) || errno == ERANGE || *digits == '-') {
    warn(name, s, "not an unsigned integer");
    return def;
  }
  return static_cast<std::uint64_t>(v);
}

double env_double(const char* name, double def, double lo, double hi) {
  const char* s = std::getenv(name);
  if (s == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (!fully_parsed(s, end) || errno == ERANGE) {
    warn(name, s, "not a number");
    return def;
  }
  if (!(v >= lo && v <= hi)) {  // also rejects NaN
    std::fprintf(stderr,
                 "cronets: ignoring %s=%g (outside [%g, %g]); using the "
                 "default\n",
                 name, v, lo, hi);
    return def;
  }
  return v;
}

double env_double_clamped(const char* name, double def, double lo, double hi) {
  const char* s = std::getenv(name);
  if (s == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (!fully_parsed(s, end) || errno == ERANGE || v != v) {
    if (first_warning(name, "not a number")) warn(name, s, "not a number");
    return def;
  }
  if (v < lo || v > hi) {
    const double clamped = v < lo ? lo : hi;
    if (first_warning(name, "clamped")) {
      std::fprintf(stderr, "cronets: clamping %s=%g into [%g, %g] -> %g\n",
                   name, v, lo, hi, clamped);
    }
    return clamped;
  }
  return v;
}

int env_choice(const char* name, int def,
               std::initializer_list<const char*> choices) {
  const char* s = std::getenv(name);
  if (s == nullptr) return def;
  int i = 0;
  for (const char* c : choices) {
    if (std::strcmp(s, c) == 0) return i;
    ++i;
  }
  if (first_warning(name, "bad choice")) {
    std::fprintf(stderr, "cronets: ignoring %s=\"%s\" (expected one of:", name,
                 s);
    for (const char* c : choices) std::fprintf(stderr, " %s", c);
    std::fprintf(stderr, "); using the default\n");
  }
  return def;
}

bool env_flag(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return false;
  return std::strcmp(s, "0") != 0 && std::strcmp(s, "false") != 0 &&
         std::strcmp(s, "off") != 0;
}

}  // namespace cronets::sim
