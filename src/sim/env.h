#pragma once

#include <cstdint>
#include <initializer_list>

namespace cronets::sim {

/// Centralized CRONETS_* environment-knob parsing. Every helper parses the
/// variable strictly (the whole value must be a number of the right type,
/// in [lo, hi]); a set-but-garbage or out-of-range value prints one warning
/// to stderr and falls back to `def` instead of being silently ignored —
/// a mistyped knob on a long bench run should be loud, not invisible.
///
/// Helpers read the environment on every call: cache the result at the
/// call site (`static const int n = env_int(...)`) when the knob guards a
/// hot path.

/// Integer knob in [lo, hi]; `def` when unset or rejected.
long env_int(const char* name, long def, long lo, long hi);

/// Unsigned 64-bit knob (seeds); `def` when unset or rejected.
std::uint64_t env_u64(const char* name, std::uint64_t def);

/// Floating-point knob in [lo, hi]; `def` when unset or rejected.
double env_double(const char* name, double def, double lo, double hi);

/// Floating-point knob clamped into [lo, hi]: an out-of-range value is
/// pulled to the nearest bound (one-shot stderr warning) instead of being
/// replaced by the default — "CRONETS_PARETO_ALPHA=2" means "all goodput",
/// not "whatever the default is". Garbage (and NaN) still falls back to
/// `def` with a one-shot warning. Use for knobs where the valid range is a
/// mechanical limit rather than a semantic choice.
double env_double_clamped(const char* name, double def, double lo, double hi);

/// Boolean knob: unset, "0", "false", "off", or "" are false; any other
/// value (including "1", "true", "on") is true.
bool env_flag(const char* name);

/// Choice knob: returns the index of the value in `choices` (exact,
/// case-sensitive match); `def` when unset or — with a one-shot warning
/// listing the accepted values — when the value matches none of them.
int env_choice(const char* name, int def,
               std::initializer_list<const char*> choices);

}  // namespace cronets::sim
