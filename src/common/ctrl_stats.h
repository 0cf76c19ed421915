// Process-wide adaptation-controller stats: decision counts, actuation
// counts and decision-latency watermarks.
//
// Lives in common/ (header-only, atomics) for the same layering reason as
// iq_stats.h: the ctrl layer writes, while rb_obs (which links only
// rb_common) renders the values as Prometheus gauges. Every controller
// adds deltas, so each value is a commutative sum: counters over every
// controller the process ran, link gauges over the live ones (a
// controller withdraws its share when destroyed). Wall-clock decision
// latency is observability-only - it never feeds back into control
// decisions, which stay purely virtual-time driven for determinism.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/iq_stats.h"

namespace rb::ctrlstats {

/// Controller slot ticks (one per begin-slot hook invocation).
inline std::atomic<std::uint64_t>& decisions_total() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

/// Actuations issued (CtrlActions applied to a knob).
inline std::atomic<std::uint64_t>& actions_total() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

/// Links currently under controller supervision.
inline std::atomic<std::uint64_t>& links_watched() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

/// Links currently running a reduced BFP width.
inline std::atomic<std::uint64_t>& links_degraded() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

/// Links currently ejected from their combining/distribution set.
inline std::atomic<std::uint64_t>& links_ejected() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

/// Wall-clock nanoseconds of the most recent decision pass.
inline std::atomic<std::uint64_t>& decision_ns_last() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

/// Wall-clock high-water mark across all decision passes.
inline std::atomic<std::uint64_t>& decision_ns_hwm() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

/// Wall-clock sum across all decision passes (mean = sum / decisions).
inline std::atomic<std::uint64_t>& decision_ns_sum() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}

}  // namespace rb::ctrlstats
