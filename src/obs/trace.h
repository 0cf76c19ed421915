// Low-overhead tracing substrate: fixed-size trace events and the
// per-thread buffer they travel through.
//
// Every instrumentation point in the stack (slot engine, middlebox
// runtime, ports, fault layer, apps) emits 32-byte POD events stamped
// with *virtual* nanoseconds — the simulation's modeled time, not wall
// time. Because modeled time is deterministic, a serial and a parallel
// city conductor running the same seed emit the same event multiset;
// the collector merges the per-thread buffers at the slot
// barrier with a total order, so the two runs produce equivalent traces
// (asserted by tests/test_obs.cpp).
//
// A buffer is plain memory: its owning thread appends during a slot, and
// the collector drains it only at the slot barrier, after the conductor's
// WorkerPool::run() has returned. The pool's fork-join is the
// happens-before edge between the two, so no atomics are needed. A full
// buffer drops the event and counts it instead of stalling the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rb::obs {

/// Span taxonomy. Categories drive budget attribution and export
/// grouping; fine-grained identity lives in the interned `name` field.
enum class Cat : std::uint8_t {
  Slot,     // one engine slot (dur = numerology slot duration)
  Symbol,   // one OFDM symbol within a slot
  Packet,   // one middlebox handler invocation (dur = modeled cost)
  Parse,    // instant: fronthaul parse outcome (arg = ParseError on reject)
  Action,   // one A1-A4 action inside a handler
  Combine,  // app-declared phase (DAS combine, RU-share mux, ...)
  Tx,       // instant: packet handed to a driver for transmission
  Link,     // one wire traversal (dur = link latency)
  Fault,    // instant: fault-layer perturbation (loss/delay/corrupt/...)
};

const char* cat_name(Cat c);

/// One trace record. 32 bytes, trivially copyable.
struct TraceEvent {
  std::int64_t ts_ns = 0;    // virtual start time
  std::uint64_t arg = 0;     // event-specific payload (bytes, reason, ...)
  std::uint32_t dur_ns = 0;  // span length (0 for instants)
  std::uint16_t name = 0;    // interned name id (obs::FixedName or dynamic)
  std::uint16_t track = 0;   // interned track id (runtime, port, link dir)
  Cat cat = Cat::Slot;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};
static_assert(sizeof(TraceEvent) <= 32, "keep the hot-path record small");

/// Deterministic total order for the barrier merge: virtual time first,
/// then stable structural tie-breaks, so identical event multisets sort
/// to identical sequences regardless of which thread's buffer they sat in.
inline bool event_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
  if (a.cat != b.cat) return a.cat < b.cat;
  if (a.track != b.track) return a.track < b.track;
  if (a.name != b.name) return a.name < b.name;
  if (a.dur_ns != b.dur_ns) return a.dur_ns < b.dur_ns;
  return a.arg < b.arg;
}

/// Events one thread may buffer between two slot barriers; past it,
/// events are dropped and counted.
inline constexpr std::size_t kTraceBufferCap = 1 << 15;

/// Bounded per-thread trace buffer. The owning thread pushes; the
/// collector drains it at the slot barrier, never concurrently with a
/// push.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = kTraceBufferCap)
      : cap_(capacity) {}

  std::size_t capacity() const { return cap_; }

  /// Owning thread. Full buffer: drop + count, never block.
  void push(const TraceEvent& e) {
    if (events_.size() == cap_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  /// Barrier only: move everything buffered into `out`, oldest first.
  void drain(std::vector<TraceEvent>& out) {
    out.insert(out.end(), events_.begin(), events_.end());
    events_.clear();
  }

  /// Events dropped to overflow since construction.
  std::uint64_t dropped() const { return dropped_; }

 private:
  const std::size_t cap_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace rb::obs
