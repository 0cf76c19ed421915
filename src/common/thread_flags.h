// Thread-role flags used to debug-assert threading contracts.
//
// The exec worker pool marks its threads at startup; code that must only
// run on the thread owning a cell (e.g. Telemetry::publish/subscribe)
// asserts !on_exec_worker_thread(). A city conductor's cell job owns its
// cell, see ShardCoordinatorScope. Ownership changes threads only at the
// slot barrier: WorkerPool::run() hands each cell to its pinned worker and
// returns after every cell job finished, so from then until the next
// run() the conductor owns every cell.
#pragma once

namespace rb {

namespace detail {
inline thread_local bool t_exec_worker = false;
inline thread_local int t_shard_coordinator = 0;
}  // namespace detail

/// True on threads owned by exec::WorkerPool, false on the coordinator
/// (and any other) thread; the coordinator runs worker 0's jobs itself.
/// A pool worker acting as the coordinator of a nested engine (city mode:
/// each cell's SlotEngine runs inside an outer worker-pool job) is NOT an
/// exec worker for contract purposes — it owns that cell's entire state
/// for the duration of the shard job.
inline bool on_exec_worker_thread() {
  return detail::t_exec_worker && detail::t_shard_coordinator == 0;
}

/// Called once by each pool worker as it starts. Not for general use.
inline void mark_exec_worker_thread() { detail::t_exec_worker = true; }

/// RAII: marks the current thread as the coordinator of a nested
/// (per-cell) engine while in scope. The city conductor wraps each cell
/// shard job in this so coordinator-only contracts (Telemetry
/// publish/subscribe) hold for the cell-local state the worker owns.
class ShardCoordinatorScope {
 public:
  ShardCoordinatorScope() { ++detail::t_shard_coordinator; }
  ~ShardCoordinatorScope() { --detail::t_shard_coordinator; }
  ShardCoordinatorScope(const ShardCoordinatorScope&) = delete;
  ShardCoordinatorScope& operator=(const ShardCoordinatorScope&) = delete;
};

}  // namespace rb
