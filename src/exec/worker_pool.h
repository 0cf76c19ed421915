// Persistent static fork-join pool: the city conductor's workers.
//
// One coordinator thread hands the pool a batch of jobs, each pinned to a
// worker (the city conductor pins cell i to worker i % n every slot, so a
// cell's packets never migrate between threads). The coordinator itself is
// worker 0; workers 1..n-1 are persistent threads. run() publishes the
// batch and bumps an epoch; each worker runs the jobs pinned to it, in
// batch order, then checks in. run() returns only after every job body
// has finished, and that return is the one happens-before edge
// cross-thread data relies on: whatever a job wrote with plain stores (its
// cell's xlink buffer, its thread's trace buffer) is visible to the
// coordinator once run() returns, and whatever the coordinator wrote
// before run() is visible to every job. Between batches workers spin for a
// while on the epoch, then park on a condvar.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace rb::exec {

class WorkerPool {
 public:
  struct Job {
    void (*fn)(void* arg, int worker) = nullptr;
    void* arg = nullptr;
    int worker = 0;  // target worker in [0, size())
  };

  explicit WorkerPool(int n_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return n_; }

  /// Execute a batch and block until every job finished. Coordinator
  /// thread only; it runs worker 0's jobs itself, so a 1-worker pool runs
  /// the whole batch inline, in order. Jobs with out-of-range `worker` are
  /// clamped to worker 0.
  void run(std::span<const Job> jobs);

 private:
  void worker_main(int w);
  void run_pinned(std::span<const Job> jobs, int w) const;

  const int n_;
  // Every write to the four fields below happens under mu_; a spinning
  // thread may read epoch_ and busy_ without it.
  std::mutex mu_;
  std::span<const Job> jobs_;  // the published batch
  bool stop_ = false;          // published with the final epoch bump
  std::atomic<std::uint64_t> epoch_{0};  // bumped once per batch
  std::atomic<int> busy_{0};  // threads still running the current batch
  std::condition_variable wake_cv_;  // parked workers wait for an epoch
  std::condition_variable done_cv_;  // the coordinator waits for busy_ == 0
  std::vector<std::thread> threads_;
};

}  // namespace rb::exec
