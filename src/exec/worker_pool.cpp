#include "exec/worker_pool.h"

#include "common/thread_flags.h"

namespace rb::exec {
namespace {

// Polls before a waiting thread parks, yielding every 64. Sized on
// bench_exec_scaling (EXPERIMENTS.md, conductor scaling): long enough that
// a worker usually catches the next slot without a condvar wake-up.
constexpr int kSpinPolls = 65536;

template <typename Pred>
bool spin_until(Pred done) {
  for (int i = 0; i < kSpinPolls; ++i) {
    if (done()) return true;
    if ((i & 63) == 63) std::this_thread::yield();
  }
  return done();
}

}  // namespace

WorkerPool::WorkerPool(int n_workers) : n_(n_workers < 1 ? 1 : n_workers) {
  // The caller of run() is worker 0; the others get a thread each.
  threads_.reserve(std::size_t(n_ - 1));
  for (int w = 1; w < n_; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::run(std::span<const Job> jobs) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_ = jobs;
    busy_.store(n_ - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  run_pinned(jobs, 0);
  // Acquire pairs with every worker's release check-in: all job writes
  // happen-before the return.
  const auto all_done = [this] {
    return busy_.load(std::memory_order_acquire) == 0;
  };
  if (spin_until(all_done)) return;
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, all_done);
}

void WorkerPool::worker_main(int w) {
  rb::mark_exec_worker_thread();
  std::uint64_t seen = 0;
  const auto published = [&] {
    return epoch_.load(std::memory_order_acquire) != seen;
  };
  while (true) {
    if (!spin_until(published)) {
      std::unique_lock<std::mutex> lk(mu_);
      wake_cv_.wait(lk, published);
    }
    ++seen;  // run() bumps again only after every worker checked in
    if (stop_) return;
    run_pinned(jobs_, w);
    std::lock_guard<std::mutex> lk(mu_);
    if (busy_.fetch_sub(1, std::memory_order_release) == 1)
      done_cv_.notify_one();
  }
}

void WorkerPool::run_pinned(std::span<const Job> jobs, int w) const {
  for (const Job& j : jobs) {
    const int pin = j.worker < 0 || j.worker >= n_ ? 0 : j.worker;
    if (pin == w) j.fn(j.arg, w);
  }
}

}  // namespace rb::exec
