// A small fixed-size worker pool for sharded batch work.
//
// Collection at paper scale (7.9B addresses) is embarrassingly parallel
// once the per-device observation streams are order-independent, so the
// pool stays deliberately minimal: submit tasks, wait until every one has
// drained. No futures, no work stealing — shards are coarse (one per
// hardware thread) and balanced by construction, so a queue plus a
// condition variable is the whole scheduler.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace v6::util {

class ThreadPool {
 public:
  // `threads == 0` sizes the pool to the hardware concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Tasks must not throw (the pool terminates on an
  // escaped exception, like std::thread).
  void submit(std::function<void()> task);

  // Blocks until the queue is empty and every worker is idle. The pool is
  // reusable afterwards.
  void wait_idle();

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  // max(1, std::thread::hardware_concurrency()) — the default shard count.
  static unsigned hardware_threads() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;  // tasks currently executing
  bool stop_ = false;
};

// Partitions [0, items) into `shards` contiguous ranges (util::Part) and
// runs fn(shard_index, begin, end) for each — on the calling thread when
// `shards <= 1` (the exact serial path), otherwise on a transient
// ThreadPool of `shards` workers, returning once every shard finished.
// Ranges differ in size by at most one item.
void run_sharded(
    std::size_t items, unsigned shards,
    const std::function<void(unsigned, std::size_t, std::size_t)>& fn);

}  // namespace v6::util
