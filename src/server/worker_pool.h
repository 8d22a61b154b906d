// A persistent worker pool with one shared FIFO work queue: the
// reasoning daemon submits client-request handlers with Submit()
// (fire-and-forget; completion is tracked by the caller). Concurrent
// requests are the daemon's only source of parallelism — each proof
// search runs sequentially on the worker that serves its request.

#ifndef VADALOG_SERVER_WORKER_POOL_H_
#define VADALOG_SERVER_WORKER_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace vadalog {

namespace obs {
class Gauge;
}  // namespace obs

class WorkerPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit WorkerPool(size_t num_threads);

  /// Drains and joins (Shutdown).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task. The pool never rejects work; backpressure is the
  /// caller's job (the server's admission control). Must not be called
  /// after Shutdown().
  void Submit(std::function<void()> task);

  /// Stops accepting work, runs what is already queued, joins all
  /// threads. Idempotent; called by the destructor.
  void Shutdown();

  /// Observability: when set, the gauge tracks queue_.size() — updated
  /// under the queue lock on every push/pop, so the cost is one relaxed
  /// store on paths that already hold the mutex. Set once at startup,
  /// before any Submit. Takes the queue lock: the workers are already
  /// running by the time the server wires the gauge, so publishing the
  /// pointer needs the same lock its readers hold.
  void set_queue_depth_gauge(obs::Gauge* gauge) EXCLUDES(mutex_) {
    base::MutexLock lock(&mutex_);
    queue_depth_ = gauge;
  }

 private:
  void WorkerLoop();

  base::Mutex mutex_;
  base::CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  /// Mutated only by the constructor (before any concurrency exists) and
  /// Shutdown (which the caller must not race with num_threads()).
  std::vector<std::thread> threads_;
  bool stop_ GUARDED_BY(mutex_) = false;
  obs::Gauge* queue_depth_ GUARDED_BY(mutex_) = nullptr;
};

}  // namespace vadalog

#endif  // VADALOG_SERVER_WORKER_POOL_H_
