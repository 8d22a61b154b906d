#include "server/worker_pool.h"

#include "base/mutex.h"
#include "obs/metrics.h"

namespace vadalog {

WorkerPool::WorkerPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      base::MutexLock lock(&mutex_);
      while (!stop_ && queue_.empty()) cv_.Wait(mutex_);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_ != nullptr) {
        queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    task();
  }
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    base::MutexLock lock(&mutex_);
    queue_.push_back(std::move(task));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  cv_.NotifyOne();
}

void WorkerPool::Shutdown() {
  {
    base::MutexLock lock(&mutex_);
    if (stop_ && threads_.empty()) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace vadalog
