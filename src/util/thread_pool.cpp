#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace odtn::util {

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn,
                  metrics::Registry* pool_metrics) {
  if (n == 0) return;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);

  // Per-task wall latency, written into fixed slots so aggregation needs no
  // synchronization. Only sampled when the caller asked for pool metrics.
  std::vector<double> task_seconds;
  if (pool_metrics != nullptr) task_seconds.assign(n, 0.0);
  auto run_task = [&](std::size_t i) {
    if (pool_metrics == nullptr) {
      fn(i);
      return;
    }
    // odtn-lint: allow(banned-api) — kWall timer site: per-task wall times
    // feed only Stability::kWall pool metrics, excluded from deterministic
    // export.
    auto t0 = std::chrono::steady_clock::now();
    fn(i);
    // odtn-lint: allow(banned-api) — kWall timer site (same stopwatch).
    const auto t1 = std::chrono::steady_clock::now();
    task_seconds[i] = std::chrono::duration<double>(t1 - t0).count();
  };

  auto export_pool_metrics = [&](std::size_t workers) {
    if (pool_metrics == nullptr) return;
    metrics::counter(pool_metrics, "pool.tasks", metrics::Stability::kWall)
        .inc(n);
    metrics::gauge(pool_metrics, "pool.workers", metrics::Stability::kWall)
        .set(static_cast<double>(workers));
    auto latency = metrics::timer(pool_metrics, "pool.task_seconds");
    for (double s : task_seconds) latency.observe(s);
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_task(i);
    export_pool_metrics(1);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::once_flag error_once;
  auto drain = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        run_task(i);
      } catch (...) {
        std::call_once(error_once, [&] { error = std::current_exception(); });
      }
    }
  };

  std::vector<std::thread> workers;  // the calling thread is the extra one
  workers.reserve(threads - 1);
  try {
    for (std::size_t t = 0; t + 1 < threads; ++t) workers.emplace_back(drain);
  } catch (...) {
    // A thread failed to start: the started ones and the calling thread
    // still drain every index (so every started thread is joined), then
    // the failure is rethrown.
    std::call_once(error_once, [&] { error = std::current_exception(); });
  }
  drain();
  for (std::thread& w : workers) w.join();
  export_pool_metrics(threads);
  if (error) std::rethrow_exception(error);
}

}  // namespace odtn::util
