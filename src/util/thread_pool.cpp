#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace odtn::util {

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
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
        fn(i);
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
  if (error) std::rethrow_exception(error);
}

}  // namespace odtn::util
