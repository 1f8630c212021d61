// Fan-out for embarrassingly parallel workloads.
//
// The experiment engine shards independent realizations across workers
// (core/experiment.cpp): `parallel_for` runs `fn(i)` for i in [0, n) on
// `threads` workers with dynamic (atomic-counter) scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace odtn::util {

/// Runs `fn(i)` for every i in [0, n), fanned out over up to `threads`
/// workers (`0` = every hardware thread). Indices are handed out
/// dynamically, so the mapping of index to worker is unspecified — bodies
/// must be independent. Runs inline on the calling thread when a single
/// worker suffices; otherwise the calling thread works alongside
/// `threads - 1` plain std::threads, joined before return. The first
/// exception thrown by any body is rethrown here after all workers drain.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace odtn::util
