#ifndef PSENS_COMMON_PARALLEL_FOR_H_
#define PSENS_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace psens {

/// Resolves a `parallelism` config knob: values >= 1 are taken as-is,
/// anything else (0 or negative = "auto") becomes the hardware
/// concurrency, never less than 1.
inline int ResolveParallelism(int requested) {
  if (requested >= 1) return requested;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Fork-join loop over independent work items (experiment slots, bench
/// sweep points): runs body(0) ... body(n - 1) on
/// min(ResolveParallelism(threads), n) threads, the caller's included,
/// each claiming the next index from one shared counter, and joins them
/// before it returns. On one thread every body(i) runs inline on the
/// caller in ascending index order.
///
/// Determinism contract: ParallelFor never reorders *results* — callers
/// index results by item (e.g. `outcomes[slot]`) and reduce them in item
/// order after it returns, so any thread count produces bit-identical
/// output. Each body(i) must write only state owned by item i. An
/// exception thrown by a body stops further claims and is rethrown on the
/// caller once every thread has joined.
template <typename Body>
void ParallelFor(int n, int threads, const Body& body) {
  const int workers = std::min(ResolveParallelism(threads), n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors(workers);
  const auto drain = [&](int worker) {
    try {
      for (int i = next++; i < n; i = next++) body(i);
    } catch (...) {
      errors[worker] = std::current_exception();
      next = n;
    }
  };
  {
    std::vector<std::jthread> helpers;  // each joins as it is destroyed
    helpers.reserve(workers - 1);
    for (int w = 1; w < workers; ++w) helpers.emplace_back(drain, w);
    drain(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace psens

#endif  // PSENS_COMMON_PARALLEL_FOR_H_
