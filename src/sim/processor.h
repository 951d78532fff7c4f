#ifndef MJOIN_SIM_PROCESSOR_H_
#define MJOIN_SIM_PROCESSOR_H_

#include <deque>
#include <functional>
#include <vector>

#include "sim/cost_params.h"
#include "sim/simulator.h"

namespace mjoin {

/// Actions to perform when a task's simulated execution completes (e.g.
/// deliver the batches the task produced to the network).
struct DeferredAction {
  Ticks extra_delay = 0;
  std::function<void()> fn;
};

/// What a task did: how much CPU it consumed and what should happen at its
/// completion time.
struct TaskResult {
  Ticks cost = 0;
  std::vector<DeferredAction> after;
};

/// A simulated shared-nothing node. The node executes submitted tasks
/// strictly sequentially (one CPU). A task's body runs when the task is
/// dequeued; it performs the real computation (e.g. probing a real hash
/// table), returns the simulated CPU cost, and may defer side effects
/// (message deliveries) to its completion time.
class SimProcessor {
 public:
  SimProcessor(uint32_t id, Simulator* sim) : id_(id), sim_(sim) {}

  SimProcessor(const SimProcessor&) = delete;
  SimProcessor& operator=(const SimProcessor&) = delete;
  SimProcessor(SimProcessor&&) = default;

  uint32_t id() const { return id_; }

  /// Enqueues a task. Tasks run in submission order.
  void Submit(std::function<TaskResult()> body);

 private:
  void StartNext();

  uint32_t id_;
  Simulator* sim_;
  std::deque<std::function<TaskResult()>> queue_;
  bool running_ = false;
};

}  // namespace mjoin

#endif  // MJOIN_SIM_PROCESSOR_H_
