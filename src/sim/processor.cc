#include "sim/processor.h"

namespace mjoin {

void SimProcessor::Submit(std::function<TaskResult()> body) {
  queue_.push_back(std::move(body));
  if (!running_) {
    running_ = true;
    // Start asynchronously so that submission never re-enters task bodies.
    sim_->Schedule(0, [this] { StartNext(); });
  }
}

void SimProcessor::StartNext() {
  if (queue_.empty()) {
    running_ = false;
    return;
  }
  std::function<TaskResult()> body = std::move(queue_.front());
  queue_.pop_front();

  TaskResult result = body();
  MJOIN_DCHECK(result.cost >= 0);

  // At completion: release the task's side effects, then run the next task.
  sim_->Schedule(result.cost,
                 [this, after = std::move(result.after)]() mutable {
                   for (DeferredAction& action : after) {
                     if (action.extra_delay == 0) {
                       action.fn();
                     } else {
                       sim_->Schedule(action.extra_delay, std::move(action.fn));
                     }
                   }
                   StartNext();
                 });
}

}  // namespace mjoin
