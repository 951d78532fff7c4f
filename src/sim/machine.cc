#include "sim/machine.h"

namespace mjoin {

SimMachine::SimMachine(uint32_t num_workers, const CostParams& costs)
    : num_workers_(num_workers), costs_(costs) {
  nodes_.reserve(num_workers + 2);
  for (uint32_t id = 0; id <= num_workers + 1; ++id) {
    nodes_.push_back(std::make_unique<SimProcessor>(id, &sim_));
  }
}

}  // namespace mjoin
