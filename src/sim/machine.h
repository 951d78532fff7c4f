#ifndef MJOIN_SIM_MACHINE_H_
#define MJOIN_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_params.h"
#include "sim/processor.h"
#include "sim/simulator.h"

namespace mjoin {

/// Counters describing one simulated query execution; the §3.5 barriers
/// (startup, coordination) are separately accounted so the overhead
/// decomposition benchmark can report them.
struct MachineCounters {
  uint64_t processes_started = 0;
  uint64_t streams_opened = 0;  // networked streams only
  uint64_t batches_sent = 0;
  uint64_t tuples_sent = 0;
  Ticks startup_ticks = 0;    // scheduler CPU spent initializing processes
  Ticks handshake_ticks = 0;  // worker CPU spent on stream handshakes
  uint64_t events = 0;  // simulator events processed (diagnostics)
};

/// The simulated shared-nothing multiprocessor: `num_workers` worker nodes
/// plus two service nodes — the query scheduler (id == num_workers), which
/// serially initializes operation processes and aggregates milestones, and
/// the stream broker (id == num_workers + 1), which serially sets up tuple
/// streams — mirroring PRISMA/DB's one-scheduler-many-operation-processes
/// engine and its stream naming service.
class SimMachine {
 public:
  SimMachine(uint32_t num_workers, const CostParams& costs);

  SimMachine(const SimMachine&) = delete;
  SimMachine& operator=(const SimMachine&) = delete;

  uint32_t num_workers() const { return num_workers_; }
  uint32_t scheduler_id() const { return num_workers_; }
  uint32_t broker_id() const { return num_workers_ + 1; }

  Simulator& sim() { return sim_; }
  const CostParams& costs() const { return costs_; }
  MachineCounters& counters() { return counters_; }
  const MachineCounters& counters() const { return counters_; }

  /// Worker node `id` (0..num_workers-1), or the scheduler node
  /// (id == scheduler_id()).
  SimProcessor& node(uint32_t id) { return *nodes_[id]; }

 private:
  uint32_t num_workers_;
  CostParams costs_;
  Simulator sim_;
  std::vector<std::unique_ptr<SimProcessor>> nodes_;
  MachineCounters counters_;
};

}  // namespace mjoin

#endif  // MJOIN_SIM_MACHINE_H_
