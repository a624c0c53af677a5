/**
 * @file
 * Umbrella header: the public API of the cmpmem library.
 *
 * Quick start:
 *
 *   #include "cmpmem.hh"
 *   using namespace cmpmem;
 *
 *   SystemConfig cfg = makeConfig(8, MemModel::CC);
 *   RunResult r = runWorkload("fir", cfg);
 *   printf("exec %.3f ms, energy %s\n", r.stats.execSeconds() * 1e3,
 *          r.energy.format().c_str());
 *
 * Custom workloads subclass Workload (workloads/workload.hh) and
 * write their kernels as C++20 coroutines against Context
 * (core/context.hh).
 */

#ifndef CMPMEM_CMPMEM_HH
#define CMPMEM_CMPMEM_HH

#include "core/context.hh"
#include "core/core.hh"
#include "core/sync.hh"
#include "energy/energy_model.hh"
#include "harness/bench_compare.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "sim/clock.hh"
#include "sim/diagnosable.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/sim_error.hh"
#include "sim/task.hh"
#include "sim/types.hh"
#include "system/cmp_system.hh"
#include "system/config.hh"
#include "workloads/kernels_common.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

#endif // CMPMEM_CMPMEM_HH
