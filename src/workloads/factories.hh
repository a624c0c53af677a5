/**
 * @file
 * Internal factory declarations, one per workload translation unit;
 * used only by the registry.
 */

#ifndef CMPMEM_WORKLOADS_FACTORIES_HH
#define CMPMEM_WORKLOADS_FACTORIES_HH

#include <memory>

#include "workloads/workload.hh"

namespace cmpmem
{

std::unique_ptr<Workload> makeFir(const WorkloadParams &);
std::unique_ptr<Workload> makeBitonic(const WorkloadParams &);
std::unique_ptr<Workload> makeMerge(const WorkloadParams &);
std::unique_ptr<Workload> makeArt(const WorkloadParams &);
std::unique_ptr<Workload> makeFem(const WorkloadParams &);
std::unique_ptr<Workload> makeDepth(const WorkloadParams &);
std::unique_ptr<Workload> makeJpegEnc(const WorkloadParams &);
std::unique_ptr<Workload> makeJpegDec(const WorkloadParams &);
std::unique_ptr<Workload> makeMpeg2(const WorkloadParams &);
std::unique_ptr<Workload> makeH264(const WorkloadParams &);
std::unique_ptr<Workload> makeRaytrace(const WorkloadParams &);
std::unique_ptr<Workload> makeStress(const WorkloadParams &);
std::unique_ptr<Workload> makeHang(const WorkloadParams &);

} // namespace cmpmem

#endif // CMPMEM_WORKLOADS_FACTORIES_HH
