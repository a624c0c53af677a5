#include "workloads/registry.hh"

#include <functional>
#include <utility>

#include "sim/sim_error.hh"
#include "workloads/factories.hh"

namespace cmpmem
{

namespace
{

using Factory =
    std::unique_ptr<Workload> (*)(const WorkloadParams &);

struct Entry
{
    const char *name;
    Factory factory;
};

/** Table 3 order. */
constexpr Entry entries[] = {
    {"mpeg2", &makeMpeg2},
    {"h264", &makeH264},
    {"raytrace", &makeRaytrace},
    {"jpeg_enc", &makeJpegEnc},
    {"jpeg_dec", &makeJpegDec},
    {"depth", &makeDepth},
    {"fem", &makeFem},
    {"fir", &makeFir},
    {"art", &makeArt},
    {"bitonic", &makeBitonic},
    {"merge", &makeMerge},
};

/**
 * Creatable by name but hidden from workloadNames(): not paper
 * applications, so table/figure sweeps must never iterate them.
 */
constexpr Entry hiddenEntries[] = {
    {"stress", &makeStress},
    {"hang", &makeHang},
};

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &e : entries)
        names.push_back(e.name);
    return names;
}

std::unique_ptr<Workload>
createWorkload(const std::string &name, const WorkloadParams &params)
{
    for (const auto &e : entries) {
        if (name == e.name)
            return e.factory(params);
    }
    for (const auto &e : hiddenEntries) {
        if (name == e.name)
            return e.factory(params);
    }
    throwSimError(SimErrorKind::Config, "unknown workload '%s'",
                  name.c_str());
}

} // namespace cmpmem
