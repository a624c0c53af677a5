/**
 * @file
 * Energy parameters for the 90 nm / 1.0 V process of the paper.
 *
 * The paper derives core energy from Tensilica layouts at 600 MHz in
 * 90 nm, SRAM energies from CACTI 4.1, interconnect energy from Ho,
 * Mai & Horowitz, and DRAM energy from DRAMsim. Those tools are not
 * reproducible here, so this table holds values with the same
 * *structure* (per-access dynamic energies by array size and type,
 * per-byte interconnect and DRAM energies, per-structure leakage) at
 * magnitudes consistent with the published 90 nm literature. The
 * paper's energy results (Figures 4 and 8) are relative comparisons
 * between the two models running identical algorithms, which depend
 * on the *ratios* encoded here: local-store accesses cheaper than
 * tagged cache accesses, tag-only snoop probes far cheaper than full
 * accesses, and DRAM dominating everything per byte.
 */

#ifndef CMPMEM_ENERGY_ENERGY_PARAMS_HH
#define CMPMEM_ENERGY_ENERGY_PARAMS_HH

namespace cmpmem
{

struct EnergyParams
{
    //
    // Dynamic energy, picojoules per event.
    //

    /** Average integer VLIW bundle through the 7-stage pipeline. */
    double coreBundlePj = 140.0;
    /** Additional energy when FP slots are active. */
    double coreFpBundleExtraPj = 110.0;
    /** 16 KB 2-way I-cache fetch. */
    double icacheAccessPj = 28.0;
    /** 32 KB 2-way D-cache access (tag + data). */
    double l1AccessPj = 48.0;
    /** Tag-only probe (coherence snoop). */
    double l1TagProbePj = 9.0;
    /** 8 KB 2-way cache access (streaming model). */
    double smallCacheAccessPj = 22.0;
    /** 24 KB local store access: no tag array, no comparators. */
    double lsAccessPj = 30.0;
    /** Installing a 32-byte line into a first-level array. */
    double lineFillPj = 90.0;
    /** 512 KB 16-way L2 bank access. */
    double l2AccessPj = 310.0;
    /** Cluster bus, per byte moved. */
    double busPjPerByte = 4.0;
    /** Global crossbar, per byte moved. */
    double xbarPjPerByte = 7.0;
    /** Off-chip DRAM, per byte moved (channel + device). */
    double dramPjPerByte = 65.0;
    /** DMA engine overhead per 32-byte access. */
    double dmaAccessPj = 6.0;

    //
    // Stream-prefetcher state machine (CC model, hwPrefetch on).
    // Sized from the structure in prefetch/: the derivation against
    // the published CACTI-style numbers above is logged in
    // EXPERIMENTS.md ("Prefetcher energy derivation").
    //

    /** Stream-table probe: ~12 registers of tags and strides. */
    double streamTableAccessPj = 3.0;

    //
    // Static (leakage) power, milliwatts per structure instance.
    //

    double coreLeakMw = 2.0;
    double icacheLeakMw = 0.45;
    double l1LeakMw = 0.80;        ///< 32 KB D-cache
    double smallCacheLeakMw = 0.25; ///< 8 KB cache
    double lsLeakMw = 0.55;        ///< 24 KB local store
    double l2LeakMw = 9.0;         ///< whole 512 KB L2
    double dramBackgroundMw = 50.0;

    /** Per-core stream-table leakage, scaled from smallCacheLeakMw
     *  (0.25 mW / 8 KB) by structure size (~0.1 KB of registers). */
    double streamTableLeakMw = 0.02;
};

} // namespace cmpmem

#endif // CMPMEM_ENERGY_ENERGY_PARAMS_HH
