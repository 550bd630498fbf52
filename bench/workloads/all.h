/**
 * @file
 * Per-file registration hooks for the workload set. Registration is
 * explicit (workloads::registerAll() calls each hook) rather than
 * static-initializer magic, so a static-library link never silently
 * drops a workload and tests can register a controlled subset.
 */

#ifndef CQ_BENCH_WORKLOADS_ALL_H
#define CQ_BENCH_WORKLOADS_ALL_H

namespace cq::bench::workloads {

void registerTable1OpEnergy();
void registerTable7HwCharacteristics();
void registerTable2Table9Comparison();
void registerTable8Accuracy();
void registerFig2GradientStats();
void registerFig3GpuQuantOverhead();
void registerFig12PerfEnergy();
void registerFig13Scalability();
void registerLdqCompression();
void registerAblationInt4();
void registerAblationDesignSpace();
void registerFaultResilience();
void registerKernels();
void registerObsOverhead();

} // namespace cq::bench::workloads

#endif // CQ_BENCH_WORKLOADS_ALL_H
