#include "workloads/all.h"

#include "harness/workload.h"

namespace cq::bench::workloads {

void
registerAll()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    registerTable1OpEnergy();
    registerTable7HwCharacteristics();
    registerTable2Table9Comparison();
    registerTable8Accuracy();
    registerFig2GradientStats();
    registerFig3GpuQuantOverhead();
    registerFig12PerfEnergy();
    registerFig13Scalability();
    registerLdqCompression();
    registerAblationInt4();
    registerAblationDesignSpace();
    registerFaultResilience();
    registerKernels();
    registerObsOverhead();
}

} // namespace cq::bench::workloads
