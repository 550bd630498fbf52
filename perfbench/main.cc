/**
 * @file
 * cq_perfbench: run one benchmark workload and print its result.
 *
 *   cq_perfbench --workload <sim-cnn|sim-seq|train-cnn-hqt>
 *                --seed <n> --seconds <s> --trace <0|1>
 *                --reference <reference.json> [--write-reference]
 *
 * The last line of standard output is the result object; the lines
 * before it record the run's provenance and the workload's figures
 * that are not benchmark metrics. --write-reference simulates
 * every program of a sim workload once and stores its outputs as the
 * reference instead of measuring.
 */

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "common/argparse.h"
#include "perfbench.h"

namespace {

const char *const kProg = "cq_perfbench";

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload "
                 "<sim-cnn|sim-seq|train-cnn-hqt> --seed <n> --seconds "
                 "<s> --trace <0|1> --reference <file> "
                 "[--write-reference]\n",
                 kProg, why.c_str(), kProg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cq;
    using namespace cq::perfbench;
    Options opts;
    bool writeReference = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--write-reference") {
            writeReference = true;
        } else if (arg == "--workload") {
            opts.workload = args::nextValue(kProg, argc, argv, i);
        } else if (arg == "--seed") {
            opts.seed = args::parseU64(
                kProg, arg, args::nextValue(kProg, argc, argv, i), 0,
                UINT64_MAX);
        } else if (arg == "--seconds") {
            opts.seconds = static_cast<double>(args::parseU64(
                kProg, arg, args::nextValue(kProg, argc, argv, i), 1,
                3600));
        } else if (arg == "--trace") {
            opts.trace = args::parseU64(
                kProg, arg, args::nextValue(kProg, argc, argv, i), 0,
                1) == 1;
        } else if (arg == "--reference") {
            opts.referencePath = args::nextValue(kProg, argc, argv, i);
        } else {
            return usage("unknown argument " + arg);
        }
    }
    const bool isSim =
        opts.workload == "sim-cnn" || opts.workload == "sim-seq";
    if (!isSim && opts.workload != "train-cnn-hqt")
        return usage("unknown workload '" + opts.workload + "'");
    if (isSim && opts.referencePath.empty())
        return usage("sim workloads need --reference");

    try {
        if (writeReference)
            return isSim ? writeSimReferences(opts)
                         : usage("--write-reference needs a sim workload");
        const RunResult result =
            isSim ? runSimWorkload(opts) : runTrainWorkload(opts);
        std::printf("%s\n%s\n%s\n", provenanceJson(result).c_str(),
                    extraJson(result).c_str(), resultJson(result).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cq_perfbench: %s\n", e.what());
        return 1;
    }
}
