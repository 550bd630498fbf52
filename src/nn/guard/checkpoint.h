/**
 * @file
 * Trainer checkpoints with corruption detection.
 *
 * Serializes the state a quantized training run needs to resume after
 * a fault: the FP32 master weights (the NDP engine's DRAM rows), the
 * optimizer's m/v moments, the step counters, and optionally an Rng
 * stream (so a data pipeline resumes bit-exactly). The on-disk format
 * is a little-endian binary record with a magic/version header and a
 * CRC-32 per tensor plus one over the header fields; readers classify
 * a file as Ok / Missing / Corrupt and never resume from a snapshot
 * whose checksums disagree.
 *
 * Writes go to "<path>.tmp" and are published with the durable
 * rename-on-write protocol: the temp file is fsync'd before the
 * rename and the parent directory after it, so a power loss leaves
 * either the previous snapshot or the complete new one — never a
 * zero-length or truncated "committed" file.
 */

#ifndef CQ_NN_GUARD_CHECKPOINT_H
#define CQ_NN_GUARD_CHECKPOINT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace cq::nn::guard {

/** Everything a QuantTrainer needs to roll back to a known-good step. */
struct TrainerSnapshot
{
    /** Trainer step at which the snapshot was taken. */
    std::uint64_t step = 0;
    /** Optimizer update count (drives Adam bias correction). */
    std::uint64_t optimizerStep = 0;
    /** Optional captured Rng stream (e.g. the data pipeline's). */
    bool hasRngState = false;
    Rng::State rngState;
    /** FP32 master weights, one tensor per parameter. */
    std::vector<Tensor> masters;
    /** Optimizer first / second moments, parallel to masters. */
    std::vector<Tensor> m;
    std::vector<Tensor> v;
};

/** Outcome of reading a checkpoint file. */
enum class CheckpointLoadResult
{
    Ok,
    /** No file at the path (no snapshot was ever written). */
    Missing,
    /** File exists but is truncated, malformed, or fails a CRC. */
    Corrupt,
};

const char *checkpointLoadResultName(CheckpointLoadResult result);

/**
 * Outcome of a checkpoint write. Every failure leaves the previous
 * snapshot (if any) untouched; the codes distinguish *where* the
 * commit protocol stopped, because the recovery differs: an fsync
 * failure means the bytes may not be on stable storage even though
 * every write call succeeded, and must never be reported as success.
 */
enum class CheckpointWriteResult
{
    Ok,
    /** The temp file could not be created. */
    OpenFailed,
    /** Serialization or a write/flush/close call failed. */
    WriteFailed,
    /** fsync of the temp file failed: data not durably on disk. */
    FsyncFailed,
    /** The rename publishing the temp file failed. */
    RenameFailed,
    /** Renamed, but the parent-directory fsync failed: the new name
     *  may not survive a power loss (the data itself is synced). */
    DirFsyncFailed,
    /**
     * The destination directory vanished (ENOENT on temp create or
     * rename) — e.g. an operator removed the checkpoint tree mid-run.
     * Transient by design: the store recreates the directory and the
     * async writer's retry budget covers the re-attempt.
     */
    DirMissing,
    /**
     * A write/flush/fsync/close failed with ENOSPC: the volume is
     * full. Typed separately because the recovery differs — the
     * generation store prunes its oldest redundant generation to free
     * space and retries, and only surfaces NoSpace when pruning can
     * no longer help (the async writer's retry budget then covers
     * transient full-disk windows).
     */
    NoSpace,
};

const char *checkpointWriteResultName(CheckpointWriteResult result);

/**
 * Knobs of the durable write path, which always fsyncs the temp file
 * before the rename and the parent directory after it.
 */
struct CheckpointWriteOptions
{
    /**
     * Test hook invoked after every write call with that call's byte
     * count. The kill–restart harness raises SIGKILL from here to
     * land a crash mid-write; a throwing hook is propagated after the
     * temp file is cleaned up.
     */
    std::function<void(std::size_t chunkBytes)> onWrite;
    /** Sleep this long after each write call — widens the mid-write
     *  window so an external killer can hit it. 0 = no slow-down. */
    unsigned slowWriteMicros = 0;
    /**
     * Failpoint site prefix for the durable-write ladder: the open /
     * write / fsync / close / rename / dirfsync stages evaluate
     * "<prefix>.open" etc. (common/failpoint.h). Checkpoint bodies
     * use the default; the generation manifest overrides it
     * ("ckpt.manifest") so each persistence surface is independently
     * fireable.
     */
    std::string failpointPrefix = "ckpt.body";
};

/**
 * Durable write of @p snap to @p path. On Ok, @p fileCrcOut (when
 * non-null) receives the CRC-32 of the committed file's bytes — the
 * value the generation manifest records for cheap re-verification.
 */
CheckpointWriteResult
writeCheckpointEx(const std::string &path, const TrainerSnapshot &snap,
                  const CheckpointWriteOptions &options = {},
                  std::uint32_t *fileCrcOut = nullptr);

/**
 * Read a snapshot from @p path into @p out. On anything but Ok,
 * @p out is left in an unspecified but valid state and must not be
 * used for a rollback.
 */
CheckpointLoadResult readCheckpoint(const std::string &path,
                                    TrainerSnapshot &out);

} // namespace cq::nn::guard

#endif // CQ_NN_GUARD_CHECKPOINT_H
