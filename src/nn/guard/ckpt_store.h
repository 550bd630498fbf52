/**
 * @file
 * Generation-numbered checkpoint store with crash-consistent commits,
 * and the async double-buffered writer that feeds it.
 *
 * One store owns a directory of CQCKPT01 snapshot files
 * ("ckpt-<gen>.bin") under a text manifest ("ckpt.manifest") that
 * lists the committed generations with the CRC-32 of each file's
 * bytes. A commit follows the ladder
 *
 *   write ckpt-<g>.bin.tmp  ->  fsync file  ->  rename  ->  fsync dir
 *   rewrite ckpt.manifest the same way  ->  unlink pruned generations
 *
 * so a SIGKILL or power loss at *any* byte leaves either the previous
 * manifest (old generations intact) or the new one — never a torn
 * state a resume could load garbage from. Retention keeps the newest
 * K generations but never prunes the only generation that still
 * classifies Ok. Elastic resume (loadLatest) walks the manifest
 * newest-to-oldest, verifies each candidate against its manifest CRC
 * and its internal CQCKPT01 checksums, and loads the first Ok
 * generation; a corrupt or missing manifest degrades to a directory
 * scan rather than refusing to resume.
 *
 * AsyncCheckpointWriter moves serialization + fsync off the training
 * thread: the trainer snapshots tensors at a step boundary and hands
 * the copy over; a background thread (same conventions as
 * common/threadpool.h: condvar hand-off, exceptions captured and
 * rethrown on the submitting thread) runs the commit. The writer is
 * double-buffered — one snapshot in flight, one pending; submitting
 * while one is pending replaces the pending slot (latest wins), so
 * the trainer never blocks on a slow disk.
 */

#ifndef CQ_NN_GUARD_CKPT_STORE_H
#define CQ_NN_GUARD_CKPT_STORE_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/guard/checkpoint.h"

namespace cq::nn::guard {

/** Store configuration. */
struct CheckpointStoreConfig
{
    /** Directory holding the generations + manifest (created lazily). */
    std::string dir;
    /** Generations kept by retention (>= 1). */
    std::size_t keep = 3;
    /** Durability + test hooks applied to every file the store writes
     *  (snapshot bodies and manifest rewrites alike). */
    CheckpointWriteOptions write;
};

/** One committed generation as recorded in the manifest. */
struct ManifestEntry
{
    std::uint64_t gen = 0;
    /** File name relative to the store directory. */
    std::string file;
    /** CRC-32 of the committed file's bytes. */
    std::uint32_t crc = 0;
    /** Trainer step the snapshot was taken at. */
    std::uint64_t step = 0;
};

/**
 * Crash-consistent generation store. Not thread-safe: exactly one
 * thread (the trainer, or the AsyncCheckpointWriter's worker) may
 * call commit()/prune() at a time.
 */
class CheckpointStore
{
  public:
    explicit CheckpointStore(CheckpointStoreConfig config);

    const CheckpointStoreConfig &config() const { return config_; }

    /**
     * Commit @p snap as the next generation and prune to keep-K.
     * Returns the first failing stage (the previous generations stay
     * loadable on any failure).
     */
    CheckpointWriteResult commit(const TrainerSnapshot &snap);

    /** What loadLatest found. */
    struct LoadOutcome
    {
        CheckpointLoadResult result = CheckpointLoadResult::Missing;
        /** Generation loaded (valid when result == Ok). */
        std::uint64_t gen = 0;
        /** Newer generations skipped as corrupt/missing. */
        std::uint64_t skippedCorrupt = 0;
        /** False when the manifest itself was unreadable and the scan
         *  fell back to the directory listing. */
        bool usedManifest = true;
    };

    /**
     * Elastic resume source: newest-to-oldest scan for the first Ok
     * generation. Missing = no usable directory/manifest/files at
     * all; Corrupt = generations exist but none classified Ok.
     */
    LoadOutcome loadLatest(TrainerSnapshot &out) const;

    /**
     * Parse the manifest. Returns false (and an empty @p out) when it
     * is missing or malformed — callers then recover via dir scan.
     */
    bool readManifest(std::vector<ManifestEntry> &out) const;

    /**
     * Re-run retention without committing (exposed so tests can model
     * a store whose newest generations rotted on disk). Verifies
     * candidates and never drops the only Ok generation.
     */
    bool prune();

    /** "ckpt-000042.bin" for generation 42. */
    static std::string generationFileName(std::uint64_t gen);

    /** Parse a generation number out of a store file name; 0 = not a
     *  generation file. */
    static std::uint64_t parseGenerationFileName(const std::string &name);

    static constexpr const char kManifestName[] = "ckpt.manifest";

  private:
    std::string pathOf(const std::string &file) const;
    /** Manifest entries, or a recovery scan of the directory when the
     *  manifest is unreadable. Sorted by ascending generation. */
    std::vector<ManifestEntry> currentEntries(bool *used_manifest) const;
    /** Durable rewrite of the manifest listing @p entries. */
    CheckpointWriteResult
    writeManifest(const std::vector<ManifestEntry> &entries);
    /** Full classification of one entry (CRC + internal checksums). */
    bool entryVerifiesOk(const ManifestEntry &entry) const;
    /**
     * Retention: the newest `keep` entries, widened by the newest
     * older Ok generation when none of those verify (@p known_ok_gen
     * marks a generation proven Ok without re-reading, e.g. the one
     * commit() just wrote).
     */
    std::vector<ManifestEntry>
    retainedEntries(std::vector<ManifestEntry> entries,
                    std::uint64_t known_ok_gen) const;
    /** Rewrite manifest to @p kept, then unlink everything else. */
    CheckpointWriteResult
    publishAndClean(const std::vector<ManifestEntry> &kept);

    CheckpointStoreConfig config_;
};

/**
 * Background checkpoint writer. submit() never blocks on I/O (only on
 * the brief pending-slot mutex); drain() blocks until the queue is
 * empty and rethrows anything the worker raised, mirroring
 * ThreadPool::parallelFor's exception contract. The destructor drains
 * pending work before joining, so a trainer going out of scope never
 * loses its last snapshot.
 *
 * Transient commit failures are retried within a fixed budget.
 * Checkpoint I/O shares a disk with everything else on the host; a
 * commit that fails because of a transient condition (EINTR storm,
 * momentary ENOSPC, a flaky injected onWrite hook) should not
 * immediately poison the training run when simply trying again would
 * succeed. Each failed commit (an exception out of the store, or any
 * non-Ok CheckpointWriteResult) is retried up to twice, after 500 and
 * then 1000 us (capped exponential backoff, common/backoff.h); only
 * after the budget is spent is the last exception surfaced on
 * submit()/drain() (or the non-Ok result recorded). Every retry
 * increments the `ckpt.write_retries` metric.
 */
class AsyncCheckpointWriter
{
  public:
    explicit AsyncCheckpointWriter(CheckpointStore &store);
    ~AsyncCheckpointWriter();

    AsyncCheckpointWriter(const AsyncCheckpointWriter &) = delete;
    AsyncCheckpointWriter &
    operator=(const AsyncCheckpointWriter &) = delete;

    /**
     * Hand a snapshot to the worker. If one is already pending behind
     * the in-flight write it is replaced (latest wins, counted in
     * dropped()). Rethrows a pending worker exception.
     */
    void submit(TrainerSnapshot snap);

    /**
     * Wait until no write is in flight or pending. Returns the result
     * of the last commit (Ok when none ever ran); rethrows a pending
     * worker exception.
     */
    CheckpointWriteResult drain();

    /** Commits that returned Ok. */
    std::size_t committed() const;
    /** Pending snapshots replaced before they reached the disk. */
    std::size_t dropped() const;
    /** Failed commit attempts that were retried. */
    std::size_t retried() const;

  private:
    void writerLoop();
    void rethrowPendingErrorLocked();

    CheckpointStore &store_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    bool stop_ = false;
    bool busy_ = false;
    bool hasPending_ = false;
    TrainerSnapshot pending_;
    CheckpointWriteResult lastResult_ = CheckpointWriteResult::Ok;
    std::exception_ptr error_;
    std::size_t committed_ = 0;
    std::size_t dropped_ = 0;
    std::size_t retried_ = 0;
    std::thread worker_;
};

} // namespace cq::nn::guard

#endif // CQ_NN_GUARD_CKPT_STORE_H
