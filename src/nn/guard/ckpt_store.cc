/**
 * @file
 * Implementation of the generation store and the async writer.
 */

#include "nn/guard/ckpt_store.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/backoff.h"
#include "common/fileutil.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cq::nn::guard {

namespace {

constexpr char kManifestMagic[] = "CQMANIFEST01";

/** Cap on manifest lines parsed, against a corrupted/garbage file. */
constexpr std::size_t kMaxManifestEntries = 1 << 16;

/**
 * Durable small-file write (the generation manifest) with the same
 * temp/fsync/rename/dir-fsync ladder as checkpoint bodies. Content
 * goes out in small chunks so the onWrite kill/slow hooks get
 * byte-granular purchase on manifest rewrites too (mid-prune kills
 * are part of the verified surface). ENOENT on temp create or rename
 * classifies as DirMissing (the directory vanished — transient,
 * recreate + retry).
 */
CheckpointWriteResult
writeTextFileDurable(const std::string &path,
                     const std::string &content,
                     const CheckpointWriteOptions &options)
{
    const std::string tmp = path + ".tmp";
    const std::string &fpPrefix = options.failpointPrefix;
    const std::string writeSite = fpPrefix + ".write";
    errno = 0;
    std::FILE *f = io::fopenFp(fpPrefix + ".open", tmp, "wb");
    if (f == nullptr)
        return errno == ENOENT ? CheckpointWriteResult::DirMissing
                               : CheckpointWriteResult::OpenFailed;
    constexpr std::size_t kChunk = 64;
    for (std::size_t off = 0; off < content.size(); off += kChunk) {
        const std::size_t len =
            std::min(kChunk, content.size() - off);
        errno = 0;
        if (io::fwriteFp(writeSite, content.data() + off, len, f) !=
            len) {
            const bool full = errno == ENOSPC;
            std::fclose(f);
            std::remove(tmp.c_str());
            return full ? CheckpointWriteResult::NoSpace
                        : CheckpointWriteResult::WriteFailed;
        }
        if (options.slowWriteMicros > 0)
            ::usleep(options.slowWriteMicros);
        if (options.onWrite) {
            try {
                options.onWrite(len);
            } catch (...) {
                std::fclose(f);
                std::remove(tmp.c_str());
                throw;
            }
        }
    }
    errno = 0;
    if (io::fflushFp(writeSite, f) != 0) {
        const bool full = errno == ENOSPC;
        std::fclose(f);
        std::remove(tmp.c_str());
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::WriteFailed;
    }
    errno = 0;
    if (!io::fsyncFdFp(fpPrefix + ".fsync", ::fileno(f))) {
        const bool full = errno == ENOSPC;
        std::fclose(f);
        std::remove(tmp.c_str());
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::FsyncFailed;
    }
    errno = 0;
    if (io::fcloseFp(fpPrefix + ".close", f) != 0) {
        const bool full = errno == ENOSPC;
        std::remove(tmp.c_str());
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::WriteFailed;
    }
    errno = 0;
    if (io::renameFp(fpPrefix + ".rename", tmp, path) != 0) {
        const bool gone = errno == ENOENT;
        const bool full = errno == ENOSPC;
        std::remove(tmp.c_str());
        if (gone)
            return CheckpointWriteResult::DirMissing;
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::RenameFailed;
    }
    if (!io::fsyncPathFp(fpPrefix + ".dirfsync", parentDir(path)))
        return CheckpointWriteResult::DirFsyncFailed;
    return CheckpointWriteResult::Ok;
}

} // namespace

// ------------------------------------------------------ CheckpointStore

constexpr char CheckpointStore::kManifestName[];

CheckpointStore::CheckpointStore(CheckpointStoreConfig config)
    : config_(std::move(config))
{
    CQ_ASSERT_MSG(!config_.dir.empty(),
                  "CheckpointStore needs a directory");
    if (config_.keep == 0)
        config_.keep = 1;
}

std::string
CheckpointStore::generationFileName(std::uint64_t gen)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ckpt-%06" PRIu64 ".bin", gen);
    return buf;
}

std::uint64_t
CheckpointStore::parseGenerationFileName(const std::string &name)
{
    // "ckpt-<digits>.bin"; anything else (manifest, temp files,
    // foreign names) parses to 0 = not a generation.
    constexpr const char prefix[] = "ckpt-";
    constexpr const char suffix[] = ".bin";
    const std::size_t pre = sizeof(prefix) - 1;
    const std::size_t suf = sizeof(suffix) - 1;
    if (name.size() <= pre + suf ||
        name.compare(0, pre, prefix) != 0 ||
        name.compare(name.size() - suf, suf, suffix) != 0) {
        return 0;
    }
    std::uint64_t gen = 0;
    for (std::size_t i = pre; i < name.size() - suf; ++i) {
        if (name[i] < '0' || name[i] > '9')
            return 0;
        gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
        if (gen > (1ull << 48))
            return 0;
    }
    return gen;
}

std::string
CheckpointStore::pathOf(const std::string &file) const
{
    return config_.dir + "/" + file;
}

bool
CheckpointStore::readManifest(std::vector<ManifestEntry> &out) const
{
    out.clear();
    std::FILE *f = std::fopen(pathOf(kManifestName).c_str(), "r");
    if (f == nullptr)
        return false;
    char line[512];
    bool sawMagic = false;
    bool malformed = false;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        const std::size_t len = std::strlen(line);
        if (len == 0 || line[len - 1] != '\n') {
            malformed = true; // truncated final line
            break;
        }
        line[len - 1] = '\0';
        if (!sawMagic) {
            if (std::strcmp(line, kManifestMagic) != 0) {
                malformed = true;
                break;
            }
            sawMagic = true;
            continue;
        }
        ManifestEntry e;
        char file[256];
        unsigned long long gen = 0, step = 0;
        unsigned crc = 0;
        if (std::sscanf(line, "gen %llu %255s %8x %llu", &gen, file,
                        &crc, &step) != 4 ||
            gen == 0 || out.size() >= kMaxManifestEntries) {
            malformed = true;
            break;
        }
        e.gen = gen;
        e.file = file;
        e.crc = static_cast<std::uint32_t>(crc);
        e.step = step;
        out.push_back(std::move(e));
    }
    std::fclose(f);
    if (!sawMagic || malformed) {
        out.clear();
        return false;
    }
    std::sort(out.begin(), out.end(),
              [](const ManifestEntry &a, const ManifestEntry &b) {
                  return a.gen < b.gen;
              });
    return true;
}

std::vector<ManifestEntry>
CheckpointStore::currentEntries(bool *used_manifest) const
{
    std::vector<ManifestEntry> entries;
    // An empty-but-parseable manifest is trusted only when the
    // directory really holds no generations: our writer never
    // publishes a zero-entry manifest while generation files exist,
    // so that combination is damage (e.g. truncation right after the
    // magic line) and falls through to the recovery scan.
    if (readManifest(entries) && !entries.empty()) {
        if (used_manifest != nullptr)
            *used_manifest = true;
        return entries;
    }
    if (used_manifest != nullptr)
        *used_manifest = false;
    // Recovery path: the manifest is gone or torn by external damage.
    // Refusing to resume would throw away good snapshots, so rebuild
    // a candidate list from the directory itself; loadLatest still
    // verifies every internal CRC before trusting a file.
    for (const std::string &name : listDir(config_.dir)) {
        const std::uint64_t gen = parseGenerationFileName(name);
        if (gen == 0)
            continue;
        ManifestEntry e;
        e.gen = gen;
        e.file = name;
        if (!crc32OfFile(pathOf(name), e.crc))
            continue;
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const ManifestEntry &a, const ManifestEntry &b) {
                  return a.gen < b.gen;
              });
    return entries;
}

CheckpointWriteResult
CheckpointStore::writeManifest(const std::vector<ManifestEntry> &entries)
{
    std::string text = kManifestMagic;
    text += '\n';
    char line[512];
    for (const ManifestEntry &e : entries) {
        std::snprintf(line, sizeof(line),
                      "gen %" PRIu64 " %s %08x %" PRIu64 "\n", e.gen,
                      e.file.c_str(), e.crc, e.step);
        text += line;
    }
    CheckpointWriteOptions manifestOpts = config_.write;
    manifestOpts.failpointPrefix = "ckpt.manifest";
    const auto res = writeTextFileDurable(pathOf(kManifestName), text,
                                          manifestOpts);
    if (res != CheckpointWriteResult::Ok) {
        warn("ckpt-store: manifest rewrite in %s failed (%s)",
             config_.dir.c_str(), checkpointWriteResultName(res));
    }
    return res;
}

bool
CheckpointStore::entryVerifiesOk(const ManifestEntry &entry) const
{
    std::uint32_t crc = 0;
    if (!crc32OfFile(pathOf(entry.file), crc) || crc != entry.crc)
        return false;
    TrainerSnapshot snap;
    return readCheckpoint(pathOf(entry.file), snap) ==
           CheckpointLoadResult::Ok;
}

std::vector<ManifestEntry>
CheckpointStore::retainedEntries(std::vector<ManifestEntry> entries,
                                 std::uint64_t known_ok_gen) const
{
    if (entries.size() <= config_.keep)
        return entries;
    std::vector<ManifestEntry> kept(entries.end() - config_.keep,
                                    entries.end());
    bool hasOk = false;
    for (auto it = kept.rbegin(); it != kept.rend() && !hasOk; ++it)
        hasOk = (known_ok_gen != 0 && it->gen == known_ok_gen) ||
                entryVerifiesOk(*it);
    if (!hasOk) {
        // Every candidate within the keep window is rotten; widen the
        // window to the newest generation that still verifies rather
        // than deleting the run's only way back.
        const std::size_t head = entries.size() - config_.keep;
        for (std::size_t i = head; i-- > 0;) {
            if (entryVerifiesOk(entries[i])) {
                kept.insert(kept.begin(), entries[i]);
                break;
            }
        }
    }
    return kept;
}

CheckpointWriteResult
CheckpointStore::publishAndClean(const std::vector<ManifestEntry> &kept)
{
    // Manifest first, unlink after: a kill between the two leaves
    // orphaned files (harmless, cleaned on the next commit), whereas
    // the reverse order could leave a manifest naming deleted files.
    const auto res = writeManifest(kept);
    if (res != CheckpointWriteResult::Ok)
        return res;
    for (const std::string &name : listDir(config_.dir)) {
        if (name == kManifestName)
            continue;
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            std::remove(pathOf(name).c_str());
            continue;
        }
        const std::uint64_t gen = parseGenerationFileName(name);
        if (gen == 0)
            continue;
        const bool keptGen =
            std::any_of(kept.begin(), kept.end(),
                        [gen](const ManifestEntry &e) {
                            return e.gen == gen;
                        });
        if (!keptGen)
            std::remove(pathOf(name).c_str());
    }
    return CheckpointWriteResult::Ok;
}

CheckpointWriteResult
CheckpointStore::commit(const TrainerSnapshot &snap)
{
    // Commit latency covers the full serialize/fsync/publish ladder,
    // whether the caller is the training thread (sync) or the async
    // writer thread.
    CQ_TRACE_SCOPE("ckpt.commit");
    static obs::Counter &commits =
        obs::MetricRegistry::instance().counter("ckpt.commits");
    static obs::Histogram &latency =
        obs::MetricRegistry::instance().histogram(
            "ckpt.commit_latency_us");
    commits.inc();
    obs::ScopedLatencyTimer latencyTimer(latency);
    if (!ensureDir(config_.dir)) {
        // mkdir ENOENT means the *parent* tree vanished too — typed
        // as DirMissing so the async writer's retry budget treats it
        // as transient (an operator may restore the tree) instead of
        // an unclassified open failure.
        const bool gone = errno == ENOENT;
        warn("ckpt-store: cannot create directory %s%s",
             config_.dir.c_str(), gone ? " (parent missing)" : "");
        return gone ? CheckpointWriteResult::DirMissing
                    : CheckpointWriteResult::OpenFailed;
    }
    // The generation scan must distinguish "directory empty" from
    // "directory unreadable": starting numbering over because of a
    // transient EIO/EACCES would reuse generation numbers and clobber
    // live snapshots. An unreadable directory maps onto the typed
    // DirMissing retry path (transient by design; the async writer's
    // budget covers it).
    std::vector<std::string> dirNames;
    int listErr = 0;
    if (!listDirEx(config_.dir, dirNames, &listErr)) {
        warn("ckpt-store: cannot scan %s (%s)", config_.dir.c_str(),
             std::strerror(listErr));
        return CheckpointWriteResult::DirMissing;
    }
    std::vector<ManifestEntry> entries = currentEntries(nullptr);
    // Never reuse a generation number: count orphans from an earlier
    // kill (data file renamed, manifest rewrite never ran) as taken.
    std::uint64_t maxGen = entries.empty() ? 0 : entries.back().gen;
    for (const std::string &name : dirNames)
        maxGen = std::max(maxGen, parseGenerationFileName(name));
    const std::uint64_t gen = maxGen + 1;

    ManifestEntry e;
    e.gen = gen;
    e.file = generationFileName(gen);
    e.step = snap.step;
    auto wres = writeCheckpointEx(pathOf(e.file), snap, config_.write,
                                  &e.crc);
    if (wres == CheckpointWriteResult::DirMissing) {
        // The directory was removed between ensureDir above and the
        // temp-file create (checkpoint tree deleted mid-run). Recreate
        // and go again once; if the tree keeps vanishing the typed
        // DirMissing surfaces and the async writer's budget decides.
        static obs::Counter &recreated =
            obs::MetricRegistry::instance().counter(
                "ckpt.dir_recreated");
        if (ensureDir(config_.dir)) {
            recreated.inc();
            wres = writeCheckpointEx(pathOf(e.file), snap,
                                     config_.write, &e.crc);
        }
    }
    if (wres == CheckpointWriteResult::NoSpace) {
        // Volume full. Free space by unlinking the oldest on-disk
        // generation — but only while a *newer* one still verifies,
        // so a full disk can never cost the run its only way back —
        // then retry the write once. A still-full disk surfaces the
        // typed NoSpace and the async writer's retry budget takes
        // over. The manifest briefly naming the unlinked file is
        // harmless: loadLatest skips entries whose file is gone.
        static obs::Counter &prunes =
            obs::MetricRegistry::instance().counter(
                "ckpt.enospc_prunes");
        auto pruneOldestForSpace = [&]() -> bool {
            while (entries.size() >= 2) {
                bool newerOk = false;
                for (std::size_t j = entries.size();
                     j-- > 1 && !newerOk;)
                    newerOk = entryVerifiesOk(entries[j]);
                if (!newerOk)
                    return false;
                const std::string victim =
                    pathOf(entries.front().file);
                entries.erase(entries.begin());
                if (std::remove(victim.c_str()) == 0)
                    return true;
                // Orphan entry (file already gone): nothing freed,
                // consider the next-oldest.
            }
            return false;
        };
        warn("ckpt-store: %s is full; pruning oldest generation and "
             "retrying",
             config_.dir.c_str());
        if (pruneOldestForSpace()) {
            prunes.inc();
            wres = writeCheckpointEx(pathOf(e.file), snap,
                                     config_.write, &e.crc);
        }
    }
    if (wres != CheckpointWriteResult::Ok)
        return wres;
    entries.push_back(std::move(e));
    return publishAndClean(retainedEntries(std::move(entries), gen));
}

bool
CheckpointStore::prune()
{
    std::vector<ManifestEntry> entries = currentEntries(nullptr);
    if (entries.empty())
        return true;
    return publishAndClean(retainedEntries(std::move(entries), 0)) ==
           CheckpointWriteResult::Ok;
}

CheckpointStore::LoadOutcome
CheckpointStore::loadLatest(TrainerSnapshot &out) const
{
    LoadOutcome outcome;
    std::vector<ManifestEntry> entries =
        currentEntries(&outcome.usedManifest);
    if (entries.empty())
        return outcome; // Missing
    for (std::size_t i = entries.size(); i-- > 0;) {
        const ManifestEntry &e = entries[i];
        std::uint32_t crc = 0;
        if (!crc32OfFile(pathOf(e.file), crc) || crc != e.crc) {
            warn("ckpt-store: generation %" PRIu64
                 " (%s) fails its manifest CRC; trying older",
                 e.gen, e.file.c_str());
            ++outcome.skippedCorrupt;
            continue;
        }
        TrainerSnapshot snap;
        const auto res = readCheckpoint(pathOf(e.file), snap);
        if (res == CheckpointLoadResult::Ok) {
            out = std::move(snap);
            outcome.result = CheckpointLoadResult::Ok;
            outcome.gen = e.gen;
            return outcome;
        }
        warn("ckpt-store: generation %" PRIu64 " (%s) classified %s; "
             "trying older",
             e.gen, e.file.c_str(), checkpointLoadResultName(res));
        ++outcome.skippedCorrupt;
    }
    outcome.result = outcome.skippedCorrupt > 0
                         ? CheckpointLoadResult::Corrupt
                         : CheckpointLoadResult::Missing;
    return outcome;
}

// ------------------------------------------------- AsyncCheckpointWriter

namespace {

/** Additional attempts after a commit's first failure. */
constexpr unsigned kMaxRetries = 2;
/** Backoff before retry k (0-based): min(cap, base * 2^k). */
constexpr unsigned kBackoffBaseMicros = 500;
constexpr unsigned kBackoffCapMicros = 20000;

} // namespace

AsyncCheckpointWriter::AsyncCheckpointWriter(CheckpointStore &store)
    : store_(store), worker_([this] { writerLoop(); })
{
}

AsyncCheckpointWriter::~AsyncCheckpointWriter()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    worker_.join();
}

void
AsyncCheckpointWriter::rethrowPendingErrorLocked()
{
    if (error_) {
        std::exception_ptr err;
        std::swap(err, error_);
        std::rethrow_exception(err);
    }
}

void
AsyncCheckpointWriter::submit(TrainerSnapshot snap)
{
    static obs::Gauge &depth =
        obs::MetricRegistry::instance().gauge("ckpt.queue_depth");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rethrowPendingErrorLocked();
        if (hasPending_)
            ++dropped_; // latest wins: replace the waiting snapshot
        pending_ = std::move(snap);
        hasPending_ = true;
        depth.set(static_cast<double>((hasPending_ ? 1 : 0) +
                                      (busy_ ? 1 : 0)));
    }
    wake_.notify_one();
}

CheckpointWriteResult
AsyncCheckpointWriter::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return !busy_ && !hasPending_; });
    rethrowPendingErrorLocked();
    return lastResult_;
}

std::size_t
AsyncCheckpointWriter::committed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return committed_;
}

std::size_t
AsyncCheckpointWriter::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

std::size_t
AsyncCheckpointWriter::retried() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retried_;
}

void
AsyncCheckpointWriter::writerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || hasPending_; });
        if (hasPending_) {
            TrainerSnapshot snap = std::move(pending_);
            hasPending_ = false;
            busy_ = true;
            lock.unlock();
            static obs::Counter &retriesMetric =
                obs::MetricRegistry::instance().counter(
                    "ckpt.write_retries");
            CheckpointWriteResult res = CheckpointWriteResult::Ok;
            std::exception_ptr err;
            std::size_t attemptRetries = 0;
            for (unsigned attempt = 0;; ++attempt) {
                res = CheckpointWriteResult::Ok;
                err = nullptr;
                try {
                    res = store_.commit(snap);
                } catch (...) {
                    err = std::current_exception();
                }
                if (!err && res == CheckpointWriteResult::Ok)
                    break;
                if (attempt >= kMaxRetries)
                    break; // budget spent: surface the last failure
                // Transient-failure retry: capped exponential backoff
                // keeps a genuinely broken disk from spinning hot,
                // while an EINTR storm or flaky injected hook gets a
                // second (and third) chance before poisoning the run.
                std::this_thread::sleep_for(std::chrono::microseconds(
                    cappedBackoff(kBackoffBaseMicros, kBackoffCapMicros,
                                  attempt)));
                ++attemptRetries;
                retriesMetric.inc();
            }
            lock.lock();
            retried_ += attemptRetries;
            busy_ = false;
            static obs::Gauge &depth =
                obs::MetricRegistry::instance().gauge(
                    "ckpt.queue_depth");
            depth.set(hasPending_ ? 1.0 : 0.0);
            if (err) {
                error_ = err;
            } else {
                lastResult_ = res;
                if (res == CheckpointWriteResult::Ok)
                    ++committed_;
            }
            done_.notify_all();
            continue; // drain any snapshot queued while writing
        }
        if (stop_)
            return;
    }
}

} // namespace cq::nn::guard
