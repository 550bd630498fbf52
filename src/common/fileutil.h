/**
 * @file
 * Durable file-system helpers for crash-consistent persistence.
 *
 * The checkpoint subsystem publishes snapshots with the classic
 * write-temp / fsync-file / rename / fsync-directory protocol: after a
 * power loss either the old or the new file is visible, never a
 * truncated hybrid, and the rename itself is durable once the parent
 * directory has been synced. These helpers wrap the POSIX calls with
 * EINTR-safe retries so the protocol reads as intent at the call
 * sites.
 */

#ifndef CQ_COMMON_FILEUTIL_H
#define CQ_COMMON_FILEUTIL_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cq {

/** fsync(2) on an open descriptor, retrying EINTR. */
bool fsyncFd(int fd);

/** Open @p path read-only, fsync it, close. */
bool fsyncPath(const std::string &path);

/**
 * fsync the directory containing @p path, making a rename into that
 * directory durable. Uses parentDir(path).
 */
bool fsyncParentDir(const std::string &path);

/** The directory component of @p path ("." when there is none). */
std::string parentDir(const std::string &path);

/** True when @p path names an existing file or directory. */
bool pathExists(const std::string &path);

/** mkdir -p for one level: create @p dir if missing (mode 0755). */
bool ensureDir(const std::string &dir);

/** Plain file names (no "."/"..") inside @p dir; empty on error. */
std::vector<std::string> listDir(const std::string &dir);

/**
 * Errno-aware directory listing: listDir() conflates "empty" with
 * "unreadable", which made the checkpoint scan treat an EACCES/EIO
 * directory as a cold start. Returns true with the names (possibly
 * none) on success; false with @p errnoOut set on failure, so callers
 * can route "unreadable" onto a typed retry path instead of silently
 * starting over. Honors the "fs.listdir" failpoint.
 */
bool listDirEx(const std::string &dir, std::vector<std::string> &out,
               int *errnoOut = nullptr);

/**
 * CRC-32 (zlib polynomial, common/crc32.h) over the whole file.
 * Returns false when the file cannot be read; @p out is the checksum
 * on success.
 */
bool crc32OfFile(const std::string &path, std::uint32_t &out);

/** Size of the file in bytes, or -1 on error. */
long long fileSize(const std::string &path);

/**
 * mkdtemp under $TMPDIR (/tmp when unset or empty): a new directory
 * named @p prefix plus six random characters. Returns its path, or ""
 * with errno set on failure.
 */
std::string makeTempDir(const std::string &prefix);

/**
 * rm -rf: remove @p path and everything under it, without following
 * symlinks. True when nothing is left (a missing path counts).
 */
bool removeTree(const std::string &path);

/**
 * Failpoint-aware stdio/POSIX wrappers — the injectable I/O seam.
 *
 * Every persistence and sink write in the repository (checkpoint
 * bodies, manifests, telemetry/trace/metrics outputs, bench
 * trajectories) goes through these instead of raw stdio, each
 * call naming the failpoint site that guards it. With nothing armed
 * they forward straight to the real call; an armed site makes the
 * wrapper fail exactly as the kernel would (errno set, short count,
 * nullptr), so the caller's error handling is exercised against the
 * same surface a real ENOSPC/EIO presents.
 */
namespace io {

/** fopen, or nullptr with errno on an armed failure. */
std::FILE *fopenFp(const std::string &site, const std::string &path,
                   const char *mode);

/** fwrite; an armed short-write accepts a prefix then sets errno. */
std::size_t fwriteFp(const std::string &site, const void *data,
                     std::size_t len, std::FILE *f);

/** fread, or 0 with errno on an armed failure. */
std::size_t freadFp(const std::string &site, void *data,
                    std::size_t len, std::FILE *f);

/** fflush (0 on success, EOF + errno on failure). */
int fflushFp(const std::string &site, std::FILE *f);

/**
 * fclose. On an armed failure the underlying FILE is still closed
 * (never leak the descriptor), then EOF is returned with errno — the
 * "close reported the deferred write error" case.
 */
int fcloseFp(const std::string &site, std::FILE *f);

/** rename (0 on success, -1 + errno on failure). */
int renameFp(const std::string &site, const std::string &from,
             const std::string &to);

/** fsyncFd with an armed-failure override. */
bool fsyncFdFp(const std::string &site, int fd);

/** fsyncPath with an armed-failure override. */
bool fsyncPathFp(const std::string &site, const std::string &path);

} // namespace io

} // namespace cq

#endif // CQ_COMMON_FILEUTIL_H
