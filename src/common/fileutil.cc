/**
 * @file
 * Implementation of the durable file-system helpers.
 */

#include "common/fileutil.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/failpoint.h"

namespace cq {

bool
fsyncFd(int fd)
{
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    return rc == 0;
}

namespace {

/** open(2) with EINTR retry. */
int
openRetry(const char *path, int flags)
{
    int fd;
    do {
        fd = ::open(path, flags);
    } while (fd < 0 && errno == EINTR);
    return fd;
}

} // namespace

bool
fsyncPath(const std::string &path)
{
    if (const auto fpo = CQ_FAILPOINT("fs.fsync_path")) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            return false;
        }
    }
    const int fd = openRetry(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool ok = fsyncFd(fd);
    ::close(fd);
    return ok;
}

std::string
parentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

bool
fsyncParentDir(const std::string &path)
{
    return fsyncPath(parentDir(path));
}

bool
pathExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) == 0)
        return true;
    if (errno != EEXIST)
        return false;
    struct stat st;
    return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    listDirEx(dir, names);
    return names;
}

bool
listDirEx(const std::string &dir, std::vector<std::string> &out,
          int *errnoOut)
{
    out.clear();
    if (const auto fpo = CQ_FAILPOINT("fs.listdir")) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            if (errnoOut != nullptr)
                *errnoOut = fpo.err;
            return false;
        }
    }
    errno = 0;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr) {
        if (errnoOut != nullptr)
            *errnoOut = errno;
        return false;
    }
    while (const struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..")
            out.push_back(name);
    }
    ::closedir(d);
    return true;
}

bool
crc32OfFile(const std::string &path, std::uint32_t &out)
{
    std::FILE *f = io::fopenFp("fs.crc.open", path, "rb");
    if (f == nullptr)
        return false;
    std::uint32_t crc = 0;
    char buf[4096];
    bool ok = true;
    for (;;) {
        if (const auto fpo =
                CQ_FAILPOINT_BYTES("fs.crc.read", sizeof(buf))) {
            if (fpo.kind != fp::ActionKind::Delay) {
                errno = fpo.err;
                ok = false;
                break;
            }
        }
        const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
        if (n > 0)
            crc = crc32(buf, n, crc);
        if (n < sizeof(buf))
            break;
    }
    ok = ok && std::ferror(f) == 0;
    std::fclose(f);
    if (ok)
        out = crc;
    return ok;
}

long long
fileSize(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long long>(st.st_size);
}

std::string
makeTempDir(const std::string &prefix)
{
    const char *tmp = std::getenv("TMPDIR");
    std::string path = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    path += "/" + prefix + "XXXXXX";
    if (::mkdtemp(path.data()) == nullptr)
        return "";
    return path;
}

bool
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    return !ec;
}

namespace io {

std::FILE *
fopenFp(const std::string &site, const std::string &path,
        const char *mode)
{
    if (const auto fpo = fp::evaluate(site)) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            return nullptr;
        }
    }
    return std::fopen(path.c_str(), mode);
}

std::size_t
fwriteFp(const std::string &site, const void *data, std::size_t len,
         std::FILE *f)
{
    if (const auto fpo = fp::evaluate(site, len)) {
        switch (fpo.kind) {
          case fp::ActionKind::ShortWrite: {
            // Accept the prefix for real (the bytes genuinely land in
            // the stream, as with a disk that filled mid-write), then
            // report the failure.
            const std::size_t accept = static_cast<std::size_t>(
                std::min<std::uint64_t>(fpo.acceptBytes, len));
            const std::size_t n =
                accept > 0 ? std::fwrite(data, 1, accept, f) : 0;
            errno = fpo.err;
            return n;
          }
          case fp::ActionKind::Delay:
            break; // the registry already slept
          default:
            errno = fpo.err;
            return 0;
        }
    }
    return std::fwrite(data, 1, len, f);
}

std::size_t
freadFp(const std::string &site, void *data, std::size_t len,
        std::FILE *f)
{
    if (const auto fpo = fp::evaluate(site, len)) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            return 0;
        }
    }
    return std::fread(data, 1, len, f);
}

int
fflushFp(const std::string &site, std::FILE *f)
{
    if (const auto fpo = fp::evaluate(site)) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            return EOF;
        }
    }
    return std::fflush(f);
}

int
fcloseFp(const std::string &site, std::FILE *f)
{
    if (const auto fpo = fp::evaluate(site)) {
        if (fpo.kind != fp::ActionKind::Delay) {
            std::fclose(f); // never leak the descriptor
            errno = fpo.err;
            return EOF;
        }
    }
    return std::fclose(f);
}

int
renameFp(const std::string &site, const std::string &from,
         const std::string &to)
{
    if (const auto fpo = fp::evaluate(site)) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            return -1;
        }
    }
    return std::rename(from.c_str(), to.c_str());
}

bool
fsyncFdFp(const std::string &site, int fd)
{
    if (const auto fpo = fp::evaluate(site)) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            return false;
        }
    }
    return fsyncFd(fd);
}

bool
fsyncPathFp(const std::string &site, const std::string &path)
{
    if (const auto fpo = fp::evaluate(site)) {
        if (fpo.kind != fp::ActionKind::Delay) {
            errno = fpo.err;
            return false;
        }
    }
    return fsyncPath(path);
}

} // namespace io

} // namespace cq
