/**
 * @file
 * Tests for the common support library: RNG determinism and
 * distributions, the capped backoff, stats registry semantics, the
 * JSON parser's typed
 * error classes (notably the nesting-depth resource limit), and the
 * fileutil error paths (parentDir edges, fsync/CRC/stat of
 * unreadable paths, listDirEx's empty-vs-unreadable distinction).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>

#include "common/backoff.h"
#include "common/crc32.h"
#include "common/fileutil.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"

namespace cq {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
        seen.insert(v);
    }
    // All 17 values should occur in 1000 draws.
    EXPECT_EQ(seen.size(), 17u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    double sum = 0.0, sum2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Backoff, NeverAboveTheCapAndNeverDecreasing)
{
    // The checkpoint writer's defaults, other realistic configs and
    // extremes; a plain shift overflows long before k = 63.
    const std::uint64_t configs[][2] = {
        {500, 20000}, {10, 2000}, {5, 50},       {1, 5},
        {1, UINT64_MAX}, {UINT64_MAX, UINT64_MAX}, {3, 0}, {0, 7}};
    for (const auto &[base, cap] : configs) {
        std::uint64_t prev = 0;
        for (unsigned k = 0; k < 64; ++k) {
            const std::uint64_t b = cappedBackoff(base, cap, k);
            EXPECT_LE(b, cap) << base << " " << cap << " k=" << k;
            EXPECT_GE(b, prev) << base << " " << cap << " k=" << k;
            prev = b;
        }
    }
    // Below the cap it is exactly base << k.
    EXPECT_EQ(cappedBackoff(500, 20000, 0), 500u);
    EXPECT_EQ(cappedBackoff(500, 20000, 5), 16000u);
    EXPECT_EQ(cappedBackoff(500, 20000, 6), 20000u);
    EXPECT_EQ(cappedBackoff(500, 20000, 30), 20000u);
    EXPECT_EQ(cappedBackoff(1, UINT64_MAX, 63), 1ull << 63);
}

TEST(StatGroup, CounterStartsAtZero)
{
    StatGroup stats;
    EXPECT_EQ(stats.get("nonexistent"), 0.0);
}

TEST(StatGroup, AddAccumulates)
{
    StatGroup stats;
    stats.add("a.b", 2.0);
    stats.add("a.b", 3.0);
    EXPECT_EQ(stats.get("a.b"), 5.0);
}

TEST(StatGroup, CounterReferencePersists)
{
    StatGroup stats;
    double &c = stats.counter("x");
    c += 7.0;
    EXPECT_EQ(stats.get("x"), 7.0);
}

TEST(StatGroup, SumPrefix)
{
    StatGroup stats;
    stats.add("dram.reads", 10.0);
    stats.add("dram.writes", 5.0);
    stats.add("pe.macs", 100.0);
    EXPECT_EQ(stats.sumPrefix("dram."), 15.0);
    EXPECT_EQ(stats.sumPrefix("pe."), 100.0);
    EXPECT_EQ(stats.sumPrefix("zzz"), 0.0);
}

TEST(StatGroup, ResetZeroesEverything)
{
    StatGroup stats;
    stats.add("a", 1.0);
    stats.add("b", 2.0);
    stats.reset();
    EXPECT_EQ(stats.get("a"), 0.0);
    EXPECT_EQ(stats.get("b"), 0.0);
}

TEST(StatGroup, MergeAddsValues)
{
    StatGroup a, b;
    a.add("x", 1.0);
    b.add("x", 2.0);
    b.add("y", 3.0);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 3.0);
    EXPECT_EQ(a.get("y"), 3.0);
}

TEST(StatGroup, DumpContainsNames)
{
    StatGroup stats;
    stats.add("alpha", 1.0);
    const std::string dump = stats.dump("header");
    EXPECT_NE(dump.find("header"), std::string::npos);
    EXPECT_NE(dump.find("alpha"), std::string::npos);
}

// -------------------------------------------------------------- json

TEST(JsonDepth, DeeplyNestedInputFailsTypedNotByStackOverflow)
{
    // ~100k-deep nesting: without the depth limit this would recurse
    // once per level and smash the stack. The limit must convert it
    // into a typed TooDeep error instead.
    const std::size_t kDepth = 100000;
    std::string text(kDepth, '[');
    text.append(kDepth, ']');
    const json::ParseResult r = json::parse(text);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, json::ParseErrorKind::TooDeep);
    EXPECT_NE(r.error.find("nesting"), std::string::npos);
}

TEST(JsonDepth, LimitIsConfigurableAndExact)
{
    const auto depth = static_cast<std::size_t>(json::kMaxDepth);
    const std::string arrays =
        std::string(depth, '[') + std::string(depth, ']');
    EXPECT_TRUE(json::parse(arrays).ok);
    const json::ParseResult deep = json::parse("[" + arrays + "]");
    EXPECT_FALSE(deep.ok);
    EXPECT_EQ(deep.errorKind, json::ParseErrorKind::TooDeep);
    // Objects count the same as arrays.
    std::string objects = "1";
    for (std::size_t d = 0; d < depth; ++d)
        objects = "{\"a\": " + objects + "}";
    EXPECT_TRUE(json::parse(objects).ok);
    EXPECT_EQ(json::parse("[" + objects + "]").errorKind,
              json::ParseErrorKind::TooDeep);
}

TEST(JsonDepth, ErrorKindsDistinguishSyntaxIoAndDepth)
{
    EXPECT_EQ(json::parse("{oops").errorKind,
              json::ParseErrorKind::Syntax);
    EXPECT_EQ(json::parse("[1] trailing").errorKind,
              json::ParseErrorKind::Syntax);
    EXPECT_EQ(json::parseFile("/nonexistent/never.json").errorKind,
              json::ParseErrorKind::Io);
    const json::ParseResult ok = json::parse("[1, 2]");
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.errorKind, json::ParseErrorKind::None);
    EXPECT_STREQ(json::parseErrorKindName(json::ParseErrorKind::TooDeep),
                 "tooDeep");
}

TEST(FileutilErrors, ParentDirEdgeCases)
{
    EXPECT_EQ(parentDir("a/b"), "a");
    EXPECT_EQ(parentDir("/x"), "/");
    EXPECT_EQ(parentDir("plain"), ".");
    EXPECT_EQ(parentDir("/a/b/c.bin"), "/a/b");
    EXPECT_EQ(parentDir(""), ".");
}

TEST(FileutilErrors, FsyncOfMissingPathFails)
{
    EXPECT_FALSE(fsyncPath("/nonexistent/never"));
    EXPECT_FALSE(fsyncParentDir("/nonexistent/never/file.bin"));
}

TEST(FileutilErrors, FileSizeAndCrcOfUnreadableFile)
{
    EXPECT_EQ(fileSize("/nonexistent/never.bin"), -1);
    std::uint32_t crc = 0xdeadbeef;
    EXPECT_FALSE(crc32OfFile("/nonexistent/never.bin", crc));
    // A failed call must not fabricate a value.
    EXPECT_EQ(crc, 0xdeadbeefu);
}

TEST(FileutilErrors, Crc32OfFileMatchesBufferCrc)
{
    const std::string dir = ::testing::TempDir() + "fileutil_crc";
    ASSERT_TRUE(ensureDir(dir));
    const std::string path = dir + "/blob.bin";
    const std::string payload = "the quick brown fox";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(payload.data(), 1, payload.size(), f),
              payload.size());
    ASSERT_EQ(std::fclose(f), 0);
    std::uint32_t fromFile = 0;
    ASSERT_TRUE(crc32OfFile(path, fromFile));
    EXPECT_EQ(fromFile, crc32(payload.data(), payload.size(), 0));
    EXPECT_EQ(fileSize(path),
              static_cast<long long>(payload.size()));
}

TEST(FileutilErrors, ListDirExDistinguishesEmptyFromUnreadable)
{
    const std::string dir = ::testing::TempDir() + "fileutil_empty";
    ASSERT_TRUE(ensureDir(dir));
    for (const std::string &f : listDir(dir))
        std::remove((dir + "/" + f).c_str());

    std::vector<std::string> names{"stale"};
    int err = 0;
    EXPECT_TRUE(listDirEx(dir, names, &err));
    EXPECT_TRUE(names.empty());

    // listDir() cannot tell these apart — listDirEx can.
    EXPECT_FALSE(listDirEx("/nonexistent/never", names, &err));
    EXPECT_EQ(err, ENOENT);
    EXPECT_TRUE(names.empty());
    EXPECT_TRUE(listDir("/nonexistent/never").empty());
}

} // namespace
} // namespace cq
