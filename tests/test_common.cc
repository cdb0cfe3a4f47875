/**
 * @file
 * Unit tests for RNG, image, string and env utilities, plus the
 * seeded mutation fuzzer for the common/json parser (the fleet store
 * ingests attacker-shaped files; see the JsonFuzz suite below).
 */

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/fs.hh"
#include "common/image.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/strutil.hh"

using namespace wc3d;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.nextU32() == b.nextU32());
    EXPECT_LT(same, 5);
}

TEST(Rng, FloatInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        float v = r.nextFloat();
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Rng, BoundedStaysInBound)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, IntRangeInclusive)
{
    Rng r(11);
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i) {
        int v = r.nextInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all values hit
}

TEST(Rng, IntRangeDegenerate)
{
    Rng r(1);
    EXPECT_EQ(r.nextInt(5, 5), 5);
    EXPECT_EQ(r.nextInt(7, 3), 7); // hi <= lo returns lo
}

TEST(Rng, GaussianMeanApproximatelyCorrect)
{
    Rng r(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.nextGaussian(10.0f, 2.0f);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Image, FillAndAccess)
{
    Image img(4, 3, {10, 20, 30, 255});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.at(2, 1).g, 20);
    img.set(2, 1, {1, 2, 3, 4});
    EXPECT_EQ(img.at(2, 1).b, 3);
    EXPECT_EQ(img.at(0, 0).r, 10);
}

TEST(Image, ContentHashChangesWithContent)
{
    Image a(8, 8);
    Image b(8, 8);
    EXPECT_EQ(a.contentHash(), b.contentHash());
    b.set(3, 3, {255, 0, 0, 255});
    EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(Image, PpmWriteProducesFile)
{
    Image img(2, 2, {255, 0, 0, 255});
    std::string path = ::testing::TempDir() + "wc3d_test.ppm";
    ASSERT_TRUE(img.writePpm(path));
    FILE *f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[2] = {};
    ASSERT_EQ(fread(magic, 1, 2, f), 2u);
    EXPECT_EQ(magic[0], 'P');
    EXPECT_EQ(magic[1], '6');
    fclose(f);
    remove(path.c_str());
}

TEST(Rgba8, PackRoundTrip)
{
    Rgba8 c{12, 34, 56, 78};
    EXPECT_EQ(Rgba8::fromPacked(c.packed()), c);
}

TEST(UnormConversion, RoundTripExactAtEnds)
{
    EXPECT_EQ(floatToUnorm8(0.0f), 0);
    EXPECT_EQ(floatToUnorm8(1.0f), 255);
    EXPECT_EQ(floatToUnorm8(-1.0f), 0);
    EXPECT_EQ(floatToUnorm8(2.0f), 255);
    for (int i = 0; i < 256; ++i) {
        auto v = static_cast<std::uint8_t>(i);
        EXPECT_EQ(floatToUnorm8(unorm8ToFloat(v)), v);
    }
}

TEST(StrUtil, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 1.2345), "1.23");
}

TEST(StrUtil, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StrUtil, TrimAndLower)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(toLower("QuAkE4"), "quake4");
}

TEST(StrUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("doom3/trdemo2", "doom3"));
    EXPECT_FALSE(startsWith("do", "doom"));
}

TEST(StrUtil, HumanBytes)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(1536), "1.50 KB");
    EXPECT_EQ(humanBytes(3.0 * 1024 * 1024), "3.00 MB");
}

TEST(Env, IntFallbackAndParse)
{
    unsetenv("WC3D_TEST_ENV");
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 7);
    setenv("WC3D_TEST_ENV", "123", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 123);
    setenv("WC3D_TEST_ENV", "junk", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 7);
    unsetenv("WC3D_TEST_ENV");
}

// A value with trailing garbage ("4x") is a typo, not a 4; strict
// parsing must fall back instead of silently truncating.
TEST(Env, IntRejectsTrailingGarbage)
{
    setenv("WC3D_TEST_ENV", "4x", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 7);
    setenv("WC3D_TEST_ENV", "12.5", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 7);
    // Trailing whitespace is harmless and accepted.
    setenv("WC3D_TEST_ENV", " 42 ", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 42);
    setenv("WC3D_TEST_ENV", "-3", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), -3);
    unsetenv("WC3D_TEST_ENV");
}

TEST(Env, IntRejectsOutOfRange)
{
    setenv("WC3D_TEST_ENV", "99999999999999999999", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 7);
    setenv("WC3D_TEST_ENV", "-99999999999999999999", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 7);
    // Long can hold this on LP64, int cannot; must still fall back.
    setenv("WC3D_TEST_ENV", "4294967296", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 7);
    setenv("WC3D_TEST_ENV", "2147483647", 1);
    EXPECT_EQ(envInt("WC3D_TEST_ENV", 7), 2147483647);
    unsetenv("WC3D_TEST_ENV");
}

// parseDouble backs `wc3d-fleet query --threshold`, where "5%" read
// as 5.0 would silently widen the drift bound to 500%.
TEST(Env, DoubleParseAndReject)
{
    double v = 1.5;
    EXPECT_TRUE(parseDouble("2.25", &v));
    EXPECT_DOUBLE_EQ(v, 2.25);
    EXPECT_TRUE(parseDouble("-0.5", &v));
    EXPECT_DOUBLE_EQ(v, -0.5);
    EXPECT_TRUE(parseDouble("1e-3", &v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    for (const char *bad : {"", "2.25x", "5%", "junk", "1e999", "-1e999",
                            "inf", "nan", " -0.5 "}) {
        v = 1.5;
        EXPECT_FALSE(parseDouble(bad, &v)) << "'" << bad << "'";
        EXPECT_DOUBLE_EQ(v, 1.5) << "'" << bad << "'";
    }
    EXPECT_FALSE(parseDouble(nullptr, &v));
}

TEST(Env, StringFallback)
{
    unsetenv("WC3D_TEST_ENV2");
    EXPECT_EQ(envString("WC3D_TEST_ENV2", "dflt"), "dflt");
    setenv("WC3D_TEST_ENV2", "abc", 1);
    EXPECT_EQ(envString("WC3D_TEST_ENV2", "dflt"), "abc");
    unsetenv("WC3D_TEST_ENV2");
}

// --- JSON parser hardening -----------------------------------------
//
// The fleet store (src/fleet) feeds the common/json parser files from
// disk that CI jobs, other hosts and hand edits may have mangled. The
// parser's contract is the WC3DTRC2 one: any input either parses or is
// rejected with a structured "json: byte N: reason" error — never a
// crash, hang or silent misparse.

namespace {

/** A corpus document touching every value type the model supports. */
std::string
jsonFuzzCorpus()
{
    return "{\"schema\":\"wc3d-fuzz-v1\",\"u\":18446744073709551615,"
           "\"i\":-42,\"d\":-1.25e-3,\"s\":\"esc \\\" \\\\ \\n \\t "
           "\\u0041\",\"b\":[true,false,null],\"nested\":{\"a\":[1,"
           "2.5,{\"deep\":[[],{}]}],\"empty\":\"\"},\"end\":0}";
}

} // namespace

TEST(JsonFuzz, SeededMutationsNeverCrashAndAlwaysExplain)
{
    const std::string base = jsonFuzzCorpus();
    {
        // The corpus itself must parse cleanly first.
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::parse(base, doc, &error)) << error;
        EXPECT_EQ(doc.find("u")->asU64(), 18446744073709551615ull);
    }

    const int kMutations = 2000;
    int rejected = 0;
    int clean = 0;
    for (int seed = 0; seed < kMutations; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed), /*stream=*/0x77aa);
        std::string bytes = base;
        switch (seed % 4) {
        case 0: // truncate at an arbitrary byte
            bytes.resize(rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size())));
            break;
        case 1: { // flip 1..8 random bits
            int flips = 1 + static_cast<int>(rng.nextBounded(8));
            for (int i = 0; i < flips; ++i) {
                std::uint32_t at = rng.nextBounded(
                    static_cast<std::uint32_t>(bytes.size()));
                bytes[static_cast<std::size_t>(at)] ^=
                    static_cast<char>(1u << rng.nextBounded(8));
            }
            break;
        }
        case 2: { // overwrite one byte with a random value
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size()));
            bytes[static_cast<std::size_t>(at)] =
                static_cast<char>(rng.nextBounded(256));
            break;
        }
        case 3: { // splice a random structural token anywhere
            static const char *kTokens[] = {"{",  "}",    "[",
                                            "]",  ",",    ":",
                                            "\"", "1e99", "-"};
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size() + 1));
            bytes.insert(at, kTokens[rng.nextBounded(9)]);
            break;
        }
        }

        json::Value doc;
        std::string error;
        if (!json::parse(bytes, doc, &error)) {
            ++rejected;
            // Structured diagnostic, pointing inside the input.
            EXPECT_EQ(error.compare(0, 11, "json: byte "), 0)
                << "seed " << seed << ": " << error;
        } else {
            ++clean;
            error.clear();
            // Whatever parsed must re-serialize and re-parse: no
            // half-constructed values escape the parser.
            json::Value back;
            EXPECT_TRUE(json::parse(doc.serialize(0), back, &error))
                << "seed " << seed << ": " << error;
        }
    }
    // The corpus must exercise both outcomes: most mutants break the
    // document, but single-char flips inside string literals survive.
    EXPECT_GT(rejected, kMutations / 2);
    EXPECT_GT(clean, kMutations / 100);
}

TEST(JsonFuzz, DepthBombIsRejectedNotOverflowed)
{
    // 10k open brackets: must hit the depth cap with a structured
    // error, not recurse off the stack.
    for (const char *open : {"[", "{\"k\":"}) {
        std::string bomb;
        for (int i = 0; i < 10000; ++i)
            bomb += open;
        json::Value doc;
        std::string error;
        EXPECT_FALSE(json::parse(bomb, doc, &error));
        EXPECT_NE(error.find("nesting too deep"), std::string::npos)
            << error;
    }
    // A comfortably-deep document still parses.
    std::string deep;
    for (int i = 0; i < 32; ++i)
        deep += "[";
    deep += "1";
    for (int i = 0; i < 32; ++i)
        deep += "]";
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(deep, doc, &error)) << error;
}

TEST(JsonFuzz, NumberOverflowIsRejectedNotSaturated)
{
    const char *bad[] = {"1e999", "-1e999", "[1e400]",
                         "{\"x\":-2e308}"};
    for (const char *text : bad) {
        json::Value doc;
        std::string error;
        EXPECT_FALSE(json::parse(text, doc, &error)) << text;
        EXPECT_NE(error.find("out of range"), std::string::npos)
            << text << ": " << error;
    }
    // Integers beyond u64/i64 fall back to double — not an error.
    json::Value doc;
    std::string error;
    ASSERT_TRUE(
        json::parse("[18446744073709551616,-9223372036854775809]",
                    doc, &error))
        << error;
    EXPECT_EQ(doc.at(0).type(), json::Value::Type::Double);
    EXPECT_EQ(doc.at(1).type(), json::Value::Type::Double);
}

TEST(JsonFuzz, RawControlCharactersInStringsAreRejected)
{
    std::string raw_newline = "{\"k\":\"a\nb\"}";
    std::string raw_nul = std::string("[\"a") + '\0' + "b\"]";
    for (const std::string &text : {raw_newline, raw_nul}) {
        json::Value doc;
        std::string error;
        EXPECT_FALSE(json::parse(text, doc, &error));
        EXPECT_NE(error.find("control character"), std::string::npos)
            << error;
    }
    // The escaped spellings remain fine.
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse("\"a\\nb\\u0000c\"", doc, &error))
        << error;
}

// --- faultio: injected filesystem failure modes --------------------
//
// Every durable write (run cache, fleet index, metrics manifests)
// funnels through faultio::writeAll/syncFd, so injecting failures
// here exercises the recovery paths of all of them. The plan
// is process-global state: each test restores the no-fault plan
// before returning.

namespace {

/** RAII: whatever a test injects, the next test starts fault-free. */
struct FaultPlanGuard
{
    FaultPlanGuard() { faultio::setPlan(faultio::FaultPlan{}); }
    ~FaultPlanGuard() { faultio::setPlan(faultio::FaultPlan{}); }
};

std::string
faultTestFile(const char *name)
{
    return ::testing::TempDir() + "wc3d_faultio_" +
           std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

std::string
readAllOf(const std::string &path)
{
    std::string out;
    FILE *f = fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    fclose(f);
    return out;
}

} // namespace

TEST(FaultIo, FailNthWriteInjectsStructuredEnospc)
{
    FaultPlanGuard guard;
    std::string path = faultTestFile("failnth");
    int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);

    faultio::FaultPlan plan;
    plan.failNthWrite = 2;
    faultio::setPlan(plan);
    EXPECT_EQ(faultio::writesAttempted(), 0u);

    faultio::IoError err;
    EXPECT_TRUE(faultio::writeAll(fd, "one", 3, path, &err));
    EXPECT_FALSE(faultio::writeAll(fd, "two", 3, path, &err));
    EXPECT_EQ(err.op, "write");
    EXPECT_EQ(err.path, path);
    EXPECT_NE(err.reason.find("injected ENOSPC"), std::string::npos)
        << err.reason;
    EXPECT_NE(err.describe().find(path), std::string::npos);
    // One-shot: the third write goes through again.
    EXPECT_TRUE(faultio::writeAll(fd, "three", 5, path, &err));
    EXPECT_EQ(faultio::writesAttempted(), 3u);
    ::close(fd);
    EXPECT_EQ(readAllOf(path), "onethree");
    std::remove(path.c_str());
}

TEST(FaultIo, ShortWritePersistsHalfThenReports)
{
    FaultPlanGuard guard;
    std::string path = faultTestFile("short");
    int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);

    faultio::FaultPlan plan;
    plan.shortNthWrite = 1;
    faultio::setPlan(plan);
    faultio::IoError err;
    // The torn half reaches the disk for real — exactly the artifact
    // recovery code has to face — and the caller is told it failed.
    EXPECT_FALSE(faultio::writeAll(fd, "0123456789", 10, path, &err));
    EXPECT_NE(err.reason.find("short write"), std::string::npos)
        << err.reason;
    ::close(fd);
    EXPECT_EQ(readAllOf(path), "01234");
    std::remove(path.c_str());
}

TEST(FaultIo, AtomicWriteFileLeavesOldContentIntactOnFailure)
{
    FaultPlanGuard guard;
    std::string dir = faultTestFile("atomic_dir");
    ASSERT_TRUE(makeDirs(dir));
    std::string path = dir + "/target.json";

    std::string error;
    ASSERT_TRUE(atomicWriteFile(path, "original content", &error))
        << error;
    EXPECT_EQ(readAllOf(path), "original content");

    faultio::FaultPlan plan;
    plan.allEnospc = true;
    faultio::setPlan(plan);
    error.clear();
    EXPECT_FALSE(atomicWriteFile(path, "replacement", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_NE(error.find("injected ENOSPC"), std::string::npos)
        << error;

    // The previous content survived and no temp file leaked.
    faultio::setPlan(faultio::FaultPlan{});
    EXPECT_EQ(readAllOf(path), "original content");
    std::vector<std::string> names;
    ASSERT_TRUE(listDir(dir, names));
    ASSERT_EQ(names.size(), 1u) << "stray temp file: " << names.back();
    EXPECT_EQ(names[0], "target.json");

    // With the fault cleared the replacement lands atomically.
    ASSERT_TRUE(atomicWriteFile(path, "replacement", &error)) << error;
    EXPECT_EQ(readAllOf(path), "replacement");
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}
