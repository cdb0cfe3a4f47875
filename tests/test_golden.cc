/**
 * @file
 * Golden counter lock. Every timedemo, simulated for 2 frames
 * at 256x192 on the configured thread count (WC3D_THREADS), must
 * reproduce its committed run document tests/golden/<id>.txt line for
 * line: every PipelineCounters field, per-client traffic, the four
 * cache models and the per-frame series CSV.
 *
 * The other determinism tests compare executors and thread counts with
 * each other; this one catches a change that moves all of them alike.
 * On a mismatch the case names the first differing key with both
 * values (core::diffRecords), writes the full actual document under
 * <build>/tests/golden-actual/ and prints the cp command that accepts
 * it as the new golden file.
 */

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fs.hh"
#include "core/runner.hh"
#include "workloads/games.hh"

using namespace wc3d;

namespace {

constexpr int kFrames = 2;
constexpr int kWidth = 256;
constexpr int kHeight = 192;

/** File stem (and test name) of a timedemo id: non-alphanumerics -> _. */
std::string
stemOf(const std::string &id)
{
    std::string out = id;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return out;
}

class Golden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Golden, MatchesCommittedCounters)
{
    const std::string &id = GetParam();
    const std::string stem = stemOf(id);
    const std::string golden_path =
        std::string(WC3D_GOLDEN_DIR) + "/" + stem + ".txt";

    std::string actual = core::encodeMicroRun(
        core::runMicroarch(id, kFrames, kWidth, kHeight));

    std::ifstream in(golden_path, std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    if (in && expected.str() == actual)
        return;

    const std::string actual_dir = WC3D_GOLDEN_ACTUAL_DIR;
    const std::string actual_path = actual_dir + "/" + stem + ".txt";
    ASSERT_TRUE(makeDirs(actual_dir)) << actual_dir;
    {
        std::ofstream out(actual_path, std::ios::binary);
        out << actual;
        ASSERT_TRUE(out.good()) << actual_path;
    }
    std::string why =
        in ? core::diffRecords(expected.str(), actual, "expected",
                               "actual")
                 .front()
           : "no golden file " + golden_path;
    ADD_FAILURE() << id << ": counters differ from the golden file, "
                  << why << "\nIf the change is intended, accept it with:\n"
                  << "  cp " << actual_path << " " << golden_path;
}

INSTANTIATE_TEST_SUITE_P(
    Timedemos, Golden,
    ::testing::ValuesIn(workloads::allTimedemoIds()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return stemOf(info.param);
    });

} // namespace
