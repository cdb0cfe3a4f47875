/**
 * @file
 * Unit tests for the statistics framework (distributions, histograms,
 * frame series, tables).
 */

#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "stats/distribution.hh"
#include "stats/series.hh"
#include "stats/table.hh"

using namespace wc3d::stats;

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Distribution, MeanMinMax)
{
    Distribution d;
    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
}

TEST(Distribution, WeightedSamples)
{
    Distribution d;
    d.sampleN(10.0, 3);
    d.sample(2.0);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 8.0);
}

TEST(Distribution, SampleNZeroIsNoop)
{
    Distribution d;
    d.sampleN(99.0, 0);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Distribution, VarianceOfConstantIsZero)
{
    Distribution d;
    for (int i = 0; i < 10; ++i)
        d.sample(5.0);
    EXPECT_NEAR(d.variance(), 0.0, 1e-9);
}

TEST(Distribution, KnownVariance)
{
    Distribution d;
    d.sample(1.0);
    d.sample(3.0);
    // population variance of {1,3} = 1
    EXPECT_NEAR(d.variance(), 1.0, 1e-9);
    EXPECT_NEAR(d.stddev(), 1.0, 1e-9);
}

TEST(Distribution, Merge)
{
    Distribution a, b;
    a.sample(1.0);
    b.sample(3.0);
    b.sample(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(FrameSeries, RecordsPerFrame)
{
    FrameSeries fs;
    fs.record("batches", 10.0);
    fs.record("batches", 5.0); // accumulates within the frame
    fs.endFrame();
    fs.record("batches", 7.0);
    fs.endFrame();
    ASSERT_EQ(fs.frames(), 2);
    const auto &s = fs.series("batches");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[0], 15.0);
    EXPECT_DOUBLE_EQ(s[1], 7.0);
}

TEST(FrameSeries, MissingFramePadsZero)
{
    FrameSeries fs;
    fs.record("a", 1.0);
    fs.endFrame();
    fs.endFrame(); // nothing recorded
    const auto &s = fs.series("a");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(FrameSeries, LateSeriesBackfilled)
{
    FrameSeries fs;
    fs.record("a", 1.0);
    fs.endFrame();
    fs.record("b", 2.0); // first appears in frame 1
    fs.endFrame();
    const auto &s = fs.series("b");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[0], 0.0);
    EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(FrameSeries, SummaryStats)
{
    FrameSeries fs;
    for (int f = 0; f < 4; ++f) {
        fs.record("x", f + 1.0);
        fs.endFrame();
    }
    Distribution d = fs.summary("x");
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
}

TEST(FrameSeries, CsvIsBitExact)
{
    // 0.1 + 0.2 is 0.30000000000000004: a fixed-precision format would
    // print 0.3 and read back a different double. The figure files,
    // goldens and benchmark digests all rely on the exact text.
    const double sum = 0.1 + 0.2;
    const double values[] = {sum, 1.0 / 3.0, 1e-300, -2.5e17};
    FrameSeries fs;
    for (double v : values) {
        fs.record("v", v);
        fs.endFrame();
    }
    std::string csv = fs.toCsv();
    EXPECT_NE(csv.find("0,0.30000000000000004\n"), std::string::npos)
        << csv;
    std::size_t pos = csv.find('\n') + 1;
    for (double v : values) {
        std::size_t comma = csv.find(',', pos);
        std::size_t end = csv.find('\n', comma);
        double parsed =
            std::strtod(csv.substr(comma + 1, end - comma - 1).c_str(),
                        nullptr);
        EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0)
            << csv.substr(pos, end - pos);
        pos = end + 1;
    }
}

TEST(FrameSeries, CsvShape)
{
    FrameSeries fs;
    fs.record("a", 1.0);
    fs.record("b", 2.0);
    fs.endFrame();
    std::string csv = fs.toCsv();
    EXPECT_NE(csv.find("frame,a,b"), std::string::npos);
    EXPECT_NE(csv.find("0,1,2"), std::string::npos);
}

TEST(Table, RendersAlignedText)
{
    Table t({"Game", "Value"});
    t.addRow({"doom3", "42"});
    t.addRow({"quake4", "7"});
    EXPECT_EQ(t.rows(), 2);
    EXPECT_EQ(t.cell(0, 1), "42");
    std::string s = t.toString();
    EXPECT_NE(s.find("Game"), std::string::npos);
    EXPECT_NE(s.find("doom3"), std::string::npos);
}

TEST(Table, MarkdownAndCsv)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "a,b\n1,2\n");
}

TEST(Table, CsvQuotesFieldsAsRfc4180)
{
    // Table I's durations look like 2'13", so the results file must
    // quote; a field with a comma or a newline must not split the row.
    Table t({"Game", "Duration"});
    t.addRow({"ut2004/primeval", "2'13\""});
    t.addRow({"a,b", "two\nlines"});
    t.addRow({"plain", "'"});
    EXPECT_EQ(t.toCsv(), "Game,Duration\n"
                         "ut2004/primeval,\"2'13\"\"\"\n"
                         "\"a,b\",\"two\nlines\"\n"
                         "plain,'\n");
}
