// The benchmark's own checks can fail: each checker rejects a planted
// fault, the percentile code matches a hand-computed sample, and the
// open-loop schedule charges a stall to the requests queued behind it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "stats.h"

namespace perfbench {
namespace {

using nagano::db::Row;
using nagano::db::Value;

const char* const kEventBody =
    "<html><body><h1>Downhill 3</h1><table>"
    "<tr><td>1</td><td><a href=\"/athlete/7\">Kasai Noriaki</a></td>"
    "<td><a href=\"/country/JPN\">JPN</a></td><td>1000.07</td></tr>"
    "<tr><td>2</td><td><a href=\"/athlete/9\">Ann Berg</a></td>"
    "<td><a href=\"/country/NOR\">NOR</a></td><td>98.50</td></tr>"
    "</table></body></html>";

TEST(CheckEventPageTest, AcceptsThePageTheDatabaseDescribes) {
  EXPECT_EQ(CheckEventPage("/event/3", kEventBody, "Downhill 3",
                           {{"1000.07", "Kasai Noriaki"}, {"98.50", "Ann Berg"}}),
            "");
}

TEST(CheckEventPageTest, RejectsAWrongScoreInTheBody) {
  std::string body = kEventBody;
  body.replace(body.find("98.50"), 5, "98.51");
  EXPECT_NE(CheckEventPage("/event/3", body, "Downhill 3",
                           {{"1000.07", "Kasai Noriaki"}, {"98.50", "Ann Berg"}}),
            "");
}

TEST(CheckEventPageTest, RejectsAMissingAthlete) {
  EXPECT_NE(CheckEventPage("/event/3", kEventBody, "Downhill 3",
                           {{"1000.07", "Someone Else"}}),
            "");
}

TEST(ScoreTextTest, PrintsTwoDecimals) {
  EXPECT_EQ(ScoreText(1000.0 + 7 * 0.01), "1000.07");
  EXPECT_EQ(ScoreText(98.5), "98.50");
}

TEST(CheckReplicasTest, RejectsAPageMissingFromOneReplica) {
  std::map<std::string, std::string> a = {{"/medals", "m"}, {"/day/1", "d"}};
  std::map<std::string, std::string> b = a;
  EXPECT_EQ(CheckReplicasIdentical(a, b), "");
  b.erase("/day/1");
  EXPECT_NE(CheckReplicasIdentical(a, b), "");
  EXPECT_NE(CheckReplicasIdentical(b, a), "");
}

TEST(CheckReplicasTest, RejectsOneDifferingByte) {
  std::map<std::string, std::string> a = {{"/medals", "gold 3"}};
  std::map<std::string, std::string> b = {{"/medals", "gold 4"}};
  EXPECT_NE(CheckReplicasIdentical(a, b), "");
}

std::string MedalTable(int g1, int s1, int b1, int g2, int s2, int b2) {
  auto row = [](const char* cc, int g, int s, int b) {
    return std::string("<tr><td><a href=\"/country/") + cc + "\">" + cc +
           "</a></td><td>" + std::to_string(g) + "</td><td>" +
           std::to_string(s) + "</td><td>" + std::to_string(b) + "</td><td>" +
           std::to_string(g + s + b) + "</td></tr>\n";
  };
  return "<table class=\"medals\"><tr><th></th><th>G</th><th>S</th><th>B</th>"
         "<th>=</th></tr>\n" +
         row("JPN", g1, s1, b1) + row("NOR", g2, s2, b2) + "</table>";
}

TEST(CheckMedalsTest, AcceptsThreeMedalsPerCompletion) {
  EXPECT_EQ(CheckMedals(MedalTable(1, 1, 0, 1, 1, 2), 2), "");
}

TEST(CheckMedalsTest, AnEmptyTableMeansNoCompletions) {
  const std::string empty = "<table class=\"medals\"><tr><th></th></tr></table>";
  EXPECT_EQ(CheckMedals(empty, 0), "");
  EXPECT_NE(CheckMedals(empty, 1), "");
}

TEST(CheckMedalsTest, RejectsAnOffByOneTally) {
  EXPECT_NE(CheckMedals(MedalTable(1, 1, 0, 1, 1, 3), 2), "");
  EXPECT_NE(CheckMedals(MedalTable(1, 1, 0, 1, 1, 2), 3), "");
}

TEST(CheckMedalsTest, RejectsARowWhoseTotalDisagrees) {
  std::string table = MedalTable(1, 1, 0, 1, 1, 2);
  table.replace(table.find("<td>4</td>"), 10, "<td>5</td>");
  EXPECT_NE(CheckMedals(table, 2), "");
}

TEST(CheckRecoveredRowsTest, RejectsADroppedRow) {
  std::map<std::string, Row> expected;
  std::vector<Row> recovered;
  for (int i = 0; i < 5; ++i) {
    Row row{Value("k" + std::to_string(i)), Value(int64_t(i)), Value(1.5 * i)};
    expected[nagano::db::KeyString(row[0])] = row;
    recovered.push_back(row);
  }
  EXPECT_EQ(CheckRecoveredRows(expected, recovered, 0), "");
  recovered.erase(recovered.begin() + 2);
  EXPECT_NE(CheckRecoveredRows(expected, recovered, 0), "");
}

TEST(CheckRecoveredRowsTest, RejectsAChangedOrExtraRow) {
  std::map<std::string, Row> expected = {
      {"k0", Row{Value("k0"), Value(int64_t(1))}}};
  EXPECT_NE(CheckRecoveredRows(expected, {Row{Value("k0"), Value(int64_t(2))}},
                               0),
            "");
  EXPECT_NE(CheckRecoveredRows(expected,
                               {Row{Value("k0"), Value(int64_t(1))},
                                Row{Value("k9"), Value(int64_t(1))}},
                               0),
            "");
}

TEST(CheckResponseTest, RejectsStatusAndLengthFaults) {
  ParsedResponse ok{200, 5, "hello", 0};
  EXPECT_EQ(CheckResponse(ok), "");
  ParsedResponse not_found = ok;
  not_found.status = 404;
  EXPECT_NE(CheckResponse(not_found), "");
  ParsedResponse short_body = ok;
  short_body.content_length = 6;
  EXPECT_NE(CheckResponse(short_body), "");
  ParsedResponse extra = ok;
  extra.trailing_bytes = 3;
  EXPECT_NE(CheckResponse(extra), "");
  ParsedResponse no_length = ok;
  no_length.content_length = -1;
  EXPECT_NE(CheckResponse(no_length), "");
}

TEST(CheckVisibleTest, RejectsALateOrMissingScore) {
  EXPECT_EQ(CheckVisibleWithin({1.0, 2.0}, 2, 60000), "");
  EXPECT_NE(CheckVisibleWithin({1.0}, 2, 60000), "");
  EXPECT_NE(CheckVisibleWithin({1.0, 60001.0}, 2, 60000), "");
}

TEST(PercentileTest, MatchesAHandComputedSample) {
  // Sorted: 1 2 3 4 5 6 7 8 9 10 (n = 10).
  const std::vector<double> v = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  // rank = p * (n - 1): p50 -> 4.5 -> (5 + 6) / 2; p90 -> 8.1 -> 9 + 0.1;
  // p99 -> 8.91 -> 9 + 0.91.
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 9.1);
  EXPECT_NEAR(Percentile(v, 0.99), 9.91, 1e-12);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

// Virtual time: ops advance it by their service time; sleeping jumps to
// the wake-up time.
struct FakeClock {
  int64_t now = 0;
  int64_t Now() const { return now; }
  void SleepUntil(int64_t t) { now = std::max(now, t); }
};

TEST(OpenLoopTest, ChargesAStallToTheRequestsQueuedBehindIt) {
  FakeClock clock;
  const OpenLoopSchedule schedule{0, 1'000'000};  // one request per ms
  // Every request takes 0.1 ms except request 2, which stalls 10 ms.
  OpenLoopResult r = RunOpenLoop(schedule, 0, 1, 8'000'000, clock,
                                 [&](uint64_t i) {
                                   clock.now += i == 2 ? 10'000'000 : 100'000;
                                 });
  ASSERT_EQ(r.latency_us.size(), 8u);
  EXPECT_DOUBLE_EQ(r.latency_us[0], 100);
  EXPECT_DOUBLE_EQ(r.latency_us[1], 100);
  EXPECT_DOUBLE_EQ(r.latency_us[2], 10'000);
  // Request 3 was due at 3 ms but could only start at 12 ms: done at
  // 12.1 ms, so 9.1 ms from its due time; each later one 1 ms less.
  EXPECT_DOUBLE_EQ(r.latency_us[3], 9'100);
  EXPECT_DOUBLE_EQ(r.lateness_us[3], 9'000);
  EXPECT_DOUBLE_EQ(r.latency_us[4], 8'200);
  EXPECT_DOUBLE_EQ(r.latency_us[7], 5'500);
}

TEST(OpenLoopTest, StridedThreadsShareOneSchedule) {
  FakeClock clock;
  const OpenLoopSchedule schedule{0, 1'000'000};
  std::vector<uint64_t> issued;
  RunOpenLoop(schedule, 1, 3, 10'000'000, clock,
              [&](uint64_t i) { issued.push_back(i); });
  EXPECT_EQ(issued, (std::vector<uint64_t>{1, 4, 7}));
}

}  // namespace
}  // namespace perfbench
