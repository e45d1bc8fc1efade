// Correctness checks, computed apart from the program: each takes what the
// benchmark observed (response bytes, its own record of what it wrote)
// and returns an empty string when the property holds, else a message
// naming the first violation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"

namespace perfbench {

// The score as the site prints it (two decimals), formatted here rather
// than by the program.
std::string ScoreText(double score);

// One HTTP response as the load generator parsed it.
struct ParsedResponse {
  int status = 0;
  int64_t content_length = -1;  // -1 when the header is absent
  std::string body;
  size_t trailing_bytes = 0;    // bytes received past Content-Length
};

// 200, a Content-Length header, and a body of exactly that length.
std::string CheckResponse(const ParsedResponse& response);

// Every page of `a` exists in `b` with identical bytes, and vice versa.
std::string CheckReplicasIdentical(
    const std::map<std::string, std::string>& a,
    const std::map<std::string, std::string>& b);

// What the benchmark read from the database for one event page.
struct ExpectedEventRow {
  std::string score;    // ScoreText of the stored score
  std::string athlete;  // athlete name from the athletes table
};
std::string CheckEventPage(std::string_view page, std::string_view body,
                           std::string_view event_name,
                           const std::vector<ExpectedEventRow>& rows);

// Sums the per-country gold/silver/bronze cells of the medal table and
// checks each row's total cell, then that the sum equals 3 x completions.
std::string CheckMedals(std::string_view medals_body, uint64_t completions);

// The rows recovered for one table equal the benchmark's record of what it
// wrote (key -> last row written), row by row, with nothing extra.
std::string CheckRecoveredRows(
    const std::map<std::string, nagano::db::Row>& expected,
    const std::vector<nagano::db::Row>& recovered, size_t key_column);

// Every committed score was seen on every backend within `bound_ms`.
std::string CheckVisibleWithin(const std::vector<double>& visible_ms,
                               uint64_t committed, double bound_ms);

}  // namespace perfbench
