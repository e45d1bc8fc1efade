#include "checks.h"

#include <cstdio>
#include <set>

namespace perfbench {

std::string ScoreText(double score) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", score);
  return buf;
}

std::string CheckResponse(const ParsedResponse& response) {
  if (response.status != 200) {
    return "status " + std::to_string(response.status);
  }
  if (response.content_length < 0) return "no Content-Length header";
  if (response.body.size() != static_cast<size_t>(response.content_length) ||
      response.trailing_bytes != 0) {
    return "body of " +
           std::to_string(response.body.size() + response.trailing_bytes) +
           " bytes, Content-Length " + std::to_string(response.content_length);
  }
  return "";
}

std::string CheckReplicasIdentical(
    const std::map<std::string, std::string>& a,
    const std::map<std::string, std::string>& b) {
  for (const auto& [page, body] : a) {
    auto it = b.find(page);
    if (it == b.end()) return page + " missing from the second replica";
    if (it->second != body) return page + " differs between replicas";
  }
  for (const auto& [page, body] : b) {
    if (a.count(page) == 0) return page + " missing from the first replica";
  }
  return "";
}

std::string CheckEventPage(std::string_view page, std::string_view body,
                           std::string_view event_name,
                           const std::vector<ExpectedEventRow>& rows) {
  if (body.find(event_name) == std::string_view::npos) {
    return std::string(page) + " lacks its event name " +
           std::string(event_name);
  }
  for (const ExpectedEventRow& row : rows) {
    if (body.find("<td>" + row.score + "</td>") == std::string_view::npos) {
      return std::string(page) + " lacks score " + row.score;
    }
    if (body.find(">" + row.athlete + "<") == std::string_view::npos) {
      return std::string(page) + " lacks athlete " + row.athlete;
    }
  }
  return "";
}

namespace {

// Parses "<td>N</td>" at `at`; advances past it.
bool ReadIntCell(std::string_view body, size_t& at, int64_t* out) {
  static constexpr std::string_view kOpen = "<td>";
  if (body.compare(at, kOpen.size(), kOpen) != 0) return false;
  at += kOpen.size();
  const size_t close = body.find("</td>", at);
  if (close == std::string_view::npos || close == at) return false;
  int64_t v = 0;
  for (size_t i = at; i < close; ++i) {
    if (body[i] < '0' || body[i] > '9') return false;
    v = v * 10 + (body[i] - '0');
  }
  *out = v;
  at = close + 5;
  return true;
}

}  // namespace

std::string CheckMedals(std::string_view medals_body, uint64_t completions) {
  static constexpr std::string_view kRow = "<tr><td><a ";
  static constexpr std::string_view kNameEnd = "</a></td>";
  int64_t shown = 0;
  size_t rows = 0;
  for (size_t at = medals_body.find(kRow); at != std::string_view::npos;
       at = medals_body.find(kRow, at)) {
    size_t cell = medals_body.find(kNameEnd, at);
    if (cell == std::string_view::npos) return "malformed medal row";
    cell += kNameEnd.size();
    int64_t g = 0, s = 0, b = 0, total = 0;
    if (!ReadIntCell(medals_body, cell, &g) ||
        !ReadIntCell(medals_body, cell, &s) ||
        !ReadIntCell(medals_body, cell, &b) ||
        !ReadIntCell(medals_body, cell, &total)) {
      return "malformed medal cells in row " + std::to_string(rows + 1);
    }
    if (g + s + b != total) {
      return "medal row " + std::to_string(rows + 1) + " totals " +
             std::to_string(total) + " but sums to " +
             std::to_string(g + s + b);
    }
    shown += total;
    ++rows;
    at = cell;
  }
  if (shown != static_cast<int64_t>(3 * completions)) {
    return "medal table shows " + std::to_string(shown) + " medals for " +
           std::to_string(completions) + " completed events";
  }
  return "";
}

std::string CheckRecoveredRows(
    const std::map<std::string, nagano::db::Row>& expected,
    const std::vector<nagano::db::Row>& recovered, size_t key_column) {
  std::set<std::string> seen;
  for (const nagano::db::Row& row : recovered) {
    if (key_column >= row.size()) return "recovered row without a key";
    const std::string key = nagano::db::KeyString(row[key_column]);
    auto it = expected.find(key);
    if (it == expected.end()) return "recovered row " + key + " never written";
    if (it->second != row) return "recovered row " + key + " differs";
    seen.insert(key);
  }
  for (const auto& [key, row] : expected) {
    if (seen.count(key) == 0) return "row " + key + " lost in recovery";
  }
  return "";
}

std::string CheckVisibleWithin(const std::vector<double>& visible_ms,
                               uint64_t committed, double bound_ms) {
  if (visible_ms.size() != committed) {
    return std::to_string(committed - visible_ms.size()) + " of " +
           std::to_string(committed) + " committed scores never became visible";
  }
  for (const double ms : visible_ms) {
    if (ms > bound_ms) {
      return "a score took " + std::to_string(ms) + " ms to become visible";
    }
  }
  return "";
}

}  // namespace perfbench
