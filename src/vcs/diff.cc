#include "src/vcs/diff.h"

namespace vc {

std::vector<std::string_view> SplitLines(std::string_view content) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < content.size()) {
    size_t pos = content.find('\n', start);
    if (pos == std::string_view::npos) {
      lines.push_back(content.substr(start));
      break;
    }
    lines.push_back(content.substr(start, pos - start));
    start = pos + 1;
  }
  return lines;
}

std::vector<Edit> DiffLines(const std::vector<std::string_view>& a,
                            const std::vector<std::string_view>& b) {
  // The common prefix is exactly the snake Myers follows at d = 0, so keeping
  // it up front and searching only the rest yields the same script. The
  // common suffix is NOT trimmed: Myers does not always pair trailing equal
  // lines ([A] -> [B, A, A] keeps the first A, a suffix trim the last), and
  // blame would then credit the new commit with a different line.
  const int total_n = static_cast<int>(a.size());
  const int total_m = static_cast<int>(b.size());
  int prefix = 0;
  while (prefix < total_n && prefix < total_m && a[prefix] == b[prefix]) {
    ++prefix;
  }
  std::vector<Edit> edits;
  edits.reserve(static_cast<size_t>(total_n + total_m - prefix));
  for (int i = 0; i < prefix; ++i) {
    edits.push_back({EditOp::kKeep, i, i});
  }
  const int n = total_n - prefix;
  const int m = total_m - prefix;
  const int max_d = n + m;
  auto a_at = [&](int x) -> std::string_view { return a[prefix + x]; };
  auto b_at = [&](int y) -> std::string_view { return b[prefix + y]; };

  // Myers' greedy algorithm on the remainder. `v[k]` holds the furthest x on
  // diagonal k. One padding slot on each side keeps the k±1 reads in bounds at
  // the extreme diagonals (notably k = -d = max_d = 0 when both sides are
  // empty). Step d reads and writes only diagonals -d-1..d+1, so that slice is
  // all the backtrack needs of it: `trace` stores step d's slice at offset
  // d*(d+2), O(D^2) in total instead of a full copy of `v` per step.
  std::vector<int> v(2 * max_d + 3, 0);
  auto vk = [&](int k) -> int& { return v[k + max_d + 1]; };
  std::vector<int> trace;
  auto traced = [&](int d, int k) { return trace[d * (d + 2) + k + d + 1]; };

  int final_d = -1;
  for (int d = 0; d <= max_d; ++d) {
    for (int k = -d; k <= d; k += 2) {
      int x;
      if (k == -d || (k != d && vk(k - 1) < vk(k + 1))) {
        x = vk(k + 1);  // move down (insert from b)
      } else {
        x = vk(k - 1) + 1;  // move right (delete from a)
      }
      int y = x - k;
      while (x < n && y < m && a_at(x) == b_at(y)) {
        ++x;
        ++y;
      }
      vk(k) = x;
      if (x >= n && y >= m) {
        final_d = d;
        break;
      }
    }
    trace.insert(trace.end(), v.begin() + (max_d - d), v.begin() + (max_d + d + 3));
    if (final_d >= 0) {
      break;
    }
  }

  // Backtrack from (n, m).
  std::vector<Edit> reversed;
  int x = n;
  int y = m;
  for (int d = final_d; d > 0; --d) {
    int k = x - y;
    int prev_k;
    if (k == -d || (k != d && traced(d - 1, k - 1) < traced(d - 1, k + 1))) {
      prev_k = k + 1;
    } else {
      prev_k = k - 1;
    }
    int prev_x = traced(d - 1, prev_k);
    int prev_y = prev_x - prev_k;
    while (x > prev_x && y > prev_y) {
      reversed.push_back({EditOp::kKeep, x - 1, y - 1});
      --x;
      --y;
    }
    if (x == prev_x) {
      reversed.push_back({EditOp::kInsert, -1, y - 1});
      --y;
    } else {
      reversed.push_back({EditOp::kDelete, x - 1, -1});
      --x;
    }
  }
  while (x > 0 && y > 0) {
    reversed.push_back({EditOp::kKeep, x - 1, y - 1});
    --x;
    --y;
  }
  while (x > 0) {
    reversed.push_back({EditOp::kDelete, x - 1, -1});
    --x;
  }
  while (y > 0) {
    reversed.push_back({EditOp::kInsert, -1, y - 1});
    --y;
  }

  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    Edit edit = *it;
    if (edit.old_index >= 0) {
      edit.old_index += prefix;
    }
    if (edit.new_index >= 0) {
      edit.new_index += prefix;
    }
    edits.push_back(edit);
  }
  return edits;
}

std::vector<std::string> ApplyEdits(const std::vector<std::string_view>& a,
                                    const std::vector<std::string_view>& b,
                                    const std::vector<Edit>& edits) {
  std::vector<std::string> out;
  for (const Edit& edit : edits) {
    switch (edit.op) {
      case EditOp::kKeep:
        out.emplace_back(a[edit.old_index]);
        break;
      case EditOp::kInsert:
        out.emplace_back(b[edit.new_index]);
        break;
      case EditOp::kDelete:
        break;
    }
  }
  return out;
}

}  // namespace vc
