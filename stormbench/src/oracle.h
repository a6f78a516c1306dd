// Brute-force truths for the benchmark's correctness checks, computed from
// the generated inputs plus every acknowledged insert. Independent of the
// engine: no index, no sampler, no estimator — a sorted scan.

#ifndef STORMBENCH_ORACLE_H_
#define STORMBENCH_ORACLE_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace stormbench {

/// A closed REGION(x1, y1, x2, y2) box, optionally with a time window.
struct Box {
  double x1 = 0, y1 = 0, x2 = 0, y2 = 0;
  double t1 = -INFINITY, t2 = INFINITY;
  bool Contains(double x, double y, double t = 0.0) const {
    return x >= x1 && x <= x2 && y >= y1 && y <= y2 && t >= t1 && t <= t2;
  }
};

/// One record as the oracle sees it: position, time, one numeric value, and
/// an optional integer key (station, user) and text.
struct Rec {
  double x = 0, y = 0, t = 0, v = 0;
  int64_t key = 0;
  std::string text;
};

/// Records sorted by x, plus inserts in acknowledgement order. Queries name
/// how many inserts had been acknowledged when they were issued.
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<Rec> base) : base_(std::move(base)) {
    std::sort(base_.begin(), base_.end(),
              [](const Rec& a, const Rec& b) { return a.x < b.x; });
  }

  void Add(Rec r) { added_.push_back(std::move(r)); }
  size_t added() const { return added_.size(); }

  /// Calls fn(rec) for every record inside `box`, counting the first
  /// `n_added` inserts.
  template <typename Fn>
  void ForEach(const Box& box, size_t n_added, Fn&& fn) const {
    auto lo = std::lower_bound(
        base_.begin(), base_.end(), box.x1,
        [](const Rec& r, double x) { return r.x < x; });
    for (auto it = lo; it != base_.end() && it->x <= box.x2; ++it) {
      if (box.Contains(it->x, it->y, it->t)) fn(*it);
    }
    for (size_t i = 0; i < n_added && i < added_.size(); ++i) {
      if (box.Contains(added_[i].x, added_[i].y, added_[i].t)) fn(added_[i]);
    }
  }

  std::vector<double> Values(const Box& box, size_t n_added) const {
    std::vector<double> out;
    ForEach(box, n_added, [&](const Rec& r) { out.push_back(r.v); });
    return out;
  }

 private:
  std::vector<Rec> base_;
  std::vector<Rec> added_;
};

/// The q-quantile as the query language defines it: the value at 0-based
/// rank floor(q * n) of the sorted values (the upper median for even n).
inline double TrueQuantile(std::vector<double> values, double q) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(values.size() - 1,
                               static_cast<size_t>(std::floor(q * values.size())));
  return values[rank];
}

/// Whether `text` contains `term` as a whole token (lower-cased words of
/// letters, digits, '#' and '@'; apostrophes dropped).
inline bool HasToken(const std::string& text, const std::string& term) {
  std::string cur;
  auto flush = [&] {
    bool hit = cur == term;
    cur.clear();
    return hit;
  };
  for (char ch : text) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (std::isalnum(c) || ch == '#' || ch == '@') {
      cur.push_back(static_cast<char>(std::tolower(c)));
    } else if (ch == '\'') {
      continue;
    } else if (!cur.empty() && flush()) {
      return true;
    }
  }
  return !cur.empty() && flush();
}

/// Pooled interval coverage: how many reported intervals held the truth.
struct Coverage {
  uint64_t n = 0;
  uint64_t covered = 0;
  void Add(bool hit) {
    ++n;
    covered += hit ? 1 : 0;
  }
  double share() const { return n == 0 ? 1.0 : double(covered) / double(n); }
  /// Whether the share reaches the lower edge of the binomial band
  /// (z = 3.29, one-sided 99.95%) around the nominal level. Coverage above
  /// the band means conservative intervals, which the engine allows (order-
  /// statistic bounds, finite-population corrections).
  bool WithinBand(double nominal) const {
    if (n == 0) return true;
    const double sd = std::sqrt(nominal * (1.0 - nominal) / double(n));
    return share() >= nominal - 3.29 * sd;
  }
};

/// |a - b| within floating-point summation noise.
inline bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

}  // namespace stormbench

#endif  // STORMBENCH_ORACLE_H_
