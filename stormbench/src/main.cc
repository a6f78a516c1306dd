// storm_bench: the STORM benchmark program (see ../README.md).
//
//   storm_bench --workload pan_local|served_mix|fleet_agg --seed N
//               --seconds S --trace 0|1 --server-bin PATH [--trace-out FILE]
//
// Each workload drives the system from this one process, with one client
// thread and one connection, in a closed loop: issue a query, watch its
// progress, then issue the next. All inputs (tables, query windows, insert
// batches) come from --seed; the same seed gives the same operations in the
// same order. A run warms up with a fixed number of rounds, then times
// whole rounds until --seconds have passed, checks every answer against a
// brute-force oracle, and prints one JSON object as its last line:
// end-to-end metrics with --trace 0, the per-layer ladder with --trace 1.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "storm/cluster/net_coordinator.h"
#include "storm/server/protocol.h"
#include "storm/storm.h"

namespace stormbench {
namespace {

using storm::BatchInsertResult;
using storm::ExecOptions;
using storm::QueryProgress;
using storm::QueryResult;
using storm::Result;
using storm::Value;

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--server-bin") {
      a->server_bin = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// ---------------------------------------------------------------------------
// Operations

enum class Kind {
  kAggregate,    // AVG/SUM/COUNT with an ERROR target
  kStratCount,   // COUNT(*) ... USING STRATIFIED: exact
  kQuantile,     // MEDIAN / QUANTILE with a SAMPLES budget
  kGroupCell,    // AVG GROUP BY CELL(n, n)
  kGroupField,   // AVG GROUP BY station
  kKde,
  kTopTerms,
  kCluster,
  kTrajectory,
  kUnsupported,  // fleet: refused with kNotSupported
  kInsert,
};

struct Op {
  Kind kind = Kind::kAggregate;
  std::string type;   // ledger name
  std::string table;  // oracle table: "osm", "tweets", "mesowest"
  std::string text;   // query text (queries only)
  Box box;
  std::string agg;    // AVG / SUM / COUNT
  double quantile = 0.5;
  int cells = 0;      // GROUP BY CELL(cells, cells), KDE width, CLUSTER k
  int64_t object = 0; // TRAJECTORY user
  std::vector<Value> docs;  // insert batch
  std::vector<Rec> recs;    // the same batch, as the oracle sees it
};

/// One executed query and what the checks need of it.
struct Done {
  const Op* op = nullptr;
  bool ok = false;
  storm::Status status;
  QueryResult result;
  size_t inserts_before = 0;  ///< acknowledged insert records at issue time
  double ttfci_ms = 0.0;
  double ttci_ms = 0.0;
  int frames = 0;
  bool traced = false;  ///< ran with profiles and bench spans on
};

double Round4(double v) { return std::round(v * 1e4) / 1e4; }

Box MakeBox(double cx, double cy, double w, double h) {
  Box b;
  b.x1 = Round4(cx - w / 2);
  b.x2 = Round4(cx + w / 2);
  b.y1 = Round4(cy - h / 2);
  b.y2 = Round4(cy + h / 2);
  return b;
}

std::string Region(const Box& b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "REGION(%.4f, %.4f, %.4f, %.4f)", b.x1, b.y1,
                b.x2, b.y2);
  return buf;
}

Op AggOp(const std::string& table, const std::string& agg, const Box& box,
         const std::string& error) {
  Op op;
  op.kind = Kind::kAggregate;
  op.type = "aggregate";
  op.table = table;
  op.agg = agg;
  op.box = box;
  const std::string arg = agg == "COUNT" ? "*" : "altitude";
  op.text = "SELECT " + agg + "(" + arg + ") FROM " + table + " " +
            Region(box) + " ERROR " + error;
  return op;
}

// ---------------------------------------------------------------------------
// Inputs

using Rng = std::mt19937_64;

double Uniform(Rng& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

std::vector<storm::OsmPoint> OsmPoints(uint64_t n, uint64_t seed) {
  storm::OsmOptions o;
  o.num_points = n;
  o.seed = seed;
  return storm::OsmLikeGenerator(o).Generate();
}

std::vector<Value> OsmDocs(const std::vector<storm::OsmPoint>& pts) {
  std::vector<Value> docs;
  docs.reserve(pts.size());
  for (const auto& p : pts) docs.push_back(storm::OsmLikeGenerator::ToDocument(p));
  return docs;
}

std::vector<Rec> OsmRecs(const std::vector<storm::OsmPoint>& pts) {
  std::vector<Rec> recs;
  recs.reserve(pts.size());
  for (const auto& p : pts) recs.push_back({p.lon, p.lat, 0.0, p.altitude, 0, {}});
  return recs;
}

/// An insert batch of `n` points jittered around existing ones.
Op InsertOp(Rng& rng, const std::vector<storm::OsmPoint>& near, int n) {
  Op op;
  op.kind = Kind::kInsert;
  op.type = "insert";
  op.table = "osm";
  std::normal_distribution<double> jitter(0.0, 0.05);
  std::normal_distribution<double> alt(0.0, 50.0);
  for (int i = 0; i < n; ++i) {
    const auto& p = near[rng() % near.size()];
    storm::OsmPoint q;
    q.lon = p.lon + jitter(rng);
    q.lat = p.lat + jitter(rng);
    q.altitude = p.altitude + alt(rng);
    q.id = 10'000'000 + (rng() % 1'000'000);
    op.docs.push_back(storm::OsmLikeGenerator::ToDocument(q));
    op.recs.push_back({q.lon, q.lat, 0.0, q.altitude, 0, {}});
  }
  return op;
}

// ---------------------------------------------------------------------------
// The system under test, as the client sees it.

struct Target {
  std::function<Result<QueryResult>(const std::string&, const ExecOptions&)>
      execute;
  std::function<BatchInsertResult(const std::string&, const std::vector<Value>&)>
      insert;
};

// ---------------------------------------------------------------------------
// The run: warm-up, timed rounds, checks, metrics.

struct WorkloadSpec {
  std::string name;
  int warmup_rounds = 0;
  std::function<std::vector<Op>(Rng&)> round;
};

struct Oracles {
  std::map<std::string, Oracle> tables;
};

class Runner {
 public:
  Runner(Target target, Oracles* oracles, Ledger* ledger, SpanLog* spans)
      : target_(std::move(target)), oracles_(oracles),
        ledger_(ledger), spans_(spans) {}

  /// Runs one operation; `timed` puts it in the ledger and the metrics.
  void Run(const Op& op, bool timed, bool profile) {
    const uint64_t trace_id = ++trace_ids_;
    ScopedSpan span(spans_, "bench." + op.type, trace_id);
    if (timed) ledger_->Attempt(op.type);
    if (op.kind == Kind::kInsert) {
      const double t0 = NowMs();
      BatchInsertResult r;
      {
        ScopedSpan call(spans_, "client.insert_batch", trace_id);
        r = target_.insert(op.table, op.docs);
      }
      const double ms = NowMs() - t0;
      if (!r.status.ok() || r.ids.size() != op.docs.size()) {
        if (timed) ledger_->Fail(op.type);
        ledger_->Wrong("insert batch refused: " + r.status.ToString());
        return;
      }
      for (const Rec& rec : op.recs) oracles_->tables[op.table].Add(rec);
      if (timed) insert_ms_.push_back(ms);
      return;
    }
    Done d;
    d.op = &op;
    d.traced = profile;
    d.inserts_before = oracles_->tables[op.table].added();
    ExecOptions options;
    options.WithProfile(profile);
    double first_ci = -1.0;
    const double t0 = NowMs();
    options.WithProgress([&](const QueryProgress& p) {
      ++d.frames;
      if (first_ci < 0 && p.samples > 0 && std::isfinite(p.ci.half_width)) {
        first_ci = NowMs() - t0;
      }
      return true;
    });
    Result<QueryResult> r = [&] {
      ScopedSpan call(spans_, "client.execute", trace_id);
      return target_.execute(op.text, options);
    }();
    d.ttci_ms = NowMs() - t0;
    d.ttfci_ms = first_ci >= 0 ? first_ci : d.ttci_ms;
    d.ok = r.ok();
    if (r.ok()) {
      d.result = std::move(*r);
    } else {
      d.status = r.status();
      if (timed) ledger_->Fail(op.type);
    }
    done_.push_back(std::move(d));
  }

  /// Warm-up rounds, then whole timed rounds until the budget is spent.
  /// With `traced` set, every other timed round runs with profiles and
  /// bench spans on, so traced and untraced rounds share the same state.
  void Drive(const WorkloadSpec& spec, Rng& rng, double seconds, SpanLog* traced) {
    for (int i = 0; i < spec.warmup_rounds; ++i) {
      rounds_.push_back(spec.round(rng));
      for (const Op& op : rounds_.back()) Run(op, false, false);
    }
    Note("%s: warm-up done, %zu queries", spec.name.c_str(), done_.size());
    timed_begin_ = done_.size();
    const double t0 = NowMs();
    for (int round = 0; NowMs() - t0 < seconds * 1000.0; ++round) {
      const bool on = traced != nullptr && round % 2 == 1;
      if (traced != nullptr) traced->set_enabled(on);
      rounds_.push_back(spec.round(rng));
      for (const Op& op : rounds_.back()) Run(op, true, on);
    }
    if (traced != nullptr) traced->set_enabled(false);
    timed_ms_ = NowMs() - t0;
    timed_end_ = done_.size();
    Note("%s: timed phase done, %zu queries", spec.name.c_str(), timed_end_ - timed_begin_);
  }

  /// Checks every executed query against the oracle.
  void Check();

  const std::vector<Done>& done() const { return done_; }
  const std::vector<double>& insert_ms() const { return insert_ms_; }
  double timed_ms() const { return timed_ms_; }
  size_t timed_begin() const { return timed_begin_; }
  size_t timed_end() const { return timed_end_; }
  const Coverage& error_coverage() const { return error_cov_; }
  const Coverage& budget_coverage() const { return budget_cov_; }

 private:
  void CheckAggregate(const Done& d);
  void CheckQuantile(const Done& d);
  void CheckGroups(const Done& d);
  void CheckTrajectory(const Done& d);
  void CheckTopTerms(const Done& d);
  void CheckShape(const Done& d);

  Target target_;
  Oracles* oracles_;
  Ledger* ledger_;
  SpanLog* spans_;
  uint64_t trace_ids_ = 0;
  std::vector<std::vector<Op>> rounds_;  // owns every Op a Done points at
  std::vector<Done> done_;
  std::vector<double> insert_ms_;
  size_t timed_begin_ = 0;
  size_t timed_end_ = 0;
  double timed_ms_ = 0.0;
  Coverage error_cov_;   // ERROR-stopped intervals
  Coverage budget_cov_;  // SAMPLES-budget intervals
  Coverage terms_cov_;   // TOPTERMS top-1 frequency intervals
};

bool Covers(const storm::ConfidenceInterval& ci, double truth) {
  const double slack = 1e-9 * std::max(1.0, std::fabs(truth));
  return std::fabs(ci.estimate - truth) <= ci.half_width + slack;
}

void Runner::CheckAggregate(const Done& d) {
  const Op& op = *d.op;
  const Oracle& o = oracles_->tables.at(op.table);
  double count = 0, sum = 0;
  o.ForEach(op.box, d.inserts_before, [&](const Rec& r) {
    count += 1;
    sum += r.v;
  });
  const QueryResult& r = d.result;
  if (count == 0) {
    if (r.samples != 0) ledger_->Wrong("samples drawn from an empty window: " + op.text);
    return;
  }
  const double truth =
      op.agg == "COUNT" ? count : op.agg == "SUM" ? sum : sum / count;
  if (op.kind == Kind::kStratCount || r.ci.exact || r.exhausted) {
    if (!Close(r.ci.estimate, truth)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " -> %.6g, truth %.6g", r.ci.estimate, truth);
      ledger_->Wrong("exact answer differs: " + op.text + buf);
    }
    return;
  }
  error_cov_.Add(Covers(r.ci, truth));
}

void Runner::CheckQuantile(const Done& d) {
  const Op& op = *d.op;
  const Oracle& o = oracles_->tables.at(op.table);
  const double truth = TrueQuantile(o.Values(op.box, d.inserts_before), op.quantile);
  if (std::isnan(truth)) return;
  const QueryResult& r = d.result;
  if (r.exhausted) {
    if (!Close(r.ci.estimate, truth)) ledger_->Wrong("exact quantile differs: " + op.text);
    return;
  }
  budget_cov_.Add(truth >= r.ci_lower - 1e-9 && truth <= r.ci_upper + 1e-9);
}

void Runner::CheckGroups(const Done& d) {
  const Op& op = *d.op;
  const Oracle& o = oracles_->tables.at(op.table);
  std::map<int64_t, std::pair<double, double>> truth;  // key -> (count, sum)
  const int n = op.cells;
  o.ForEach(op.box, d.inserts_before, [&](const Rec& r) {
    int64_t key = r.key;
    if (op.kind == Kind::kGroupCell) {
      int cx = static_cast<int>((r.x - op.box.x1) / (op.box.x2 - op.box.x1) * n);
      int cy = static_cast<int>((r.y - op.box.y1) / (op.box.y2 - op.box.y1) * n);
      key = static_cast<int64_t>(std::clamp(cy, 0, n - 1)) * n + std::clamp(cx, 0, n - 1);
    }
    truth[key].first += 1;
    truth[key].second += r.v;
  });
  for (const storm::GroupRow& g : d.result.groups) {
    auto it = truth.find(g.key);
    if (it == truth.end()) {
      ledger_->Wrong("group absent from the data: " + op.text);
      continue;
    }
    const double avg = it->second.second / it->second.first;
    if (g.ci.exact) {
      if (!Close(g.ci.estimate, avg)) ledger_->Wrong("exact group differs: " + op.text);
    } else if (g.samples >= 30) {
      budget_cov_.Add(Covers(g.ci, avg));
    }
  }
}

void Runner::CheckTrajectory(const Done& d) {
  const Op& op = *d.op;
  const Oracle& o = oracles_->tables.at(op.table);
  std::vector<std::pair<double, std::pair<double, double>>> want;
  o.ForEach(op.box, d.inserts_before, [&](const Rec& r) {
    if (r.key == op.object) want.push_back({r.t, {r.x, r.y}});
  });
  std::sort(want.begin(), want.end());
  const auto& got = d.result.trajectory;
  if (!d.result.exhausted) {
    ledger_->Wrong("trajectory did not run to its exact answer: " + op.text);
    return;
  }
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    same = Close(got[i].t, want[i].first) &&
           Close(got[i].position[0], want[i].second.first) &&
           Close(got[i].position[1], want[i].second.second);
  }
  if (!same) {
    ledger_->Wrong("trajectory differs (" + std::to_string(got.size()) + " vs " +
                   std::to_string(want.size()) + " fixes): " + op.text);
  }
}

void Runner::CheckTopTerms(const Done& d) {
  const Op& op = *d.op;
  const auto& terms = d.result.terms;
  if (terms.empty()) {
    if (d.result.samples > 0) ledger_->Wrong("no terms from a sampled window: " + op.text);
    return;
  }
  const Oracle& o = oracles_->tables.at(op.table);
  double docs = 0, with = 0;
  o.ForEach(op.box, d.inserts_before, [&](const Rec& r) {
    docs += 1;
    with += HasToken(r.text, terms[0].term) ? 1 : 0;
  });
  if (with == 0) ledger_->Wrong("top term absent from the window: " + op.text);
  terms_cov_.Add(docs > 0 && Covers(terms[0].frequency, with / docs));
}

void Runner::CheckShape(const Done& d) {
  const Op& op = *d.op;
  const QueryResult& r = d.result;
  if (op.kind == Kind::kKde) {
    bool fine = r.kde_width == op.cells && r.kde_height == op.cells &&
                r.kde_map.size() == size_t(op.cells) * op.cells;
    double mass = 0;
    for (double v : r.kde_map) {
      fine = fine && std::isfinite(v) && v >= 0;
      mass += v;
    }
    if (!fine || mass <= 0) ledger_->Wrong("malformed density map: " + op.text);
  } else {  // kCluster
    bool fine = !r.centers.empty() && r.centers.size() <= size_t(op.cells) &&
                std::isfinite(r.inertia) && r.inertia >= 0;
    const double slack = 1e-6;
    for (const auto& c : r.centers) {
      fine = fine && c[0] >= op.box.x1 - slack && c[0] <= op.box.x2 + slack &&
             c[1] >= op.box.y1 - slack && c[1] <= op.box.y2 + slack;
    }
    if (!fine) ledger_->Wrong("cluster centers outside the window: " + op.text);
  }
}

void Runner::Check() {
  const double t0 = NowMs();
  for (const Done& d : done_) {
    if (!d.ok) {
      // The one expected refusal: the fleet's kept-failing slice.
      if (d.op->kind != Kind::kUnsupported || !d.status.IsNotSupported()) {
        ledger_->Wrong("query failed: " + d.op->text + ": " + d.status.ToString());
      }
      continue;
    }
    switch (d.op->kind) {
      case Kind::kAggregate:
      case Kind::kStratCount:
        CheckAggregate(d);
        break;
      case Kind::kQuantile:
        CheckQuantile(d);
        break;
      case Kind::kGroupCell:
      case Kind::kGroupField:
        CheckGroups(d);
        break;
      case Kind::kTrajectory:
        CheckTrajectory(d);
        break;
      case Kind::kTopTerms:
        CheckTopTerms(d);
        break;
      case Kind::kKde:
      case Kind::kCluster:
        CheckShape(d);
        break;
      case Kind::kUnsupported:
        break;  // answered after all: nothing to compare against
      case Kind::kInsert:
        break;
    }
  }
  // Interval answers: pooled coverage. SAMPLES-budget intervals must reach
  // the binomial band around 95%. ERROR-stopped intervals stop on their own
  // half-width, which biases coverage low (README.md, findings); they are
  // held to an 85% floor that only catches a broken estimator. TOPTERMS
  // reports the top-1 term, chosen for its high estimate, so its coverage
  // is printed, not gated; the term must occur in the window.
  std::printf("coverage error_stopped %llu/%llu = %.4f\n",
              (unsigned long long)error_cov_.covered, (unsigned long long)error_cov_.n,
              error_cov_.share());
  std::printf("coverage samples_budget %llu/%llu = %.4f\n",
              (unsigned long long)budget_cov_.covered, (unsigned long long)budget_cov_.n,
              budget_cov_.share());
  std::printf("coverage topterms_top1 %llu/%llu = %.4f\n",
              (unsigned long long)terms_cov_.covered, (unsigned long long)terms_cov_.n,
              terms_cov_.share());
  Note("checks done in %.2f s", (NowMs() - t0) / 1000.0);
  if (!budget_cov_.WithinBand(0.95)) ledger_->Wrong("SAMPLES-budget coverage outside the binomial band");
  if (error_cov_.n > 0 && error_cov_.share() < 0.85) ledger_->Wrong("ERROR-stopped coverage below 85%");
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
};

std::vector<Metric> EndToEndMetrics(const Runner& run,
                                    const EndToEnd& e2e, bool* drifted) {
  std::vector<double> ttfci, ttci;
  double samples = 0, query_ms = 0, error_samples = 0, error_queries = 0;
  for (size_t i = run.timed_begin(); i < run.timed_end(); ++i) {
    const Done& d = run.done()[i];
    if (!d.ok) continue;
    ttfci.push_back(d.ttfci_ms);
    ttci.push_back(d.ttci_ms);
    samples += double(d.result.samples);
    query_ms += d.ttci_ms;
    if (d.op->kind == Kind::kAggregate) {
      error_samples += double(d.result.samples);
      error_queries += 1;
    }
  }
  // Drift guard: the timed phase's first- and last-quarter medians.
  const size_t q = ttci.size() / 4;
  if (q >= 20) {
    const double first = Median({ttci.begin(), ttci.begin() + q});
    const double last = Median({ttci.end() - q, ttci.end()});
    const double ratio = last / first;
    std::printf("drift ttci p50 first quarter %.4f ms, last quarter %.4f ms, ratio %.3f\n",
                first, last, ratio);
    // served_mix slows as its inserts grow the table and its reservoirs
    // accumulate (README.md, findings): 1.2-1.8x over a 25 s run. A
    // factor of 2.5 means the run never reached a steady state.
    *drifted = ratio > 2.5 || ratio < 0.4;
    if (ratio > 1.25 || ratio < 0.8) std::printf("drift warning: ratio %.3f\n", ratio);
  }
  const std::vector<double>& ins = run.insert_ms();
  std::printf("queries timed %zu (tail p%.0f), inserts timed %zu (tail p%.0f)\n",
              ttci.size(), TailPercentile(ttci.size()), ins.size(), TailPercentile(ins.size()));
  auto tail = [](const std::vector<double>& v) { return Percentile(v, TailPercentile(v.size())); };
  return {
      {"setup_s", e2e.setup_s, "s"},
      {"ttfci_p50_ms", Median(ttfci), "ms"},
      {"ttfci_tail_ms", tail(ttfci), "ms"},
      {"ttci_p50_ms", Median(ttci), "ms"},
      {"ttci_tail_ms", tail(ttci), "ms"},
      {"qps", double(ttci.size()) / (run.timed_ms() / 1000.0), "1/s"},
      {"samples_per_s", samples / (query_ms / 1000.0), "1/s"},
      {"samples_to_ci", error_queries > 0 ? error_samples / error_queries : 0, "count"},
      {"insert_p50_ms", Median(ins), "ms"},
      {"insert_tail_ms", tail(ins), "ms"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
  };
}

// ---------------------------------------------------------------------------
// Workload generators

/// pan_local: map-exploration sessions on a skewed OSM table. A round is one
/// session: an overview window, then pans and zooms inside it.
std::vector<Op> PanSession(Rng& rng, const std::vector<storm::OsmPoint>& pts) {
  std::vector<Op> ops;
  const auto& anchor = pts[rng() % pts.size()];
  double cx = anchor.lon, cy = anchor.lat;
  double w = Uniform(rng, 4.0, 10.0);
  static const char* kAggs[] = {"AVG", "SUM", "COUNT"};
  static const char* kErrors[] = {"0.5%", "1%", "2%"};
  for (int step = 0; step < 12; ++step) {
    const int a = static_cast<int>(rng() % 3);
    ops.push_back(AggOp("osm", kAggs[a], MakeBox(cx, cy, w, w * 0.6), kErrors[a]));
    const double move = Uniform(rng, 0.0, 1.0);
    if (move < 0.5) {  // pan
      cx += Uniform(rng, -0.4, 0.4) * w;
      cy += Uniform(rng, -0.4, 0.4) * w * 0.6;
    } else if (move < 0.8) {  // zoom in
      w = std::max(0.5, w * 0.6);
    } else {  // zoom out, capped below the windows the optimizer sends to
              // SampleFirst (selectivity >= 0.25), where SUM/COUNT with an
              // ERROR target never converges (README.md, findings)
      w = std::min(12.0, w * 1.6);
    }
  }
  return ops;
}

/// A window around a random record of `pts`.
Box AroundPoint(Rng& rng, const std::vector<storm::OsmPoint>& pts, double wmin,
                double wmax) {
  const auto& p = pts[rng() % pts.size()];
  const double w = Uniform(rng, wmin, wmax);
  return MakeBox(p.lon, p.lat, w, w * 0.6);
}

struct DemoData {
  std::vector<storm::OsmPoint> osm;
  std::vector<storm::Tweet> tweets;
  std::vector<storm::WeatherReading> weather;
};

/// The demo tables exactly as storm_server generates them (full size).
DemoData MakeDemoData(bool with_text_tables) {
  DemoData d;
  storm::OsmOptions oo;
  oo.num_points = 200'000;
  d.osm = storm::OsmLikeGenerator(oo).Generate();
  if (with_text_tables) {
    storm::TweetOptions to;
    to.num_tweets = 100'000;
    d.tweets = storm::TweetGenerator(to).Generate();
    storm::WeatherOptions wo;
    wo.num_stations = 400;
    wo.readings_per_station = 96;
    storm::WeatherGenerator wg(wo);
    d.weather = wg.GenerateReadings(wg.GenerateStations());
  }
  return d;
}

// Rows per served_mix insert batch. Query latency on osm grows with the
// rows inserted (README.md, findings); small batches keep a run's growth
// below the drift guard while every fourth query still meets a write.
constexpr int kServedBatchRows = 2;

/// served_mix: every task over mostly disjoint windows, an insert after
/// every fourth query.
std::vector<Op> ServedRound(Rng& rng, const DemoData& demo) {
  std::vector<Op> ops;
  auto osm_box = [&] { return AroundPoint(rng, demo.osm, 1.0, 8.0); };
  auto text = [](const char* head, const char* table, const Box& b, const char* tail) {
    return std::string("SELECT ") + head + " FROM " + table + " " + Region(b) + " " + tail;
  };
  {
    ops.push_back(AggOp("osm", "AVG", osm_box(), "1%"));
    ops.push_back(AggOp("osm", "SUM", osm_box(), "2%"));
    ops.push_back(AggOp("osm", "COUNT", osm_box(), "2%"));
    Op s;
    s.kind = Kind::kStratCount;
    s.type = "stratified";
    s.table = "osm";
    s.agg = "COUNT";
    s.box = osm_box();
    s.text = text("COUNT(*)", "osm", s.box, "USING STRATIFIED");
    ops.push_back(s);
  }
  ops.push_back(InsertOp(rng, demo.osm, kServedBatchRows));
  for (double qv : {0.5, 0.9}) {
    Op m;
    m.kind = Kind::kQuantile;
    m.type = "quantile";
    m.table = "osm";
    m.quantile = qv;
    m.box = osm_box();
    m.text = text(qv == 0.5 ? "MEDIAN(altitude)" : "QUANTILE(90%, altitude)", "osm",
                  m.box, "SAMPLES 2000");
    ops.push_back(m);
  }
  {
    Op g;
    g.kind = Kind::kGroupCell;
    g.type = "groupby";
    g.table = "osm";
    g.cells = 3;
    g.box = osm_box();
    g.text = text("AVG(altitude)", "osm", g.box, "GROUP BY CELL(3, 3) SAMPLES 3000");
    ops.push_back(g);
  }
  {
    Op g;
    g.kind = Kind::kGroupField;
    g.type = "groupby";
    g.table = "mesowest";
    const auto& r = demo.weather[rng() % demo.weather.size()];
    g.box = MakeBox(r.lon, r.lat, 4.0, 3.0);
    g.text = text("AVG(temperature)", "mesowest", g.box, "GROUP BY station SAMPLES 2000");
    ops.push_back(g);
  }
  ops.push_back(InsertOp(rng, demo.osm, kServedBatchRows));
  {
    Op k;
    k.kind = Kind::kKde;
    k.type = "kde";
    k.table = "osm";
    k.cells = 32;
    k.box = osm_box();
    k.text = text("KDE(32, 32)", "osm", k.box, "SAMPLES 3000");
    ops.push_back(k);
  }
  {
    Op t;
    t.kind = Kind::kTopTerms;
    t.type = "topterms";
    t.table = "tweets";
    const auto& tw = demo.tweets[rng() % demo.tweets.size()];
    t.box = MakeBox(tw.lon, tw.lat, 1.0, 1.0);
    t.text = text("TOPTERMS(5, text)", "tweets", t.box, "SAMPLES 500");
    ops.push_back(t);
  }
  {
    Op c;
    c.kind = Kind::kCluster;
    c.type = "cluster";
    c.table = "osm";
    c.cells = 4;
    c.box = osm_box();
    c.text = text("CLUSTER(4)", "osm", c.box, "SAMPLES 2000");
    ops.push_back(c);
  }
  {
    Op t;
    t.kind = Kind::kTrajectory;
    t.type = "trajectory";
    t.table = "tweets";
    t.object = static_cast<int64_t>(rng() % 500);
    const double t1 = std::floor(Uniform(rng, 1372636800.0, 1404172800.0 - 20 * 86400.0));
    t.box.x1 = -1e9;
    t.box.x2 = 1e9;
    t.box.y1 = -1e9;
    t.box.y2 = 1e9;
    t.box.t1 = t1;
    t.box.t2 = t1 + 20 * 86400.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "SELECT TRAJECTORY(user, %lld) FROM tweets TIME(%.0f, %.0f)",
                  static_cast<long long>(t.object), t.box.t1, t.box.t2);
    t.text = buf;
    ops.push_back(t);
  }
  ops.push_back(InsertOp(rng, demo.osm, kServedBatchRows));
  ops.push_back(AggOp("osm", "AVG", osm_box(), "1%"));
  ops.push_back(AggOp("osm", "SUM", osm_box(), "2%"));
  ops.push_back(AggOp("osm", "AVG", osm_box(), "1%"));
  ops.push_back(AggOp("osm", "COUNT", osm_box(), "2%"));
  ops.push_back(InsertOp(rng, demo.osm, kServedBatchRows));
  return ops;
}

constexpr size_t kFleetMinRecords = 1000;

/// fleet_agg: ERROR-targeted aggregates and round-robin inserts through
/// the coordinator, plus the kept-failing slice (GROUP BY, VARIANCE,
/// MEDIAN), which the coordinator refuses with kNotSupported.
std::vector<Op> FleetRound(Rng& rng, const DemoData& demo, const Oracle& osm) {
  std::vector<Op> ops;
  // Windows holding at least kFleetMinRecords records: on sparser windows
  // the merged answer can come back flagged exact over a subset of the
  // qualifying records (README.md, findings), an error that depends on the
  // seed and so cannot be kept as a counted failure.
  auto window = [&] {
    while (true) {
      const Box b = AroundPoint(rng, demo.osm, 1.0, 8.0);
      size_t n = 0;
      osm.ForEach(b, 0, [&](const Rec&) { ++n; });
      if (n >= kFleetMinRecords) return b;
    }
  };
  static const char* kAggs[] = {"AVG", "SUM", "COUNT"};
  static const char* kErrors[] = {"1%", "2%", "2%"};
  for (int i = 0; i < 12; ++i) {
    const int a = i % 3;
    ops.push_back(AggOp("osm", kAggs[a], window(), kErrors[a]));
    if (i % 4 == 3) ops.push_back(InsertOp(rng, demo.osm, kServedBatchRows));
  }
  const Box b = window();
  for (const char* head : {"AVG(altitude)", "VARIANCE(altitude)", "MEDIAN(altitude)"}) {
    Op u;
    u.kind = Kind::kUnsupported;
    u.table = "osm";
    u.box = b;
    const std::string h = head;
    u.type = h.rfind("AVG", 0) == 0 ? "groupby" : h.rfind("VAR", 0) == 0 ? "variance" : "median";
    u.text = "SELECT " + h + " FROM osm " + Region(b) +
             (u.type == "groupby" ? " GROUP BY CELL(3, 3) SAMPLES 2000" : " SAMPLES 2000");
    ops.push_back(u);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Set-up helpers

constexpr int kSetups = 3;  // set-ups per run; setup_s is their median

// Set-up ends when the first query has been answered: the first query on a
// table materializes its attribute column, work every user pays once.
constexpr char kFirstQuery[] =
    "SELECT AVG(altitude) FROM osm REGION(-100, 35, -99, 36) SAMPLES 100 USING NOCACHE";

storm::Status FirstQuery(const Result<QueryResult>& r) {
  return r.ok() ? storm::Status::OK() : r.status();
}

std::vector<std::string> ServerArgs(bool trace, int shard, int shards) {
  std::vector<std::string> a = {"--port", "0", "--trace-sample-rate", trace ? "1" : "0"};
  if (shards > 1) {
    a.insert(a.end(), {"--shard-index", std::to_string(shard), "--num-shards",
                       std::to_string(shards)});
  }
  return a;
}

/// Pins a process (0 = this one) to one CPU when the machine has at least
/// `need` CPUs, so a run does not depend on where the scheduler places
/// threads. The client and a single server share CPU 0: in a closed loop
/// with one query in flight their work alternates, and handing off on one
/// CPU keeps idle-CPU wake-ups (on a virtual machine, host scheduling) out
/// of the numbers. Fleet shards get CPUs of their own.
void PinToCpu(pid_t pid, int cpu, int need) {
  if (static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)) < need) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(pid, sizeof(set), &set);
}

/// Starts `n` servers at once and waits until each reports its port.
bool StartServers(const Args& args, int n, std::vector<ServerProcess>* out) {
  out->assign(n, ServerProcess());
  bool ok = true;
  for (int i = 0; i < n; ++i) {
    ok = ok && SpawnServer(args.server_bin, ServerArgs(args.trace, i, n), &(*out)[i]);
    if (ok) PinToCpu((*out)[i].pid, n == 1 ? 0 : i + 1, n == 1 ? 1 : n + 1);
  }
  for (int i = 0; ok && i < n; ++i) ok = AwaitServing(&(*out)[i], 60'000.0);
  if (!ok) {
    for (auto& s : *out) StopServer(&s);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// The per-layer ladder (traced runs)

/// Replays stored entries as a sampler, so the estimator can be timed
/// without the sampler underneath it.
class ReplaySampler : public storm::SpatialSampler<3> {
 public:
  explicit ReplaySampler(const std::vector<Entry>* entries) : entries_(entries) {}
  storm::Status Begin(const storm::Rect3&, storm::SamplingMode mode) override {
    if (mode != storm::SamplingMode::kWithReplacement) {
      return storm::Status::NotSupported("replay is with replacement");
    }
    pos_ = 0;
    return storm::Status::OK();
  }
  std::optional<Entry> Next() override {
    if (pos_ >= entries_->size()) return std::nullopt;
    return (*entries_)[pos_++];
  }
  uint64_t NextBatch(std::span<Entry> out) override {
    const size_t n = std::min(out.size(), entries_->size() - pos_);
    std::copy_n(entries_->begin() + pos_, n, out.begin());
    pos_ += n;
    return n;
  }
  storm::CardinalityEstimate Cardinality() const override {
    storm::CardinalityEstimate c;
    c.estimate = double(entries_->size());
    return c;
  }
  bool IsExhausted() const override { return pos_ >= entries_->size(); }
  std::string_view name() const override { return "replay"; }

 private:
  const std::vector<Entry>* entries_;
  size_t pos_ = 0;
};

struct Ladder {
  std::vector<Metric> json;     // the per-layer metrics every workload reports
  std::vector<std::string> lines;  // the full ladder, with what each moves

  void Add(const std::string& name, double v, const std::string& unit,
           const std::string& moves, bool in_json) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "layer %-30s %14.4f %-6s -> %s", name.c_str(), v,
                  unit.c_str(), moves.c_str());
    lines.push_back(buf);
    if (in_json) json.push_back({name, v, unit});
  }
};

double SpanP50(const QueryResult& r, const std::string& name) {
  if (!r.profile) return -1;
  for (const auto& s : r.profile->spans()) {
    if (s.name == name) return s.wall_ms;
  }
  return -1;
}

/// The replayed layers, on an in-process `client` holding the workload's
/// OSM table: parse, plan, sampler begin/draw, estimator, table IO, cache
/// probe, codec, and the evaluator loop's own overhead.
void ReplayLadder(storm::Client* client, const std::vector<const Done*>& aggs,
                  const std::vector<const Done*>& all, SpanLog* spans, Ladder* ladder) {
  auto table_or = client->session().GetTable("osm");
  if (!table_or.ok()) return;
  const storm::Table& table = **table_or;
  spans->set_enabled(true);
  std::vector<double> parse_us, plan_us, begin_us, prepare_ms, loop_ms;
  double draw_ns = 0, est_ns = 0, overhead_ns = 0, drawn = 0;
  (void)table.NumericColumn("altitude");  // materialized before the IO baseline
  const storm::IoStats io0 = table.store().live_io_stats().Snapshot();
  storm::QueryOptimizer optimizer;
  uint64_t trace = 1'000'000;
  for (const Done* d : aggs) {
    ++trace;
    const std::string& text = d->op->text;
    double t0 = NowMs();
    Result<storm::QueryAst> ast = [&] {
      ScopedSpan s(spans, "query.parse", trace);
      return storm::ParseQuery(text);
    }();
    parse_us.push_back((NowMs() - t0) * 1000.0);
    if (!ast.ok()) continue;
    const storm::Rect3 box = ast->QueryBox();
    t0 = NowMs();
    {
      ScopedSpan s(spans, "query.plan", trace);
      (void)optimizer.Choose(table, box);
    }
    plan_us.push_back((NowMs() - t0) * 1000.0);

    const uint64_t want = std::max<uint64_t>(d->result.samples, 1);
    auto sampler = table.NewSampler(storm::SamplerStrategy::kRsTree, trace);
    if (!sampler.ok()) continue;
    std::vector<storm::RTree<3>::Entry> entries(want);
    t0 = NowMs();
    {
      ScopedSpan s(spans, "sampling.begin", trace);
      if (!(*sampler)->Begin(box, storm::SamplingMode::kWithReplacement).ok()) continue;
    }
    const double begin_ms = NowMs() - t0;
    begin_us.push_back(begin_ms * 1000.0);
    uint64_t got = 0;
    t0 = NowMs();
    {
      ScopedSpan s(spans, "sampling.draw", trace);
      while (got < want) {
        const uint64_t n = (*sampler)->NextBatch(
            std::span(entries.data() + got, std::min<uint64_t>(64, want - got)));
        if (n == 0) break;
        got += n;
      }
    }
    const double draw_ms = NowMs() - t0;
    entries.resize(got);
    if (got == 0) continue;
    draw_ns += draw_ms * 1e6;
    drawn += double(got);

    auto column = table.NumericColumn("altitude");
    ReplaySampler replay(&entries);
    storm::OnlineAggregator<3> agg(
        &replay,
        [&](const storm::RTree<3>::Entry& e) { return (**column)[e.id]; },
        storm::AggregateKind::kAvg);
    t0 = NowMs();
    {
      ScopedSpan s(spans, "estimator.update", trace);
      (void)agg.Begin(box, storm::SamplingMode::kWithReplacement);
      while (agg.Step(64) > 0) {
      }
    }
    const double est_ms = NowMs() - t0;
    est_ns += est_ms * 1e6;

    // The same query through the session, uncached on the RS-tree so its
    // sampler matches the replay; what the replay does not explain is the
    // evaluator loop's own overhead.
    ExecOptions opts;
    opts.WithProfile(true);
    char limit[48];
    std::snprintf(limit, sizeof(limit), " SAMPLES %llu", (unsigned long long)got);
    std::string exact = text.substr(0, text.find(" ERROR"));
    t0 = NowMs();
    Result<QueryResult> r = [&] {
      ScopedSpan s(spans, "query.execute", trace);
      return client->Execute(exact + limit + " USING RSTREE NOCACHE", opts);
    }();
    const double exec_ms = NowMs() - t0;
    if (r.ok()) {
      overhead_ns += (exec_ms - begin_ms - draw_ms - est_ms) * 1e6;
      prepare_ms.push_back(SpanP50(*r, "prepare"));
      loop_ms.push_back(SpanP50(*r, "sample_loop"));
    }
  }
  const storm::IoStats io = table.store().live_io_stats().Snapshot() - io0;

  // The profile spans of the workload's own traced queries, where it has
  // them (in-process, or the server's spans joined into a served profile);
  // the replayed executions above otherwise.
  std::vector<double> wl_prepare, wl_loop;
  for (const Done* d : all) {
    if (!d->traced) continue;
    if (const double p = SpanP50(d->result, "prepare"); p >= 0) wl_prepare.push_back(p);
    if (const double l = SpanP50(d->result, "sample_loop"); l >= 0) wl_loop.push_back(l);
  }
  if (!wl_prepare.empty()) prepare_ms = wl_prepare;
  if (!wl_loop.empty()) loop_ms = wl_loop;

  // Cache probe on the workload's boxes against this process's reservoir
  // cache: as pan_local left it, or, for the served and fleet workloads,
  // as their aggregate queries leave it when replayed here with the cache
  // on.
  std::vector<double> probe_us;
  storm::Rng rng(7);
  auto& cache = storm::SampleReservoirCache::Default();
  if (cache.reservoirs() == 0) {
    for (const Done* d : aggs) (void)client->Execute(d->op->text, ExecOptions().WithProfile(false));
  }
  for (const Done* d : aggs) {
    auto ast = storm::ParseQuery(d->op->text);
    if (!ast.ok()) continue;
    const double t0 = NowMs();
    {
      ScopedSpan s(spans, "cache.probe", ++trace);
      (void)cache.ProbeCovering("osm", table.epoch(), ast->QueryBox(), rng);
    }
    probe_us.push_back((NowMs() - t0) * 1000.0);
  }

  // Result codec on every answer the workload produced.
  std::vector<double> enc_us, dec_us, kb;
  for (const Done* d : all) {
    double t0 = NowMs();
    std::string wire;
    {
      ScopedSpan s(spans, "server.encode", ++trace);
      wire = storm::EncodeQueryResult(d->result);
    }
    enc_us.push_back((NowMs() - t0) * 1000.0);
    t0 = NowMs();
    {
      ScopedSpan s(spans, "server.decode", trace);
      (void)storm::DecodeQueryResult(wire);
    }
    dec_us.push_back((NowMs() - t0) * 1000.0);
    kb.push_back(double(wire.size()) / 1024.0);
  }

  ladder->Add("query.parse_us", Median(parse_us), "us", "ttfci_p50_ms on all workloads", true);
  ladder->Add("query.plan_us", Median(plan_us), "us", "ttfci_p50_ms on all workloads", true);
  ladder->Add("query.prepare_ms", Median(prepare_ms), "ms", "ttfci_p50_ms on pan_local", true);
  ladder->Add("query.sample_loop_ms", Median(loop_ms), "ms", "ttci_p50_ms on pan_local", true);
  ladder->Add("query.loop_overhead_ns", drawn > 0 ? overhead_ns / drawn : 0, "ns",
              "ttci_p50_ms on pan_local", true);
  ladder->Add("sampling.begin_us", Median(begin_us), "us", "ttfci_p50_ms on pan_local", true);
  ladder->Add("sampling.draw_ns", drawn > 0 ? draw_ns / drawn : 0, "ns",
              "samples_per_s, ttci_p50_ms on pan_local and served_mix", true);
  ladder->Add("estimator.update_ns", drawn > 0 ? est_ns / drawn : 0, "ns",
              "ttci_p50_ms on pan_local", true);
  // Session tables sample in-memory RS-trees with no buffer pool under
  // them, so these read 0 today (README.md); they stay in the ladder for
  // the day sampling pages through the buffer pool.
  ladder->Add("io.page_reads_per_draw",
              drawn > 0 ? double(io.logical_reads) / drawn : 0, "count",
              "samples_per_s on served_mix", false);
  ladder->Add("io.buffer_hit_rate", io.hit_rate(), "ratio", "samples_per_s on served_mix",
              false);
  ladder->Add("cache.probe_us", Median(probe_us), "us", "ttci_p50_ms on pan_local", true);
  ladder->Add("cache.reservoirs", double(cache.reservoirs()), "count",
              "ttci_p50_ms, peak_rss_mb on pan_local", false);
  ladder->Add("cache.mbytes", double(cache.bytes()) / (1 << 20), "MB",
              "ttci_p50_ms, peak_rss_mb on pan_local", false);
  ladder->Add("server.encode_us", Median(enc_us), "us", "ttci_p50_ms on served_mix", true);
  ladder->Add("server.decode_us", Median(dec_us), "us", "ttci_p50_ms on served_mix", true);
  ladder->Add("server.result_kb", Mean(kb), "KB", "ttci_p50_ms on served_mix", true);
  spans->set_enabled(false);
}

// ---------------------------------------------------------------------------
// Workloads


/// The timed phase. A traced run interleaves profiled and unprofiled
/// rounds; their ttci medians give the tracing overhead.
struct PhaseResult {
  double untraced_p50 = 0, traced_p50 = 0;
};

PhaseResult TimedPhase(const Args& args, const WorkloadSpec& spec, Rng& rng, Runner& run,
                       SpanLog* spans) {
  PhaseResult pr;
  run.Drive(spec, rng, args.seconds, args.trace ? spans : nullptr);
  std::vector<double> traced, untraced;
  for (size_t i = run.timed_begin(); i < run.timed_end(); ++i) {
    const Done& d = run.done()[i];
    if (d.ok) (d.traced ? traced : untraced).push_back(d.ttci_ms);
  }
  pr.untraced_p50 = Median(untraced);
  pr.traced_p50 = Median(traced);
  return pr;
}

void SplitDone(const Runner& run, std::vector<const Done*>* aggs,
               std::vector<const Done*>* all, size_t limit) {
  for (size_t i = run.timed_begin(); i < run.timed_end(); ++i) {
    const Done& d = run.done()[i];
    if (!d.ok) continue;
    all->push_back(&d);
    if (d.op->kind == Kind::kAggregate && d.op->table == "osm" && aggs->size() < limit) {
      aggs->push_back(&d);
    }
  }
}

std::vector<double> TaskP50(const Runner& run, Kind kind) {
  std::vector<double> v;
  for (size_t i = run.timed_begin(); i < run.timed_end(); ++i) {
    const Done& d = run.done()[i];
    if (d.ok && d.op->kind == kind) v.push_back(d.ttci_ms);
  }
  return v;
}

/// Starts three shard processes at once and a coordinator over them, and
/// answers the first query through it. Returns the seconds that took, or a
/// negative value when the fleet did not come up.
double StartFleet(const Args& args, std::vector<ServerProcess>* shards,
                  std::unique_ptr<storm::NetCoordinator>* coord) {
  const double t0 = NowMs();
  if (!StartServers(args, 3, shards)) return -1;
  std::vector<storm::ShardEndpoint> endpoints;
  for (const auto& s : *shards) endpoints.push_back({"127.0.0.1", s.port});
  storm::NetCoordinatorOptions copts;
  copts.seed = args.seed;
  copts.deterministic_retry_jitter = true;
  *coord = std::make_unique<storm::NetCoordinator>(endpoints, copts);
  storm::Status st = (*coord)->Start();
  if (st.ok()) st = FirstQuery((*coord)->Execute(kFirstQuery, ExecOptions().WithProfile(false)));
  if (!st.ok() || (*coord)->live_shards() != 3) {
    std::printf("fleet start: %s, live %d\n", st.ToString().c_str(), (*coord)->live_shards());
    coord->reset();
    for (auto& s : *shards) StopServer(&s);
    return -1;
  }
  return (NowMs() - t0) / 1000.0;
}

/// Wall time and time to the first interval of one query, without profiles.
std::pair<double, double> TimeQuery(const Target& target, const std::string& text,
                                    uint64_t* samples) {
  double first = -1;
  const double t0 = NowMs();
  ExecOptions o;
  o.WithProfile(false).WithProgress([&](const QueryProgress& p) {
    if (first < 0 && p.samples > 0 && std::isfinite(p.ci.half_width)) first = NowMs() - t0;
    return true;
  });
  Result<QueryResult> r = target.execute(text, o);
  const double wall = NowMs() - t0;
  if (samples != nullptr) *samples = r.ok() ? r->samples : 0;
  return {wall, first >= 0 ? first : wall};
}

/// The cluster rungs of the traced run: a fresh three-shard fleet, the
/// workload's aggregate queries through it and direct to every shard, the
/// same against the in-process `local` table, and inserts both ways.
void FleetRungs(const Args& args, const DemoData& demo, const std::vector<std::string>& texts,
                storm::Client* local, Ladder* ladder) {
  std::vector<ServerProcess> shards;
  std::unique_ptr<storm::NetCoordinator> coord;
  const double ready_s = StartFleet(args, &shards, &coord);
  if (ready_s < 0) return;
  std::vector<double> dial_us, fanout, first_gap, oversample, fleet_insert, direct_insert;
  for (int i = 0; i < 30; ++i) {
    storm::RemoteClient c;
    const double t0 = NowMs();
    if (c.Connect("127.0.0.1", shards[i % 3].port).ok()) dial_us.push_back((NowMs() - t0) * 1000.0);
  }
  std::vector<std::unique_ptr<storm::RemoteClient>> direct;
  std::vector<Target> shard_targets;
  for (const auto& s : shards) {
    direct.push_back(std::make_unique<storm::RemoteClient>());
    (void)direct.back()->Connect("127.0.0.1", s.port);
    storm::RemoteClient* c = direct.back().get();
    Target t;
    t.execute = [c](const std::string& q, const ExecOptions& o) { return c->Execute(q, o); };
    shard_targets.push_back(t);
  }
  Target fleet;
  fleet.execute = [&](const std::string& q, const ExecOptions& o) { return coord->Execute(q, o); };
  Target in_process;
  in_process.execute = [&](const std::string& q, const ExecOptions& o) { return local->Execute(q, o); };
  for (const std::string& text : texts) {
    uint64_t fleet_samples = 0, local_samples = 0;
    const auto [wall, first] = TimeQuery(fleet, text, &fleet_samples);
    double slowest = 0, shard_first = 1e300;
    for (const Target& t : shard_targets) {
      const auto [w, f] = TimeQuery(t, text, nullptr);
      slowest = std::max(slowest, w);
      shard_first = std::min(shard_first, f);
    }
    (void)TimeQuery(in_process, text, &local_samples);
    fanout.push_back(wall - slowest);
    first_gap.push_back(first - shard_first);
    if (local_samples > 0) oversample.push_back(double(fleet_samples) / double(local_samples));
  }
  Rng wrng(args.seed ^ 0xf1ee7);
  for (int i = 0; i < 60; ++i) {
    Op op = InsertOp(wrng, demo.osm, kServedBatchRows);
    double t0 = NowMs();
    if (i % 2 == 0) {
      (void)coord->InsertBatch("osm", op.docs);
      fleet_insert.push_back(NowMs() - t0);
    } else {
      (void)direct[i % 3]->InsertBatch("osm", op.docs);
      direct_insert.push_back(NowMs() - t0);
    }
  }
  coord.reset();
  for (auto& s : shards) StopServer(&s);
  ladder->Add("setup.fleet_ready_s", ready_s, "s", "setup_s on fleet_agg", false);
  ladder->Add("cluster.dial_us", Median(dial_us), "us", "ttfci_p50_ms on fleet_agg", false);
  ladder->Add("cluster.fanout_overhead_ms", Median(fanout), "ms", "ttci_p50_ms on fleet_agg", false);
  ladder->Add("cluster.first_merge_gap_ms", Median(first_gap), "ms", "ttfci_p50_ms on fleet_agg",
              false);
  ladder->Add("cluster.oversample_ratio", Median(oversample), "ratio", "samples_to_ci on fleet_agg",
              false);
  ladder->Add("cluster.insert_fanout_ms", Median(fleet_insert) - Median(direct_insert), "ms",
              "insert_p50_ms on fleet_agg", false);
}

/// Builds an in-process client over the demo OSM table (the traced runs of
/// the served and fleet workloads replay their queries against it).
double LocalOsmClient(const DemoData& demo, storm::Client* client) {
  std::vector<Value> docs = OsmDocs(demo.osm);
  const double t0 = NowMs();
  (void)client->CreateTable("osm", docs);
  return (NowMs() - t0) / 1000.0;
}

constexpr uint64_t kPanCatalogueSeed = 2015;
constexpr uint64_t kPanWritesSeed = 4242;
constexpr int kPanSessions = 256;

int RunPanLocal(const Args& args, Ledger* ledger, SpanLog* spans, std::vector<Metric>* out,
                std::vector<std::string>* ladder_lines) {
  Rng rng(args.seed);
  // The table is the same for every seed (the generator's own seed); the
  // workload seed drives the sessions and the insert batches.
  const auto pts = OsmPoints(500'000, storm::OsmOptions().seed);
  const std::vector<Value> docs = OsmDocs(pts);
  Oracles oracles;
  oracles.tables["osm"] = Oracle(OsmRecs(pts));
  Note("pan_local: inputs generated");

  // Set-up: load + index the table; the median of kSetups loads.
  std::vector<double> setups;
  std::unique_ptr<storm::Client> client;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    storm::SampleReservoirCache::Default().Clear();
    client = std::make_unique<storm::Client>();
    const double t0 = NowMs();
    storm::Status st = client->CreateTable("osm", docs);
    if (st.ok()) st = FirstQuery(client->Execute(kFirstQuery, ExecOptions().WithProfile(false)));
    setups.push_back((NowMs() - t0) / 1000.0);
    Note("set-up %d: %.3f s", i, setups.back());
    if (!st.ok()) {
      std::printf("create table: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  Target target;
  target.execute = [&](const std::string& q, const ExecOptions& o) {
    return client->Execute(q, o);
  };
  target.insert = [&](const std::string& t, const std::vector<Value>& d) {
    return client->InsertBatch(t, d);
  };
  WorkloadSpec spec;
  spec.name = "pan_local";
  spec.warmup_rounds = 250;  // 3000 queries: the reservoir cache reaches its bound
  // A fixed catalogue of sessions, replayed in an order the workload seed
  // draws: every run meets the same population of windows, so a run's
  // figures do not hang on which windows its seed happened to draw. The
  // catalogue's 3072 distinct windows need several times the cache bound.
  std::vector<std::vector<Op>> catalogue;
  {
    Rng crng(kPanCatalogueSeed);
    for (int i = 0; i < kPanSessions; ++i) catalogue.push_back(PanSession(crng, pts));
  }
  spec.round = [&](Rng& r) { return catalogue[r() % catalogue.size()]; };
  Runner run(target, &oracles, ledger, spans);

  const PhaseResult pr = TimedPhase(args, spec, rng, run, spans);
  auto& cache = storm::SampleReservoirCache::Default();
  std::printf("cache after timed phase: %zu reservoirs, %.1f MB, hits %llu, misses %llu\n",
              cache.reservoirs(), double(cache.bytes()) / (1 << 20),
              (unsigned long long)cache.hits(), (unsigned long long)cache.misses());

  // Write phase, after the read-only exploration and on a table of its own
  // (50 000 points), freshly loaded in every run: a fixed count of
  // in-process batches (the program's insert path without a wire), then
  // exact COUNTs over the grown table. Timed on the exploration's table the
  // insert median split into two modes by run, and inserting there first
  // slows and unsteadies the exploration (README.md, findings).
  const auto wpts = OsmPoints(50'000, kPanWritesSeed);
  oracles.tables["osm_writes"] = Oracle(OsmRecs(wpts));
  if (storm::Status st = client->CreateTable("osm_writes", OsmDocs(wpts)); !st.ok()) {
    std::printf("create table: %s\n", st.ToString().c_str());
    return 1;
  }
  Rng wrng(args.seed ^ 0x5eed);
  std::vector<Op> writes;
  for (int i = 0; i < 1000; ++i) {
    writes.push_back(InsertOp(wrng, wpts, 5));
    writes.back().table = "osm_writes";
  }
  for (int i = 0; i < 12; ++i) {
    Op s;
    s.kind = Kind::kStratCount;
    s.type = "stratified";
    s.table = "osm_writes";
    s.agg = "COUNT";
    s.box = AroundPoint(wrng, wpts, 2.0, 10.0);
    s.text = "SELECT COUNT(*) FROM osm_writes " + Region(s.box) + " USING STRATIFIED";
    writes.push_back(s);
  }
  for (const Op& op : writes) run.Run(op, true, false);

  std::vector<const Done*> aggs, all;
  Ladder ladder;
  if (args.trace) {
    SplitDone(run, &aggs, &all, 400);
    double hits = 0, served = 0, samples = 0;
    for (const Done* d : all) {
      served += double(d->result.cache_samples);
      samples += double(d->result.samples);
      hits += d->result.cache_samples > 0 ? 1 : 0;
    }
    ReplayLadder(client.get(), aggs, all, spans, &ladder);
    ladder.Add("cache.hit_ratio", all.empty() ? 0 : hits / double(all.size()), "ratio",
               "samples_per_s on pan_local", false);
    ladder.Add("cache.served_share", samples > 0 ? served / samples : 0, "ratio",
               "samples_per_s on pan_local", false);
  }

  run.Check();
  if (args.trace) {
    ladder.Add("query.insert_apply_ms", Median(run.insert_ms()), "ms",
               "insert_p50_ms on served_mix", false);
  }
  EndToEnd e2e;
  e2e.setup_s = Median(setups);
  e2e.peak_rss_mb = SelfPeakRssMb();
  bool drifted = false;
  std::vector<Metric> m = EndToEndMetrics(run, e2e, &drifted);
  if (drifted) ledger->Wrong("timed phase drifted (first vs last quarter ttci p50)");
  if (!args.trace) {
    *out = m;
  } else {
    ladder.Add("setup.create_table_s", e2e.setup_s, "s", "setup_s on pan_local", false);
    ladder.Add("obs.tracing_overhead_pct",
               (pr.traced_p50 / pr.untraced_p50 - 1.0) * 100.0, "%", "every ttci metric",
               true);
    *out = ladder.json;
    *ladder_lines = ladder.lines;
  }
  return 0;
}

int RunServed(const Args& args, Ledger* ledger, SpanLog* spans, std::vector<Metric>* out,
              std::vector<std::string>* ladder_lines) {
  Rng rng(args.seed);
  const DemoData demo = MakeDemoData(true);
  Oracles oracles;
  oracles.tables["osm"] = Oracle(OsmRecs(demo.osm));
  {
    std::vector<Rec> tw, wx;
    for (const auto& t : demo.tweets) tw.push_back({t.lon, t.lat, t.t, 0.0, t.user, t.text});
    for (const auto& r : demo.weather) {
      wx.push_back({r.lon, r.lat, r.t, r.temperature, r.station_id, {}});
    }
    oracles.tables["tweets"] = Oracle(std::move(tw));
    oracles.tables["mesowest"] = Oracle(std::move(wx));
  }

  // Set-up: start storm_server until it serves and a client is connected;
  // the median of kSetups starts. The last server stays up.
  std::vector<double> setups;
  std::vector<ServerProcess> server;
  storm::RemoteClient client;
  for (int i = 0; i < kSetups; ++i) {
    for (auto& s : server) StopServer(&s);
    client.Close();
    const double t0 = NowMs();
    if (!StartServers(args, 1, &server)) {
      std::printf("storm_server did not start\n");
      return 1;
    }
    storm::Status st = client.Connect("127.0.0.1", server[0].port);
    if (st.ok()) st = FirstQuery(client.Execute(kFirstQuery, ExecOptions().WithProfile(false)));
    setups.push_back((NowMs() - t0) / 1000.0);
    Note("set-up %d: %.3f s", i, setups.back());
    if (!st.ok()) {
      std::printf("connect: %s\n", st.ToString().c_str());
      for (auto& s : server) StopServer(&s);
      return 1;
    }
  }
  client.set_trace_sample_rate(args.trace ? 1.0 : 0.0);
  client.set_rpc_deadline_ms(60'000);
  Target target;
  target.execute = [&](const std::string& q, const ExecOptions& o) {
    return client.Execute(q, o);
  };
  target.insert = [&](const std::string& t, const std::vector<Value>& d) {
    return client.InsertBatch(t, d);
  };
  WorkloadSpec spec;
  spec.name = "served_mix";
  spec.warmup_rounds = 80;
  spec.round = [&](Rng& r) { return ServedRound(r, demo); };
  Runner run(target, &oracles, ledger, spans);
  const PhaseResult pr = TimedPhase(args, spec, rng, run, spans);
  const double rss = PeakRssMb(server[0].pid);
  for (auto& s : server) StopServer(&s);
  run.Check();

  EndToEnd e2e;
  e2e.setup_s = Median(setups);
  e2e.peak_rss_mb = rss;
  bool drifted = false;
  std::vector<Metric> m = EndToEndMetrics(run, e2e, &drifted);
  if (drifted) ledger->Wrong("timed phase drifted (first vs last quarter ttci p50)");
  if (!args.trace) {
    *out = m;
    return 0;
  }
  Ladder ladder;
  std::vector<const Done*> aggs, all;
  SplitDone(run, &aggs, &all, 300);
  storm::Client local;
  const double create_s = LocalOsmClient(demo, &local);
  ReplayLadder(&local, aggs, all, spans, &ladder);
  // Serving-layer rungs: client wall time against the server's own
  // elapsed time, frames per query, and the same inserts in-process.
  std::vector<double> rpc, frames, first_gap_local;
  for (const Done* d : all) {
    rpc.push_back(d->ttci_ms - d->result.elapsed_ms);
    frames.push_back(d->frames);
  }
  std::vector<double> local_first, served_first;
  for (const Done* d : aggs) {
    served_first.push_back(d->ttfci_ms);
    double first = -1;
    const double t0 = NowMs();
    ExecOptions o;
    o.WithProfile(false).WithProgress([&](const QueryProgress& p) {
      if (first < 0 && p.samples > 0 && std::isfinite(p.ci.half_width)) first = NowMs() - t0;
      return true;
    });
    (void)local.Execute(d->op->text, o);
    local_first.push_back(first >= 0 ? first : NowMs() - t0);
  }
  std::vector<double> local_insert;
  {
    Rng wrng(args.seed ^ 0x5eed);
    for (int i = 0; i < 100; ++i) {
      Op op = InsertOp(wrng, demo.osm, kServedBatchRows);
      const double t0 = NowMs();
      (void)local.InsertBatch("osm", op.docs);
      local_insert.push_back(NowMs() - t0);
    }
  }
  double text_us = 0;
  {
    storm::Client texts;
    std::vector<Value> docs;
    for (size_t i = 0; i < 20'000 && i < demo.tweets.size(); ++i) {
      docs.push_back(storm::TweetGenerator::ToDocument(demo.tweets[i]));
    }
    (void)texts.CreateTable("tweets", docs);
    auto t = texts.session().GetTable("tweets");
    if (t.ok()) {
      const double t0 = NowMs();
      for (storm::RecordId id = 0; id < 20'000; ++id) (void)(*t)->TextOf(id, "text");
      text_us = (NowMs() - t0) * 1000.0 / 20'000;
    }
  }
  ladder.Add("server.rpc_overhead_ms", Median(rpc), "ms", "ttci_p50_ms on served_mix", false);
  ladder.Add("server.first_progress_gap_ms", Median(served_first) - Median(local_first), "ms",
             "ttfci_p50_ms on served_mix", false);
  ladder.Add("server.progress_frames_per_query", Mean(frames), "count",
             "ttci_p50_ms on served_mix", false);
  ladder.Add("query.insert_apply_ms", Median(local_insert), "ms", "insert_p50_ms on served_mix",
             false);
  ladder.Add("server.insert_overhead_ms", Median(run.insert_ms()) - Median(local_insert), "ms",
             "insert_p50_ms on served_mix", false);
  ladder.Add("storage.text_fetch_us", text_us, "us", "TOPTERMS share of ttci_tail_ms on served_mix",
             false);
  const std::pair<const char*, Kind> tasks[] = {
      {"query.aggregate_p50_ms", Kind::kAggregate}, {"query.quantile_p50_ms", Kind::kQuantile},
      {"query.groupby_p50_ms", Kind::kGroupCell},   {"query.kde_p50_ms", Kind::kKde},
      {"query.topterms_p50_ms", Kind::kTopTerms},   {"query.cluster_p50_ms", Kind::kCluster},
      {"query.trajectory_p50_ms", Kind::kTrajectory}};
  for (const auto& [name, kind] : tasks) {
    ladder.Add(name, Median(TaskP50(run, kind)), "ms", "ttci_p50_ms, ttci_tail_ms on served_mix",
               false);
  }
  {
    std::vector<std::string> texts;
    for (size_t i = 0; i < aggs.size() && i < 60; ++i) texts.push_back(aggs[i]->op->text);
    FleetRungs(args, demo, texts, &local, &ladder);
  }
  ladder.Add("setup.create_table_s", create_s, "s", "setup_s (osm, in-process copy)", false);
  ladder.Add("setup.server_start_s", e2e.setup_s, "s", "setup_s on served_mix", false);
  ladder.Add("obs.tracing_overhead_pct", (pr.traced_p50 / pr.untraced_p50 - 1.0) * 100.0, "%",
             "every ttci metric", true);
  *out = ladder.json;
  *ladder_lines = ladder.lines;
  return 0;
}

int RunFleet(const Args& args, Ledger* ledger, SpanLog* spans, std::vector<Metric>* out,
             std::vector<std::string>* ladder_lines) {
  Rng rng(args.seed);
  const DemoData demo = MakeDemoData(false);
  Oracles oracles;
  oracles.tables["osm"] = Oracle(OsmRecs(demo.osm));

  // Set-up: three shard processes loading at once, then the coordinator's
  // first probe round; the median of kSetups. The last fleet stays up.
  std::vector<double> setups;
  std::vector<ServerProcess> shards;
  std::unique_ptr<storm::NetCoordinator> coord;
  for (int i = 0; i < kSetups; ++i) {
    coord.reset();
    for (auto& s : shards) StopServer(&s);
    setups.push_back(StartFleet(args, &shards, &coord));
    Note("set-up %d: %.3f s", i, setups.back());
    if (setups.back() < 0) return 1;
  }
  Target target;
  target.execute = [&](const std::string& q, const ExecOptions& o) {
    return coord->Execute(q, o);
  };
  target.insert = [&](const std::string& t, const std::vector<Value>& d) {
    return coord->InsertBatch(t, d);
  };
  WorkloadSpec spec;
  spec.name = "fleet_agg";
  spec.warmup_rounds = 150;
  spec.round = [&](Rng& r) { return FleetRound(r, demo, oracles.tables.at("osm")); };
  Runner run(target, &oracles, ledger, spans);
  const PhaseResult pr = TimedPhase(args, spec, rng, run, spans);
  double rss = 0;
  for (const auto& s : shards) rss += PeakRssMb(s.pid);

  coord.reset();
  for (auto& s : shards) StopServer(&s);
  Ladder ladder;
  if (args.trace) {
    std::vector<const Done*> aggs, all;
    SplitDone(run, &aggs, &all, 300);
    storm::Client local;
    const double create_s = LocalOsmClient(demo, &local);
    ReplayLadder(&local, aggs, all, spans, &ladder);
    std::vector<std::string> texts;
    for (size_t i = 0; i < aggs.size() && i < 60; ++i) texts.push_back(aggs[i]->op->text);
    FleetRungs(args, demo, texts, &local, &ladder);
    ladder.Add("setup.create_table_s", create_s, "s", "setup_s (osm, in-process copy)", false);
    ladder.Add("obs.tracing_overhead_pct", (pr.traced_p50 / pr.untraced_p50 - 1.0) * 100.0, "%",
               "every ttci metric", true);
  }
  run.Check();

  EndToEnd e2e;
  e2e.setup_s = Median(setups);
  e2e.peak_rss_mb = rss;
  bool drifted = false;
  std::vector<Metric> m = EndToEndMetrics(run, e2e, &drifted);
  if (drifted) ledger->Wrong("timed phase drifted (first vs last quarter ttci p50)");
  if (args.trace) {
    *out = ladder.json;
    *ladder_lines = ladder.lines;
  } else {
    *out = m;
  }
  return 0;
}

}  // namespace
}  // namespace stormbench

int main(int argc, char** argv) {
  using namespace stormbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload pan_local|served_mix|fleet_agg --seed N "
                 "--seconds S --trace 0|1 --server-bin PATH [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  if (args.workload != "pan_local" && access(args.server_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "storm_server binary not found: %s\n", args.server_bin.c_str());
    return 2;
  }
  PinToCpu(0, 0, 1);
  Ledger ledger;
  SpanLog spans;
  std::vector<Metric> metrics;
  std::vector<std::string> ladder;
  int rc = 2;
  if (args.workload == "pan_local") {
    rc = RunPanLocal(args, &ledger, &spans, &metrics, &ladder);
  } else if (args.workload == "served_mix") {
    rc = RunServed(args, &ledger, &spans, &metrics, &ladder);
  } else if (args.workload == "fleet_agg") {
    rc = RunFleet(args, &ledger, &spans, &metrics, &ladder);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  }
  if (rc != 0) return rc;
  ledger.Print();
  for (const std::string& line : ladder) std::printf("%s\n", line.c_str());
  for (const std::string& name : spans.Names()) {
    std::printf("span %-28s count %7zu total %10.3f ms self %10.3f ms\n", name.c_str(),
                spans.Count(name), spans.TotalMs(name), spans.SelfMs(name));
  }
  if (args.trace && !args.trace_out.empty()) {
    if (!spans.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("spans written to %s (%s)\n", args.trace_out.c_str(), "bench-side spans");
  }
  std::printf("%s\n", MetricsJson(ledger, metrics).c_str());
  std::fflush(stdout);
  return ledger.correct() ? 0 : 1;
}
