// Measurement plumbing for the STORM benchmark program: clocks, order
// statistics, per-operation accounting, bench-side spans, storm_server
// child processes and resident-memory readings. Nothing here knows about a
// particular workload.

#ifndef STORMBENCH_HARNESS_H_
#define STORMBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stormbench {

inline double NowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

/// Progress note on stderr, stamped with seconds since the process began.
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The tail percentile reported for a sample of `n`: the highest of 99 and
/// 90 that keeps at least ten samples beyond it (50 below 100 samples).
double TailPercentile(size_t n);

/// Attempted / failed counts per operation type, plus correctness problems.
class Ledger {
 public:
  void Attempt(const std::string& op) { ++ops_[op].attempted; }
  void Fail(const std::string& op) { ++ops_[op].failed; }
  /// Records a wrong answer; the run ends with correct=false.
  void Wrong(const std::string& what);

  uint64_t attempted() const;
  uint64_t failed() const;
  bool correct() const { return wrong_ == 0; }
  /// One line per operation type: "ops <type> attempted=N failed=M".
  void Print() const;

 private:
  struct Counts {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Counts> ops_;
  uint64_t wrong_ = 0;
};

/// In-memory span recorder for the traced run: spans around the calls the
/// benchmark makes into each layer, written out as JSON when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t trace = 0;  ///< spans of one operation share this id
    int parent = -1;     ///< index of the enclosing span, -1 at the root
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open span; returns its index (-1 when
  /// disabled). Close with End(index).
  int Begin(const std::string& name, uint64_t trace);
  void End(int index);

  /// Sum over spans named `name` of their duration minus the part covered
  /// by their direct children (self time), in ms.
  double SelfMs(const std::string& name) const;
  double TotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Distinct span names, in first-seen order.
  std::vector<std::string> Names() const;

  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the log is disabled or null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t trace)
      : log_(log), index_(log != nullptr ? log->Begin(name, trace) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// A storm_server child process. Readiness is read from its own stdout
/// ("serving on port N"), never polled on a timer.
struct ServerProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  int port = -1;
};

/// Starts `binary args...` with stdout on a pipe and stderr discarded.
/// Returns false when the process cannot be started.
bool SpawnServer(const std::string& binary,
                 const std::vector<std::string>& args, ServerProcess* out);
/// Blocks until the child reports its port (true) or exits / times out.
bool AwaitServing(ServerProcess* server, double timeout_ms);
/// SIGINT, drain its stdout, reap it. Safe on a never-started process.
void StopServer(ServerProcess* server);

/// Peak resident set of a process (VmHWM), in MB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

}  // namespace stormbench

#endif  // STORMBENCH_HARNESS_H_
