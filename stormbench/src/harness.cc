#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace stormbench {

void Note(const char* fmt, ...) {
  static const double start = NowMs();
  std::fprintf(stderr, "[%7.2fs] ", (NowMs() - start) / 1000.0);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double TailPercentile(size_t n) {
  if (n >= 1000) return 99.0;
  if (n >= 100) return 90.0;
  return 50.0;
}

void Ledger::Wrong(const std::string& what) {
  ++wrong_;
  if (wrong_ <= 20) std::printf("WRONG %s\n", what.c_str());
}

uint64_t Ledger::attempted() const {
  uint64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.attempted;
  return n;
}

uint64_t Ledger::failed() const {
  uint64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.failed;
  return n;
}

void Ledger::Print() const {
  for (const auto& [op, c] : ops_) {
    std::printf("ops %-16s attempted=%llu failed=%llu\n", op.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  std::printf("wrong answers: %llu\n", static_cast<unsigned long long>(wrong_));
}

int SpanLog::Begin(const std::string& name, uint64_t trace) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.trace = trace;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ms = NowMs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[index].end_ms = NowMs();
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
}

double SpanLog::TotalMs(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end_ms - s.start_ms;
  }
  return t;
}

double SpanLog::SelfMs(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end_ms - s.start_ms;
  }
  double t = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      t += spans_[i].end_ms - spans_[i].start_ms - child[i];
    }
  }
  return t;
}

size_t SpanLog::Count(const std::string& name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

std::vector<std::string> SpanLog::Names() const {
  std::vector<std::string> names;
  for (const Span& s : spans_) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) names.push_back(s.name);
  }
  return names;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"trace\":%llu,\"parent\":%d,"
                  "\"start_ms\":%.4f,\"end_ms\":%.4f}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.trace),
                  s.parent, s.start_ms, s.end_ms,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

bool SpawnServer(const std::string& binary,
                 const std::vector<std::string>& args, ServerProcess* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  out->pid = pid;
  out->stdout_fd = fds[0];
  out->port = -1;
  return true;
}

bool AwaitServing(ServerProcess* server, double timeout_ms) {
  static const char kMarker[] = "serving on port ";
  std::string seen;
  const double deadline = NowMs() + timeout_ms;
  while (NowMs() < deadline) {
    pollfd pfd{server->stdout_fd, POLLIN, 0};
    const int left = static_cast<int>(std::max(1.0, deadline - NowMs()));
    if (poll(&pfd, 1, left) <= 0) continue;
    char buf[1024];
    const ssize_t got = read(server->stdout_fd, buf, sizeof(buf));
    if (got <= 0) return false;  // the child exited before serving
    seen.append(buf, static_cast<size_t>(got));
    const size_t pos = seen.find(kMarker);
    if (pos != std::string::npos &&
        seen.find('\n', pos) != std::string::npos) {
      server->port = std::atoi(seen.c_str() + pos + std::strlen(kMarker));
      return server->port > 0;
    }
  }
  return false;
}

void StopServer(ServerProcess* server) {
  if (server->pid > 0) {
    kill(server->pid, SIGINT);
    if (server->stdout_fd >= 0) {
      char buf[4096];
      while (read(server->stdout_fd, buf, sizeof(buf)) > 0) {
      }
    }
    int status = 0;
    waitpid(server->pid, &status, 0);
  }
  if (server->stdout_fd >= 0) close(server->stdout_fd);
  server->pid = -1;
  server->stdout_fd = -1;
  server->port = -1;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

}  // namespace stormbench
