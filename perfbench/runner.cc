#include "runner.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

/// A timed phase keeps going past `seconds` until it holds this many ops,
/// so that at least ten samples lie beyond the 90th percentile.  Peak RSS
/// is read when the phase completes this many ops, so that it measures the
/// same work whatever the throughput (awrd keeps every reply in memory).
constexpr uint64_t kMinOps = 100;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// The untraced reference phase of a traced run needs only its p50.
constexpr uint64_t kReferenceMinOps = 10;

/// While alive, moves the thread that made it round the CPUs it may run
/// on, one every kSliceMs.  On a VM whose vCPUs slow down one at a time,
/// for seconds at a time (a busy neighbour on the host core), an op that
/// stays on one vCPU runs either fast or up to 1.7x slower, and the median
/// of a run jumps with the share of slow ops.  Rotating within each op
/// makes every op average over all vCPUs.  The thread's own CPU mask is
/// restored on destruction.
class CpuRotation {
 public:
  CpuRotation() : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(tid_, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
    if (cpus_.size() > 1) mover_ = std::thread([this] { Move(); });
  }
  ~CpuRotation() {
    if (!mover_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_one();
    mover_.join();
    sched_setaffinity(tid_, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  static constexpr int kSliceMs = 5;

  void Move() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t i = 0;; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      sched_setaffinity(tid_, sizeof one, &one);
      if (wake_.wait_for(lock, std::chrono::milliseconds(kSliceMs),
                         [this] { return stop_; })) {
        return;
      }
    }
  }

  const pid_t tid_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mu_
  std::thread mover_;  // last: it uses the members above
};

/// While alive, times a fixed calibration kernel on a helper thread every
/// kEveryMs.  The host under the benchmark's VM changes speed over minutes:
/// in one series every workload slowed by 1.3-1.5x at once and a fixed
/// hash-table kernel slowed with it, so no run length or in-run median
/// keeps ten runs within 25% of each other.  The end-to-end times of a run
/// are therefore scaled by kReferenceMs / (median kernel time of the run).
/// The kernel is the benchmark's own: inserts and lookups in an
/// open-addressing table of 1 MiB (it stays in a core's L2, so the
/// program's heap and working set do not change it), no allocation, no
/// awr code.  Its thread's CPU time is reported so callers can leave it
/// out of the program's.
class SpeedProbe {
 public:
  /// About the kernel's median on the 4-vCPU VM the benchmark was built
  /// on.  A scaled time reads as on a machine where the kernel takes this
  /// long.
  static constexpr double kReferenceMs = 1.4;

  SpeedProbe() : table_(kSlots), thread_([this] { Loop(); }) {}
  ~SpeedProbe() { Stop(); }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Ends the sampling; the readings below then stay fixed.
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }

  /// kReferenceMs over the median kernel time; multiply a time by it
  /// (divide a rate) to scale it.
  double Scale() {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_ms_.empty()) return 1.0;
    return kReferenceMs / Percentile(samples_ms_, 0.5);
  }
  double MedianMs() {
    std::lock_guard<std::mutex> lock(mu_);
    return Percentile(samples_ms_, 0.5);
  }
  size_t samples() {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_ms_.size();
  }
  /// CPU seconds the helper thread has used.
  double CpuSeconds() {
    std::lock_guard<std::mutex> lock(mu_);
    return cpu_s_;
  }

 private:
  static constexpr size_t kSlots = size_t{1} << 17;  // 1 MiB of keys
  static constexpr int kKeys = 60000;
  static constexpr int kEveryMs = 100;

  /// One timed kernel run, in ms.
  double RunKernel() {
    const Clock::time_point t0 = Clock::now();
    std::fill(table_.begin(), table_.end(), 0);
    const size_t mask = kSlots - 1;
    auto slot = [&](uint64_t key) {
      size_t h = (key * 0x9E3779B97F4A7C15ull) >> 20 & mask;
      while (table_[h] != 0 && table_[h] != key) h = (h + 1) & mask;
      return h;
    };
    uint64_t x = 88172645463325252ull;
    auto next_key = [&] {  // xorshift64; 0 marks an empty slot
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return (x % kSlots) | 1;
    };
    for (int i = 0; i < kKeys; ++i) {
      const uint64_t key = next_key();
      table_[slot(key)] = key;
    }
    for (int i = 0; i < kKeys; ++i) {
      const uint64_t key = next_key();
      hits_ += table_[slot(key)] == key;
    }
    return MsBetween(t0, Clock::now());
  }

  static double ThreadCpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const double ms = RunKernel();
      const double cpu_s = ThreadCpuSeconds();
      lock.lock();
      samples_ms_.push_back(ms);
      cpu_s_ = cpu_s;
      wake_.wait_for(lock, std::chrono::milliseconds(kEveryMs),
                     [this] { return stop_; });
    }
  }

  std::vector<uint64_t> table_;  // used by the helper thread only
  uint64_t hits_ = 0;            // keeps the lookups from being optimised out
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;               // guarded by mu_
  std::vector<double> samples_ms_;  // guarded by mu_
  double cpu_s_ = 0;                // guarded by mu_
  std::thread thread_;              // last: it uses the members above
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// The process's resident high-water mark (VmHWM).  Not ru_maxrss: Linux
/// carries that across execve, so it would include the launcher's memory.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// One set-up plus its fixed warm-up; the warm-up's outputs are dropped.
awr::Status SetUpOnce(Workload* w, uint64_t seed, Tracer* tracer) {
  AWR_RETURN_IF_ERROR(w->SetUp(seed, tracer));
  for (int i = 0; i < w->warmup_ops(); ++i) {
    for (int s = 0; s < w->sessions(); ++s) {
      w->PrepareOp(s, nullptr);
      const awr::Status st = w->RunOp(s, nullptr, -1);
      w->Record(s, st);
      AWR_RETURN_IF_ERROR(st);
    }
  }
  w->ClearRecords();
  return awr::Status::OK();
}

struct Phase {
  std::vector<double> latencies_ms;
  uint64_t ops = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  // when `min_ops` ops were done
};

/// Closed loop, one thread per session.  Runs `fixed_ops` ops per session
/// when nonzero; otherwise until `seconds` have passed and `min_ops` ops
/// are done.  With a tracer every op gets a root span "op".
Phase RunPhase(Workload* w, Tracer* tracer, double seconds, uint64_t min_ops,
               uint64_t fixed_ops) {
  const int sessions = w->sessions();
  std::vector<std::vector<double>> latencies(static_cast<size_t>(sessions));
  std::atomic<uint64_t> done{0};
  double peak_rss_mb = 0;  // written by one thread, read after the joins
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto loop = [&](int s) {
    for (uint64_t i = 0;; ++i) {
      if (fixed_ops > 0 ? i >= fixed_ops
                        : Clock::now() >= end && done.load() >= min_ops) {
        break;
      }
      w->PrepareOp(s, tracer);
      const Clock::time_point q0 = Clock::now();
      const int root = tracer != nullptr ? tracer->Begin("op") : -1;
      const awr::Status st = w->RunOp(s, tracer, root);
      if (tracer != nullptr) tracer->End(root);
      const Clock::time_point q1 = Clock::now();
      w->Record(s, st);
      latencies[static_cast<size_t>(s)].push_back(MsBetween(q0, q1));
      if (done.fetch_add(1) + 1 == min_ops) peak_rss_mb = PeakRssMb();
    }
  };
  if (sessions == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; ++s) threads.emplace_back(loop, s);
    for (std::thread& t : threads) t.join();
  }
  Phase p;
  p.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  p.cpu_s = CpuSeconds() - cpu0;
  p.peak_rss_mb = peak_rss_mb;
  for (auto& l : latencies) {
    p.latencies_ms.insert(p.latencies_ms.end(), l.begin(), l.end());
  }
  p.ops = p.latencies_ms.size();
  return p;
}

std::string Format(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

/// The per-layer metrics of a traced phase (per op unless the name says
/// otherwise; layers a workload does not use read 0).
std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const Counts& counts, double ops,
                                 double untraced_p50, double traced_p50) {
  const std::map<std::string, SpanTotals> totals = SummarizeSpans(spans);
  auto span_ms = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms / ops;
  };
  auto count = [&](const std::string& key) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };
  auto per_op = [&](const std::string& key) { return count(key) / ops; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // Filesystem spans are named fs.<op>.<kind>.  Only their counts are
  // reported: awrd's state directory is held in memory (mem_fs.h), so
  // their times are the benchmark's own map copies, not awr storage code.
  double fs_writes = 0, fs_reads = 0, fs_removes = 0, snap_writes = 0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("fs.", 0) != 0) continue;
    const std::string op = name.substr(3, name.find('.', 3) - 3);
    const std::string kind = name.substr(name.rfind('.') + 1);
    const double calls = static_cast<double>(t.count);
    if (op == "write") fs_writes += calls;
    if (op == "read") fs_reads += calls;
    if (op == "remove") fs_removes += calls;
    if (op == "write" && kind == "snap") snap_writes += calls;
  }
  const bool service = counts.count("service.submits") > 0;
  auto ping = totals.find("service.ping");
  auto op = totals.find("op");
  const double eval_ms = span_ms("datalog.eval");
  const double rounds = per_op("datalog.rounds");
  const double kb = 1024.0, mb = 1024.0 * 1024.0;

  return {
      {"datalog.parse_ms", span_ms("datalog.parse"), "ms"},
      {"datalog.eval_ms", eval_ms, "ms"},
      {"datalog.rounds", rounds, "count"},
      {"datalog.charges", per_op("datalog.charges"), "count"},
      {"datalog.facts_out", per_op("datalog.facts_out"), "count"},
      {"datalog.us_per_round", ratio(eval_ms * 1000.0, rounds), "us"},
      {"datalog.useful_match_ratio",
       ratio(count("datalog.new_facts"), count("datalog.charges")), "ratio"},
      {"datalog.high_water_mb", count("datalog.high_water_bytes_max") / mb,
       "MB"},
      {"vm.rules_fired", per_op("vm.rules_fired"), "count"},
      {"vm.ops_dispatched", per_op("vm.ops_dispatched"), "count"},
      {"vm.facts", per_op("vm.facts"), "count"},
      {"vm.programs_lowered", per_op("vm.programs_lowered"), "count"},
      {"vm.cache_hits", per_op("vm.cache_hits"), "count"},
      {"vm.cache_misses", per_op("vm.cache_misses"), "count"},
      {"vm.cache_hit_rate",
       ratio(count("vm.cache_hits"),
             count("vm.cache_hits") + count("vm.cache_misses")),
       "ratio"},
      {"value.render_ms", span_ms("value.render"), "ms"},
      {"value.render_kb", per_op("value.render_bytes") / kb, "KB"},
      {"algebra.eval_ms", span_ms("algebra.eval"), "ms"},
      {"algebra.rounds", per_op("algebra.rounds"), "count"},
      {"algebra.charges", per_op("algebra.charges"), "count"},
      {"algebra.high_water_mb", count("algebra.high_water_bytes_max") / mb,
       "MB"},
      {"translate.ms", span_ms("translate"), "ms"},
      {"translate.expr_size", per_op("translate.expr_size"), "count"},
      {"storage.writes", fs_writes / ops, "count"},
      {"storage.write_kb", per_op("storage.write_bytes") / kb, "KB"},
      {"storage.reads", fs_reads / ops, "count"},
      {"storage.removes", fs_removes / ops, "count"},
      {"snapshot.writes", snap_writes / ops, "count"},
      {"snapshot.kb_per_write",
       ratio(count("snapshot.write_bytes") / kb, snap_writes), "KB"},
      {"service.ping_ms",
       ping == totals.end()
           ? 0.0
           : ratio(ping->second.total_ms, static_cast<double>(ping->second.count)),
       "ms"},
      {"service.submits", count("service.submits"), "count"},
      {"service.completed_ok", count("service.completed_ok"), "count"},
      {"service.dedup_joined", count("service.dedup_joined"), "count"},
      {"service.resumed_runs", count("service.resumed_runs"), "count"},
      {"service.shed", count("service.shed"), "count"},
      {"service.transient", count("service.transient"), "count"},
      {"service.unattributed_ms",
       service && op != totals.end() ? op->second.self_ms / ops : 0.0, "ms"},
      {"bench.tracing_overhead_pct",
       100.0 * ratio(traced_p50 - untraced_p50, untraced_p50), "%"},
      {"bench.span_coverage", SpanCoverage(spans), "ratio"},
  };
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

RunResult RunWorkload(Workload* w, const RunOptions& options) {
  RunResult out;
  auto fail_setup = [&](const awr::Status& st) {
    out.notes.push_back(std::string("set-up failed: ") + st.ToString());
    out.attempted = 0;
    return out;
  };
  // A single caller runs on this thread; awrd's sessions and server
  // threads are left to the scheduler.
  std::unique_ptr<CpuRotation> rotation;
  if (w->sessions() == 1) rotation = std::make_unique<CpuRotation>();

  if (!options.trace) {
    SpeedProbe probe;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
      w->TearDown();  // taking down the previous set-up is not set-up time
      const Clock::time_point t0 = Clock::now();
      const awr::Status st = SetUpOnce(w, options.seed, nullptr);
      if (!st.ok()) return fail_setup(st);
      setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    const double probe_cpu0 = probe.CpuSeconds();
    Phase p = RunPhase(w, nullptr, options.seconds, kMinOps, 0);
    probe.Stop();
    p.cpu_s -= probe.CpuSeconds() - probe_cpu0;
    const double scale = probe.Scale();
    out.attempted = p.ops;
    out.failed = w->CheckOutputs();
    w->TearDown();
    const double ops = static_cast<double>(p.ops);
    const double p50 = Percentile(p.latencies_ms, 0.5);
    const double p90 = Percentile(p.latencies_ms, 0.9);
    const double cpu_ms = 1000.0 * p.cpu_s / ops;
    out.metrics = {
        {"latency_ms_p50", p50 * scale, "ms"},
        {"latency_ms_p90", p90 * scale, "ms"},
        {"ops_per_s", ops / p.wall_s / scale, "ops/s"},
        {"cpu_ms_per_op", cpu_ms * scale, "ms"},
        {"peak_rss_mb", p.peak_rss_mb, "MB"},
        {"setup_s", Median(setup_s) * scale, "s"},
    };
    out.notes.push_back(Format("samples=%.0f (%.0f beyond p90) wall_s=%.3f",
                               ops, ops - std::ceil(0.9 * ops), p.wall_s));
    out.notes.push_back(
        Format("speed probe: median %.4f ms over %.0f runs; scale %.4f",
               probe.MedianMs(), static_cast<double>(probe.samples()), scale));
    out.notes.push_back(
        Format("unscaled: latency_ms_p50 %.4f latency_ms_p90 %.4f ", p50, p90) +
        Format("ops_per_s %.4f cpu_ms_per_op %.4f setup_s %.4f", ops / p.wall_s,
               cpu_ms, Median(setup_s)));
    std::string setups = "setup_s of each set-up (unscaled):";
    for (double s : setup_s) setups += Format(" %.4f", s);
    out.notes.push_back(setups);
    return out;
  }

  // Untraced reference phase, then the traced phase on a fresh set-up.
  awr::Status st = SetUpOnce(w, options.seed, nullptr);
  if (!st.ok()) return fail_setup(st);
  const Phase untraced =
      RunPhase(w, nullptr, options.seconds / 2, kReferenceMinOps, 0);
  uint64_t failed = w->CheckOutputs();
  w->TearDown();

  Tracer tracer;
  st = SetUpOnce(w, options.seed, &tracer);
  if (!st.ok()) return fail_setup(st);
  tracer.Clear();  // drop the warm-up's filesystem spans
  w->BeginTracedPhase();
  const Phase traced = RunPhase(w, &tracer, 0, 0,
                                static_cast<uint64_t>(w->traced_ops()));
  const Counts counts = w->EndTracedPhase();
  const std::vector<Span> spans = tracer.Snapshot();
  failed += w->CheckOutputs();
  w->TearDown();

  out.attempted = untraced.ops + traced.ops;
  out.failed = failed;
  const double untraced_p50 = Percentile(untraced.latencies_ms, 0.5);
  const double traced_p50 = Percentile(traced.latencies_ms, 0.5);
  out.metrics = LayerMetrics(spans, counts, static_cast<double>(traced.ops),
                             untraced_p50, traced_p50);
  out.notes.push_back(
      Format("untraced: %.0f ops, p50 %.4f ms; ",
             static_cast<double>(untraced.ops), untraced_p50) +
      Format("traced: %.0f ops, p50 %.4f ms", static_cast<double>(traced.ops),
             traced_p50));
  out.notes.push_back("span self time per op (ms):");
  for (const auto& [name, t] : SummarizeSpans(spans)) {
    out.notes.push_back(
        Format("  %-7.0f calls  %10.4f total  %10.4f self  ",
               static_cast<double>(t.count),
               t.total_ms / static_cast<double>(traced.ops),
               t.self_ms / static_cast<double>(traced.ops)) +
        name);
  }
  if (!options.trace_path.empty()) {
    if (WriteSpans(spans, options.trace_path)) {
      out.notes.push_back("spans written to " + options.trace_path);
    } else {
      out.notes.push_back("could not write " + options.trace_path);
    }
  }
  return out;
}

std::string ResultJson(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", v);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  return json + "}}";
}

}  // namespace perfbench
