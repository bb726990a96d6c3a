// Shared machinery of the end-to-end benchmark: arguments, latency
// summaries, answer digests, the benchmark's own span log, per-layer
// self-time accounting over the program's trace spans, and the result
// record every workload fills in.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pdms/core/network.h"
#include "pdms/data/database.h"
#include "pdms/data/relation.h"
#include "pdms/fault/degradation.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for span dumps and result records.
  std::string out_dir = ".bench_build/results";
};

inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

/// Host speed gauge. A shared host's speed wanders by a quarter or more
/// over seconds to minutes as its neighbours load it, and every time the
/// benchmark takes follows it (thread CPU time too, so it is slower
/// execution, not descheduling). The workload's own threads run a fixed
/// reference kernel (string formatting, hashing and allocation; no program
/// code) between requests, at most every kGaugePeriodMs, so it runs on the
/// cores the requests run on, and the gauge records the kernel's thread
/// CPU time. The host's speed factor over an interval is the median kernel
/// time there over kGaugeNominalMs, a fixed reference time for the kernel
/// (about its time on the 4-vCPU Xeon host the benchmark was tuned on), so
/// a time divided by the factor reads in milliseconds of a host running
/// the kernel at that speed. The kernel takes about 3% of a caller's time,
/// outside every timed request. Over five seeds on that host the quartile
/// spread of a wall-clock median reached 0.26 where the rescaled one
/// stayed under 0.07.
class HostGauge {
 public:
  /// Runs the kernel once if kGaugePeriodMs have passed since the last run
  /// on any thread, and returns the milliseconds that took (0 when none was
  /// due), so the caller can leave them out of its wall time. Call it
  /// between requests.
  double Tick();
  /// Runs the kernel `count` times back to back (before and after a
  /// set-up, which takes too long to tick inside).
  void Burst(int count);
  /// Speed factor over [from_ms, to_ms] (NowMs clock): >1 when the host
  /// runs slower than the reference. The window widens around its centre
  /// until it holds kGaugeMinSamples samples; 1 without any.
  double Factor(double from_ms, double to_ms) const;
  size_t samples() const;

 private:
  void Sample();
  mutable std::mutex mu_;
  // (NowMs at the kernel's start, kernel CPU ms); sorted lazily.
  mutable std::vector<std::pair<double, double>> samples_;
  double next_due_ms_ = 0;
};

inline constexpr double kGaugePeriodMs = 10;
inline constexpr double kGaugeNominalMs = 0.17;
inline constexpr size_t kGaugeMinSamples = 50;

/// The process's gauge.
HostGauge& Gauge();

/// Median and tail of a latency sample. The tail is the highest whole
/// percentile, up to p99, that still has at least ten samples beyond it.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0;
  double tail = 0;
  int tail_percentile = 0;
  size_t beyond_tail = 0;
};
LatencySummary Summarize(std::vector<double> samples);
double Median(std::vector<double> v);

/// Order-independent digest of an answer relation plus its completeness
/// verdict: the reference and the measured path must agree on both.
uint64_t AnswerDigest(const pdms::Relation& answers,
                      pdms::Completeness verdict);

/// Creates `path` and its parents.
void MakeDirs(const std::string& path);

/// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

/// One span the benchmark records around a public call. `request` is the
/// request index within the measured phase (-1 for set-up spans).
struct BenchSpan {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t request = -1;
  /// Self time per program layer, folded from the program's own spans
  /// captured under this call.
  std::map<std::string, double> layers;
};

/// Spans kept in memory for the whole run and written out at exit.
class SpanLog {
 public:
  void Add(BenchSpan span) { spans_.push_back(std::move(span)); }
  /// Writes the spans as JSON lines; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<BenchSpan> spans_;
};

/// Folds a program trace into per-layer self times (a span's duration
/// minus the time its direct children cover): the reformulator's
/// tree spans into `core.build_ms`, enumeration into
/// `core.enumerate_self_ms`, per-rewriting evaluation into `eval.eval_ms`,
/// `cache_lookup`, `qp.plan` and `qp.exec` into their layers, and the
/// facade's own query/evaluate self time into `cache.hit_gap_ms` on a plan
/// cache hit (the copy between lookup and planning) or `core.facade_ms`
/// otherwise. Unknown span names land in `other.<name>_ms`.
std::map<std::string, double> FoldLayers(
    const std::vector<pdms::obs::Span>& spans, bool cache_hit);

/// Summed duration of the spans without a parent.
double RootSpanMs(const std::vector<pdms::obs::Span>& spans);

/// Counter deltas between two registry snapshots.
std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after);

/// A metric value with its unit, printed with every digit it has.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  bool correct = true;
  std::vector<std::string> errors;  // first few failure descriptions

  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  /// End-to-end figures that exist on one workload only: printed with the
  /// table and kept in the record, but not in the result line.
  std::map<std::string, Metric> workload_metrics;
  /// Values that must repeat exactly for the same workload and seed.
  std::map<std::string, double> exact;
  /// Host and traffic record (free-form scalars, strings as JSON strings).
  std::map<std::string, std::string> record;
  /// Layer shares of the traced median request window.
  std::map<std::string, double> layer_ms;

  /// Counts `count` failed requests and keeps the first few reasons.
  void Fail(const std::string& what, uint64_t count = 1);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Record(const std::string& key, double value);
  void Record(const std::string& key, const std::string& value);
};

/// Sets every per-layer metric a traced run reports (the `per_layer` list
/// of BENCHMARK.json) to 0, to be overwritten by what the run measures: a
/// layer a workload does not exercise reports 0.
void ZeroPerLayer(RunResult* result);

/// Records the host block shared by every workload.
void RecordHost(const Args& args, RunResult* result);

/// Records the traffic shape and the data volume (every workload runs one
/// caller-side facade thread over a 48-peer world).
void RecordTraffic(const std::string& shape, size_t client_connections,
                   size_t server_workers, RunResult* result);

/// Keeps only the samples of whole passes over a pool of `pass` queries
/// (all of them when no pass completed), so each pool query weighs the same
/// in every percentile.
template <typename T>
std::vector<T> WholePasses(std::vector<T> samples, size_t pass) {
  size_t whole = samples.size() / pass * pass;
  if (whole > 0) samples.resize(whole);
  return samples;
}

/// Reference digests, computed outside every timed phase: a fresh,
/// uncached facade over `network` and `data` answers each query through
/// AnswerWithReport. A query the reference cannot answer makes the run
/// incorrect and gets digest 0.
std::vector<uint64_t> ReferenceDigests(const pdms::PdmsNetwork& network,
                                       const pdms::Database& data,
                                       const std::vector<std::string>& queries,
                                       RunResult* result);

/// `ms` of wall time that began at `start_ms`, in reference host
/// milliseconds: divided by the gauge's factor around it. Call it after the
/// timed phase, so the gauge window is centred on the interval.
double RefMs(double start_ms, double ms);

/// Fills latency_p50_ms / latency_tail_ms / throughput_qps from a closed
/// loop's samples in reference host time: `ref_ms` holds each request's
/// `wall_ms` through RefMs, and the throughput over `phase_wall_ms` is
/// scaled by the requests' mean factor (their summed wall time over their
/// summed reference time). Records the wall-clock figures, the mean factor
/// and the tail percentile used.
void ReportLatency(const std::vector<double>& ref_ms,
                   const std::vector<double>& wall_ms, size_t completed,
                   double phase_wall_ms, RunResult* result);

/// Per-layer accounting of a traced run: each measured request carries its
/// latency and its layer self times; the requests around the median are
/// averaged, and the attributed layers (all but the named remainders
/// `bench.*` and `other.*`) are checked against the traced median.
struct LayerAccount {
  struct Request {
    double latency_ms = 0;
    /// Additive: self times that together make up the latency.
    std::map<std::string, double> layers;
    /// Per-request values that are not parts of the latency (time to the
    /// first rewriting, say); averaged over the same window.
    std::map<std::string, double> extras;
  };
  std::vector<Request> requests;

  /// Averages each layer and extra over the requests whose latency lies
  /// within kWindowBand of `p50_ms` (at least three), writes the layer
  /// averages into `result->layer_ms`, and returns layers and extras
  /// together. When the attributed layers miss `p50_ms` by more than
  /// kReconcileTolerance the run is marked incorrect.
  std::map<std::string, double> Reconcile(double p50_ms, RunResult* result);
};

/// Relative tolerance within which the attributed layer self times of the
/// traced median requests must add up to the traced latency_p50_ms.
inline constexpr double kReconcileTolerance = 0.10;
/// Relative distance from the traced median within which a request joins
/// the reconciliation window.
inline constexpr double kWindowBand = 0.05;

/// Writes `result` as the run's record file and prints the human-readable
/// table plus the final one-line JSON result to stdout.
void Emit(const Args& args, const RunResult& result);

/// Workload entry points.
RunResult RunColdStream(const Args& args, SpanLog* spans);
RunResult RunHotServe(const Args& args, SpanLog* spans);
RunResult RunChurnRw(const Args& args, SpanLog* spans);
RunResult RunSimWan(const Args& args, SpanLog* spans);

/// The set-up times of one run, each in reference host time (divided by the
/// gauge's factor around it), reported as their median.
class SetupTimes {
 public:
  /// Times one set-up between two gauge bursts; the caller destroys what
  /// it returns, untimed.
  template <typename T>
  T Time(const std::function<T()>& setup) {
    Gauge().Burst(kSetupBurst);
    double start = NowMs();
    T instance = setup();
    intervals_.emplace_back(start, NowMs());
    Gauge().Burst(kSetupBurst);
    return instance;
  }

  /// Times `count` set-ups back to back, each destroyed (untimed) before
  /// the next, and returns the last.
  template <typename T>
  T TimeRepeated(const std::function<T()>& setup, int count) {
    T instance = Time(setup);
    for (int i = 1; i < count; ++i) {
      instance = T();
      instance = Time(setup);
    }
    return instance;
  }

  /// Gauge samples taken on each side of a set-up.
  static constexpr int kSetupBurst = 8;

  size_t count() const { return intervals_.size(); }
  /// Median set-up time in reference host seconds.
  double MedianSeconds() const;
  /// Median set-up time in wall-clock seconds.
  double WallMedianSeconds() const;

 private:
  std::vector<std::pair<double, double>> intervals_;
};

/// Set-ups timed back to back by the workloads whose set-up takes tens of
/// milliseconds (cold_stream, sim_wan).
inline constexpr int kSetups = 15;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
