#include "bench.h"

#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstddef>
#include <fstream>
#include <memory_resource>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "pdms/core/pdms.h"
#include "worlds.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

double ThreadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

// The gauge's reference kernel: the same fixed work every call, of the
// kind the program does per request (formatting, hashing, allocation).
// It allocates from an arena of its own, so its time does not depend on
// the state the program leaves the shared heap in.
uint64_t GaugeKernel() {
  thread_local std::vector<std::byte> arena(256 << 10);
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size());
  std::pmr::unordered_map<std::pmr::string, uint64_t> counts(&pool);
  char key[24];
  for (uint64_t i = 0; i < 1000; ++i) {
    std::snprintf(key, sizeof(key), "v%llu",
                  static_cast<unsigned long long>(i * 7919 % 100003));
    counts[std::pmr::string(key, &pool)] += i;
  }
  uint64_t acc = 0;
  for (const auto& [k, n] : counts) acc += n * k.size();
  return acc;
}

}  // namespace

void HostGauge::Sample() {
  double at = NowMs();
  // An untimed run first brings the kernel's code and data back into the
  // caches, so the timed run does not depend on what the program did just
  // before.
  volatile uint64_t sink = GaugeKernel();
  double cpu = ThreadCpuMs();
  sink = sink + GaugeKernel();
  double kernel_ms = ThreadCpuMs() - cpu;
  std::lock_guard<std::mutex> lock(mu_);
  samples_.emplace_back(at, kernel_ms);
}

double HostGauge::Tick() {
  double now = NowMs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (now < next_due_ms_) return 0;
    next_due_ms_ = now + kGaugePeriodMs;
  }
  Sample();
  return NowMs() - now;
}

void HostGauge::Burst(int count) {
  for (int i = 0; i < count; ++i) Sample();
}

double HostGauge::Factor(double from_ms, double to_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 1;
  // Two client threads may append out of order.
  if (!std::is_sorted(samples_.begin(), samples_.end())) {
    std::sort(samples_.begin(), samples_.end());
  }
  // Take the samples in the window, then widen it around its centre until
  // it holds enough.
  auto lower = std::lower_bound(
      samples_.begin(), samples_.end(), std::make_pair(from_ms, -1.0));
  auto upper = std::upper_bound(
      samples_.begin(), samples_.end(), std::make_pair(to_ms, 1e300));
  while (static_cast<size_t>(upper - lower) < kGaugeMinSamples &&
         (lower != samples_.begin() || upper != samples_.end())) {
    if (lower != samples_.begin()) --lower;
    if (upper != samples_.end()) ++upper;
  }
  std::vector<double> ms;
  for (auto it = lower; it != upper; ++it) ms.push_back(it->second);
  double median = Median(ms);
  return median > 0 ? median / kGaugeNominalMs : 1;
}

size_t HostGauge::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

HostGauge& Gauge() {
  static HostGauge gauge;
  return gauge;
}

double SetupTimes::MedianSeconds() const {
  std::vector<double> ms;
  for (const auto& [start, end] : intervals_) {
    ms.push_back((end - start) / Gauge().Factor(start, end));
  }
  return Median(ms) / 1000.0;
}

double SetupTimes::WallMedianSeconds() const {
  std::vector<double> ms;
  for (const auto& [start, end] : intervals_) ms.push_back(end - start);
  return Median(ms) / 1000.0;
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Median(samples);
  // Highest whole percentile p (at most p99) with at least ten samples
  // above the nearest-rank p-th value. Capping at p99 keeps the same
  // percentile from run to run once a run has 1,000 samples.
  for (int p = 99; p >= 50; --p) {
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * samples.size()));
    if (rank == 0) rank = 1;
    size_t beyond = samples.size() - rank;
    if (beyond >= 10) {
      s.tail_percentile = p;
      s.tail = samples[rank - 1];
      s.beyond_tail = beyond;
      break;
    }
  }
  if (s.tail_percentile == 0) {  // fewer than 20 samples: report the max
    s.tail_percentile = 100;
    s.tail = samples.back();
    s.beyond_tail = 0;
  }
  return s;
}

uint64_t AnswerDigest(const pdms::Relation& answers,
                      pdms::Completeness verdict) {
  std::vector<std::string> rows;
  rows.reserve(answers.size());
  for (const pdms::Tuple& t : answers.tuples()) {
    rows.push_back(pdms::TupleToString(t));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  mix(std::to_string(answers.arity()));
  mix(std::to_string(static_cast<int>(verdict)));
  for (const std::string& r : rows) mix(r);
  return h;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsObject(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

// Self time (duration minus the time its direct children cover) summed per
// span name. Zero-duration instants count 0.
std::map<std::string, double> SelfTimesByName(
    const std::vector<pdms::obs::Span>& spans) {
  // Span ids are dense and 1-based, so a span's index is id - 1.
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const pdms::obs::Span& s : spans) {
    if (s.parent != pdms::obs::kNoSpan && s.parent <= spans.size()) {
      child_ms[s.parent - 1] += s.duration_ms();
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    double own = spans[i].duration_ms() - child_ms[i];
    self[spans[i].name] += own > 0 ? own : 0;
  }
  return self;
}

}  // namespace

void MakeDirs(const std::string& path) {
  std::string partial = path.rfind('/', 0) == 0 ? "/" : "";
  std::stringstream ss(path);
  std::string part;
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    ::mkdir(partial.c_str(), 0755);
  }
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const BenchSpan& s : spans_) {
    std::string line = "{\"name\": \"" + JsonEscape(s.name) +
                       "\", \"request\": " + std::to_string(s.request) +
                       ", \"start_ms\": " + Num(s.start_ms) +
                       ", \"end_ms\": " + Num(s.end_ms) + ", \"self_ms\": {";
    bool first = true;
    for (const auto& [layer, ms] : s.layers) {
      line += (first ? "\"" : ", \"") + JsonEscape(layer) + "\": " + Num(ms);
      first = false;
    }
    line += "}}\n";
    std::fputs(line.c_str(), f);
  }
  return std::fclose(f) == 0;
}

std::map<std::string, double> FoldLayers(
    const std::vector<pdms::obs::Span>& spans, bool cache_hit) {
  static const std::map<std::string, std::string> kLayer = {
      {"reformulate", "core.build_ms"},
      {"build_tree", "core.build_ms"},
      {"expand", "core.build_ms"},
      {"definitional", "core.build_ms"},
      {"inclusion", "core.build_ms"},
      {"mcd", "core.build_ms"},
      {"enumerate", "core.enumerate_self_ms"},
      {"join", "eval.eval_ms"},
      {"eval_cq", "eval.eval_ms"},
      {"access", "eval.eval_ms"},
      {"cache_lookup", "cache.lookup_ms"},
      {"qp.plan", "qp.plan_ms"},
      {"qp.exec", "qp.exec_ms"},
      {"serve", "serve.service_self_ms"},
      {"rpc_query", "serve.rpc_self_ms"},
  };
  std::map<std::string, double> layers;
  for (const auto& [name, ms] : SelfTimesByName(spans)) {
    if (ms <= 0) continue;
    auto it = kLayer.find(name);
    if (it != kLayer.end()) {
      layers[it->second] += ms;
    } else if (name == "query" || name == "evaluate") {
      layers[cache_hit ? "cache.hit_gap_ms" : "core.facade_ms"] += ms;
    } else {
      layers["other." + name + "_ms"] += ms;
    }
  }
  return layers;
}

double RootSpanMs(const std::vector<pdms::obs::Span>& spans) {
  double total = 0;
  for (const pdms::obs::Span& s : spans) {
    if (s.parent == pdms::obs::kNoSpan) total += s.duration_ms();
  }
  return total;
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t base = it == before.end() ? 0 : it->second;
    if (value > base) delta[name] = value - base;
  }
  return delta;
}

void RunResult::Fail(const std::string& what, uint64_t count) {
  failed += count;
  if (errors.size() < 8) errors.push_back(what);
}

void RunResult::Record(const std::string& key, double value) {
  record[key] = Num(value);
}

void RunResult::Record(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += JsonEscape(value);
  quoted += '"';
  record[key] = std::move(quoted);
}

void ZeroPerLayer(RunResult* result) {
  static const std::pair<const char*, const char*> kMetrics[] = {
      {"first_answer_p50_ms", "ms"},
      {"net_latency_p50_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"lang.parse_ms", "ms"},
      {"core.build_ms", "ms"},
      {"core.first_rewriting_ms", "ms"},
      {"core.enumerate_self_ms", "ms"},
      {"core.us_per_rewriting", "us"},
      {"core.tree_nodes", "count"},
      {"core.rewritings", "count"},
      {"core.duplicate_frac", "ratio"},
      {"eval.stream_ms", "ms"},
      {"eval.answers_per_disjunct", "ratio"},
      {"cache.hit_rate", "ratio"},
      {"cache.lookup_ms", "ms"},
      {"cache.hit_gap_ms", "ms"},
      {"cache.invalidations_per_write", "1/write"},
      {"cache.stale_drops", "1/write"},
      {"cache.memo_hit_rate", "ratio"},
      {"qp.plan_ms", "ms"},
      {"qp.exec_ms", "ms"},
      {"qp.gate_ms", "ms"},
      {"qp.plan_reuse_rate", "ratio"},
      {"qp.disjuncts_per_query", "count"},
      {"qp.productive_disjunct_frac", "ratio"},
      {"qp.stats_rebuilds_per_write", "1/write"},
      {"sim.messages_per_query", "count"},
      {"sim.tuples_per_query", "count"},
      {"sim.retransmits", "count"},
      {"sim.relay_batches", "count"},
      {"sim.resolve_ms", "ms"},
      {"sim.answer_wall_ms", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.queue_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.bytes_out_per_query", "bytes"},
      {"serve.coalesced_frac", "ratio"},
      {"serve.shed_frac", "ratio"},
      {"data.load_ms", "ms"},
      {"churn.step_ms", "ms"},
  };
  for (const auto& [name, unit] : kMetrics) result->Set(name, 0, unit);
}

void RecordHost(const Args& args, RunResult* result) {
  long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  result->Record("host.nproc", static_cast<double>(nproc));
  result->Record("host.hardware_concurrency",
                 static_cast<double>(std::thread::hardware_concurrency()));
  result->Record("host.build_type", PDMS_BUILD_TYPE);
  result->Record("host.compiler", PDMS_COMPILER);
  result->Record("traffic.seed", static_cast<double>(args.seed));
  result->Record("traffic.seconds", args.seconds);
  result->Record("traffic.traced", args.trace ? 1.0 : 0.0);
}

void RecordTraffic(const std::string& shape, size_t client_connections,
                   size_t server_workers, RunResult* result) {
  result->Record("traffic.shape", shape);
  result->Record("traffic.facade_threads", 1.0);
  result->Record("traffic.client_connections",
                 static_cast<double>(client_connections));
  result->Record("traffic.server_workers", static_cast<double>(server_workers));
  result->Record("data.peers", 48.0);
  result->Record("data.facts_per_stored",
                 static_cast<double>(kFactsPerStored));
  result->Record("data.value_domain", static_cast<double>(kValueDomain));
}

std::vector<uint64_t> ReferenceDigests(const pdms::PdmsNetwork& network,
                                       const pdms::Database& data,
                                       const std::vector<std::string>& queries,
                                       RunResult* result) {
  pdms::Pdms reference;
  *reference.mutable_network() = network;
  *reference.mutable_database() = data;
  std::vector<uint64_t> digests;
  for (const std::string& query : queries) {
    auto expected = reference.AnswerWithReport(query);
    if (!expected.ok()) {
      result->correct = false;
      result->Fail("reference failed on " + query + ": " +
                       expected.status().ToString(),
                   0);
      digests.push_back(0);
      continue;
    }
    digests.push_back(AnswerDigest(expected->answers,
                                   expected->degradation.completeness));
  }
  return digests;
}

double RefMs(double start_ms, double ms) {
  return ms / Gauge().Factor(start_ms, start_ms + ms);
}

void ReportLatency(const std::vector<double>& ref_ms,
                   const std::vector<double>& wall_ms, size_t completed,
                   double phase_wall_ms, RunResult* result) {
  LatencySummary s = Summarize(ref_ms);
  LatencySummary wall = Summarize(wall_ms);
  double qps = phase_wall_ms > 0 ? 1000.0 * completed / phase_wall_ms : 0;
  double wall_sum = 0, ref_sum = 0;
  for (double ms : wall_ms) wall_sum += ms;
  for (double ms : ref_ms) ref_sum += ms;
  double factor = ref_sum > 0 ? wall_sum / ref_sum : 1;
  result->Set("latency_p50_ms", s.p50, "ms");
  result->Set("latency_tail_ms", s.tail, "ms");
  result->Set("throughput_qps", qps * factor, "1/s");
  result->Record("host.speed_factor", factor);
  result->Record("wall.latency_p50_ms", wall.p50);
  result->Record("wall.latency_tail_ms", wall.tail);
  result->Record("wall.throughput_qps", qps);
  result->Record("traffic.latency_samples", static_cast<double>(s.samples));
  result->Record("traffic.tail_percentile", s.tail_percentile);
  result->Record("traffic.samples_beyond_tail",
                 static_cast<double>(s.beyond_tail));
  result->Record("traffic.completed", static_cast<double>(completed));
  result->Record("traffic.measured_wall_ms", phase_wall_ms);
}

std::map<std::string, double> LayerAccount::Reconcile(double p50_ms,
                                                      RunResult* result) {
  std::map<std::string, double> avg;
  if (requests.empty()) return avg;
  // The window: the requests within kWindowBand of the traced median (at
  // least the three nearest it), so its mean latency stays within the band
  // of the median however lopsided or sparse the distribution is there.
  std::vector<const Request*> window;
  for (const Request& r : requests) window.push_back(&r);
  std::sort(window.begin(), window.end(),
            [p50_ms](const Request* a, const Request* b) {
              return std::fabs(a->latency_ms - p50_ms) <
                     std::fabs(b->latency_ms - p50_ms);
            });
  size_t width = 0;
  while (width < window.size() &&
         (width < 3 || std::fabs(window[width]->latency_ms - p50_ms) <=
                           kWindowBand * p50_ms)) {
    ++width;
  }
  window.resize(width);
  size_t n = 0;
  double window_total = 0;
  std::map<std::string, double> extras;
  for (const Request* rp : window) {
    const Request& r = *rp;
    ++n;
    window_total += r.latency_ms;
    for (const auto& [layer, ms] : r.layers) avg[layer] += ms;
    for (const auto& [name, v] : r.extras) extras[name] += v;
  }
  // The named remainders are time no program span claims: the call
  // outside the program's root span (`bench.*`) and spans no layer maps
  // (`other.*`). Everything else is attributed and must add up to the
  // median on its own.
  double attributed = 0, unattributed = 0;
  for (auto& [layer, ms] : avg) {
    ms /= n;
    bool remainder =
        layer.rfind("bench.", 0) == 0 || layer.rfind("other.", 0) == 0;
    (remainder ? unattributed : attributed) += ms;
  }
  result->layer_ms = avg;
  for (const auto& [name, v] : extras) avg[name] = v / n;
  double gap = p50_ms > 0 ? std::fabs(attributed - p50_ms) / p50_ms : 0;
  bool ok = gap <= kReconcileTolerance;
  result->Record("reconcile.window_requests", static_cast<double>(n));
  result->Record("reconcile.window_mean_ms", window_total / n);
  result->Record("reconcile.attributed_ms", attributed);
  result->Record("reconcile.unattributed_ms", unattributed);
  result->Record("reconcile.traced_p50_ms", p50_ms);
  result->Record("reconcile.relative_gap", gap);
  result->Record("reconcile.tolerance", kReconcileTolerance);
  result->Record("reconcile.ok", ok ? 1.0 : 0.0);
  if (!ok) {
    result->correct = false;
    result->Fail("attributed layers miss the traced median by " +
                     std::to_string(gap * 100) + "%",
                 0);
  }
  return avg;
}

void Emit(const Args& args, const RunResult& result) {
  std::string base = args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     (args.trace ? "1" : "0");
  // The record: everything a later reader needs to interpret the run.
  std::string json = "{\n  \"workload\": \"" + args.workload + "\",\n";
  json += "  \"correct\": " + std::string(result.correct ? "true" : "false") +
          ",\n  \"attempted\": " + std::to_string(result.attempted) +
          ",\n  \"failed\": " + std::to_string(result.failed) +
          ",\n  \"mismatches\": " + std::to_string(result.mismatches) +
          ",\n  \"metrics\": " + MetricsObject(result.metrics) +
          ",\n  \"workload_metrics\": " +
          MetricsObject(result.workload_metrics) + ",\n  \"exact\": {";
  bool first = true;
  for (const auto& [name, v] : result.exact) {
    json += std::string(first ? "\n" : ",\n") + "    \"" + name +
            "\": " + Num(v);
    first = false;
  }
  json += "\n  },\n  \"layer_ms\": {";
  first = true;
  for (const auto& [name, v] : result.layer_ms) {
    json += std::string(first ? "\n" : ",\n") + "    \"" + name +
            "\": " + Num(v);
    first = false;
  }
  json += "\n  },\n  \"record\": {";
  first = true;
  for (const auto& [key, v] : result.record) {
    json += std::string(first ? "\n" : ",\n") + "    \"" + key + "\": " + v;
    first = false;
  }
  json += "\n  },\n  \"errors\": [";
  first = true;
  for (const std::string& e : result.errors) {
    json += std::string(first ? "" : ", ") + "\"" + JsonEscape(e) + "\"";
    first = false;
  }
  json += "]\n}\n";
  std::FILE* f = std::fopen((base + ".json").c_str(), "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  // Human-readable table: every metric by name with its unit.
  std::printf("# %s seed=%llu trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  for (const auto& [name, m] : result.metrics) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : result.workload_metrics) {
    std::printf("%-34s %16.6f %s (%s only)\n", name.c_str(), m.value,
                m.unit.c_str(), args.workload.c_str());
  }
  if (!result.layer_ms.empty()) {
    std::printf("# layer self time of the median request window (ms)\n");
    for (const auto& [name, v] : result.layer_ms) {
      std::printf("  %-32s %12.4f\n", name.c_str(), v);
    }
  }
  for (const std::string& e : result.errors) {
    std::printf("# failure: %s\n", e.c_str());
  }
  std::printf("# attempted=%llu failed=%llu mismatches=%llu record=%s.json\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.mismatches),
              base.c_str());

  // The final line: the machine-readable result.
  std::string line = "{\"correct\": " +
                     std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": " + MetricsObject(result.metrics) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::MakeDirs(args.out_dir);
  perfbench::SpanLog spans;
  perfbench::RunResult result;
  if (args.workload == "cold_stream") {
    result = perfbench::RunColdStream(args, &spans);
  } else if (args.workload == "hot_serve") {
    result = perfbench::RunHotServe(args, &spans);
  } else if (args.workload == "churn_rw") {
    result = perfbench::RunChurnRw(args, &spans);
  } else if (args.workload == "sim_wan") {
    result = perfbench::RunSimWan(args, &spans);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (cold_stream, hot_serve, churn_rw, "
                 "sim_wan)\n",
                 args.workload.c_str());
    return 2;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no request was attempted\n");
    return 1;
  }
  perfbench::RecordHost(args, &result);
  result.Record("host.gauge_samples",
                static_cast<double>(perfbench::Gauge().samples()));
  result.Record("peak_rss_mb_at_exit", perfbench::PeakRssMb());
  if (args.trace) {
    std::string path = args.out_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + "-spans.jsonl";
    if (!spans.Write(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  perfbench::Emit(args, result);
  return 0;
}
