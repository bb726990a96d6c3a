// ppl_serverd: the networked PDMS serving daemon (docs/serving.md,
// docs/serving_telemetry.md).
//
// Loads PPL programs, binds a TCP port, and answers wire-protocol query
// frames with admission control and load shedding: a bounded queue sheds
// eagerly when full, requests carrying a budget are shed when the
// remaining budget cannot cover the queue's expected wait, and budgets
// that survive admission become reformulation deadlines so overload
// degrades to sound partial answers instead of timeouts.
//
// Telemetry: the daemon always feeds a rolling SLO window (served to
// kStatsRequest frames and the `ppl_top` console), optionally writes an
// NDJSON access log, and answers traced (version-2) query frames with
// its span tree so a client can assemble one cross-process Chrome trace.
//
// Usage:
//   ./ppl_serverd [--port N] [--addr A] [--workers N] [--queue N]
//                 [--floor MS] [--access-log PATH] [--remote REL=H:P]
//                 [--linger] [program.ppl ...]
//
//   --port N           TCP port (default 7432; 0 picks an ephemeral port)
//   --addr A           bind address (default 127.0.0.1)
//   --workers N        evaluation worker threads (default 2)
//   --queue N          admission queue bound (default 64)
//   --floor MS         minimum service time per request (bench knob)
//   --access-log PATH  append NDJSON access-log lines to PATH
//   --remote REL=H:P   serve stored relation REL from the ppl_serverd at
//                      host H port P (repeatable; federated scans)
//   --linger           do not read stdin; run until SIGINT/SIGTERM
//
// With no program files a small demo network is served. Without --linger
// the daemon reads commands from stdin: `metrics`, `admission`, `stats`,
// `quit` (EOF quits too). SIGINT/SIGTERM trigger a graceful shutdown
// either way: drain in-flight requests, print a final stats snapshot,
// and flush the access-log tail. Talk to the daemon with `ppl_shell`
// (`connect 127.0.0.1:<port>`) or `ppl_top`.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pdms/core/pdms.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/rolling.h"
#include "pdms/serve/access_log.h"
#include "pdms/serve/server.h"
#include "pdms/util/strings.h"

namespace {

constexpr const char* kDemoProgram = R"(
peer Hospital { relation Doctor(name, hospital); }
peer Clinic { relation Physician(name, clinic); }
stored hdoc(name, hospital) <= Hospital:Doctor(name, hospital).
mapping Clinic:Physician(n, c) :- Hospital:Doctor(n, c).
fact hdoc("alice", "county").
fact hdoc("bo", "mercy").
)";

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7432;
  std::string addr = "127.0.0.1";
  size_t workers = 2;
  size_t queue = 64;
  double floor_ms = 0;
  std::string access_log_path;
  bool linger = false;
  std::vector<std::pair<std::string, std::string>> remotes;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--addr") {
      addr = next();
    } else if (arg == "--workers") {
      workers = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--queue") {
      queue = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--floor") {
      floor_ms = std::atof(next());
    } else if (arg == "--access-log") {
      access_log_path = next();
    } else if (arg == "--linger") {
      linger = true;
    } else if (arg == "--remote") {
      std::string spec = next();
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::fprintf(stderr, "--remote wants REL=HOST:PORT, got '%s'\n",
                     spec.c_str());
        return 1;
      }
      remotes.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--port N] [--addr A] [--workers N] "
                  "[--queue N] [--floor MS] [--access-log PATH] "
                  "[--remote REL=H:P] [--linger] [program.ppl ...]\n",
                  argv[0]);
      return 0;
    } else {
      files.push_back(arg);
    }
  }

  pdms::Pdms pdms;
  if (files.empty()) {
    pdms::Status status = pdms.LoadProgram(kDemoProgram);
    if (!status.ok()) {
      std::fprintf(stderr, "demo program: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("no program files; serving the built-in demo network\n");
  }
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    pdms::Status status = pdms.LoadProgram(buffer.str());
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("loaded %s\n", path.c_str());
  }

  pdms::obs::MetricsRegistry metrics;
  pdms::obs::RollingStats rolling;
  std::unique_ptr<pdms::serve::AccessLog> access_log;
  if (!access_log_path.empty()) {
    auto opened = pdms::serve::AccessLog::Open({access_log_path});
    if (!opened.ok()) {
      std::fprintf(stderr, "access log: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    access_log = std::move(*opened);
    std::printf("access log: %s\n", access_log->path().c_str());
  }

  pdms::serve::ServerOptions options;
  options.port = port;
  options.bind_address = addr;
  options.executor.workers = workers;
  options.executor.admission.max_queue = queue;
  options.executor.service_floor_ms = floor_ms;
  options.executor.coalesce_identical = true;
  options.executor.rolling = &rolling;
  options.executor.access_log = access_log.get();
  for (const auto& [relation, endpoint] : remotes) {
    options.executor.remote_relations[relation] = endpoint;
    std::printf("remote relation %s <- %s\n", relation.c_str(),
                endpoint.c_str());
  }
  pdms::serve::PplServer server(options, &metrics);
  pdms::Status status = server.Start(pdms.network(), pdms.database());
  if (!status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("ppl_serverd listening on %s:%u (%zu workers, queue %zu)\n",
              addr.c_str(), static_cast<unsigned>(server.port()), workers,
              queue);
  if (!linger) std::printf("commands: metrics | admission | stats | quit\n");
  std::fflush(stdout);

  // Graceful shutdown on SIGINT/SIGTERM. Deliberately no SA_RESTART: a
  // blocking stdin read returns EINTR so the loop below notices g_stop.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  if (linger) {
    timespec tick{0, 200 * 1000 * 1000};
    while (g_stop == 0) nanosleep(&tick, nullptr);
  } else {
    std::string line;
    while (g_stop == 0 && std::getline(std::cin, line)) {
      std::string trimmed(pdms::StripWhitespace(line));
      if (trimmed == "quit" || trimmed == "exit") break;
      if (trimmed == "metrics") {
        std::string out = metrics.ToString();
        std::printf("%s", out.empty() ? "no metrics yet\n" : out.c_str());
      } else if (trimmed == "admission") {
        std::printf("%s\n",
                    server.executor()->admission()->ToString().c_str());
      } else if (trimmed == "stats") {
        std::printf("%s\n", server.StatsJson().c_str());
      } else if (!trimmed.empty()) {
        std::printf("commands: metrics | admission | stats | quit\n");
      }
      std::fflush(stdout);
    }
  }

  // Drain in-flight requests, then emit the final telemetry: one last
  // stats snapshot and the access-log tail, so nothing observed during
  // the run is lost to the shutdown.
  server.Stop();
  std::printf("final stats: %s\n", server.StatsJson().c_str());
  if (access_log != nullptr) {
    access_log->Flush();
    std::printf("access log: %llu lines (%llu rotations) in %s\n",
                static_cast<unsigned long long>(access_log->lines_written()),
                static_cast<unsigned long long>(access_log->rotations()),
                access_log->path().c_str());
  }
  std::printf("stopped\n");
  return 0;
}
