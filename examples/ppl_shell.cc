// A small interactive shell around the PDMS: load PPL programs, pose
// queries, and inspect reformulations and rule-goal-tree statistics.
//
// Usage:
//   ./ppl_shell [program.ppl ...]      # load files, then read commands
//
// Commands (also shown by `help`):
//   load <file>          load a PPL program file
//   <PPL statement>      peer/stored/mapping/fact statements are executed
//   ? q(x) :- ...        reformulate + evaluate a query
//   plan q(x) :- ...     show the rewritings + physical plans (est/actual)
//   tree q(x) :- ...     dump the rule-goal tree
//   schema               print the network specification
//   data                 print the stored relations
//   classify             Section 3 complexity analysis
//   down/up <name>       toggle peer or stored-relation availability
//   avail                list unavailable sources
//   addpeer <p> <r>/<a>  declare a new peer with relations r of arity a
//   killpeer <name>      crash a peer (receives requests, never responds)
//   revive <name>        un-crash a peer
//   editmap <name> <rule>  replace a peer mapping's rule in place
//   health               per-peer failure-detector state + invalidations
//   partition <a> <b>    cut the simulated link between two nodes
//   heal [<a> <b>]       heal one partition, or all of them
//   trace                show the last query's message trace
//   trace save <file>    write the last query's spans as Chrome-trace JSON
//   explain              render the last query's span tree
//   metrics              print the accumulated metrics registry
//   serve <port>         serve the network/data over TCP (serving.md)
//   connect <host:port>  route queries to a ppl_serverd instance
//   quit
//
// Queries run on the simulated distributed runtime (src/pdms/sim/): each
// stored-relation scan is a request/response round-trip from the querying
// node — registered as "@client" — to the owning peer, and the
// degradation report includes the per-hop message counters. `partition`
// accepts peer names or @client (e.g. `partition @client H` cuts the
// querying node off from peer H).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/core/reformulator.h"
#include "pdms/fault/peer_health.h"
#include "pdms/lang/parser.h"
#include "pdms/obs/export.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/serve/client.h"
#include "pdms/serve/server.h"
#include "pdms/sim/sim_pdms.h"
#include "pdms/util/strings.h"

namespace {

pdms::Pdms g_pdms;
std::vector<std::pair<std::string, std::string>> g_partitions;
std::string g_last_trace;
// Observability sinks shared by the local facade and the per-query
// simulated runtime: the trace always holds the last query's span tree
// (each query entry clears it), the registry accumulates across queries.
pdms::obs::TraceContext g_trace;
pdms::obs::MetricsRegistry g_metrics;
// The cross-query plan cache (docs/plan_cache.md), shared by the local
// facade and every per-query SimPdms. It outlives the per-query runtime
// because entries are keyed by the catalog's (revision, availability
// epoch) scope, which the shell's `down`/`up` and PPL statements advance;
// a repeated query at an unchanged catalog skips reformulation entirely.
pdms::cache::PlanCache g_plan_cache;
// Crashed peers (killpeer/revive) are a transport-level condition, mirrored
// into each per-query SimPdms like the partitions.
std::set<std::string> g_crashed;
// The failure detector shared across queries: suspicion learned by one
// query spares the next the timeout ladder (docs/fault_tolerance.md).
pdms::PeerHealthTracker g_health([] {
  pdms::PeerHealthConfig config;
  config.enabled = true;
  return config;
}());
// Networked serving (docs/serving.md): `serve <port>` exposes the shell's
// current network/data through ppl_serverd's wire protocol; `connect
// <host:port>` routes subsequent `?` queries to a remote server instead
// of the local simulated runtime.
std::unique_ptr<pdms::serve::PplServer> g_server;
pdms::serve::Client g_client;
double g_remote_budget_ms = 0;

void LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open %s\n", path.c_str());
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  pdms::Status status = g_pdms.LoadProgram(buffer.str());
  std::printf("%s: %s\n", path.c_str(),
              status.ok() ? "loaded" : status.ToString().c_str());
}

// A `?` query while `connect`ed goes over the wire: shed responses print
// the retry-after hint, degraded/truncated answers print their report
// fields, and the answer relation is rebuilt from the frame. The shell's
// trace context rides the version-2 frame, so `explain` / `trace save`
// show the server's grafted spans under the rpc_query span.
void RunRemoteQuery(const std::string& text) {
  g_trace.Clear();
  auto reply = g_client.Query(text, g_remote_budget_ms, &g_trace);
  if (!reply.ok()) {
    std::printf("error: %s\n", reply.status().ToString().c_str());
    if (reply.status().code() == pdms::StatusCode::kUnavailable) {
      g_client.Close();
      std::printf("disconnected\n");
    }
    return;
  }
  if (reply->shed) {
    std::printf("SHED (%s): %s; retry after %.1f ms (queue depth %u)\n",
                pdms::serve::wire::ShedReasonName(reply->shed_info.reason),
                reply->shed_info.message.c_str(),
                reply->shed_info.retry_after_ms,
                reply->shed_info.queue_depth);
    return;
  }
  const pdms::serve::wire::AnswerFrame& answer = reply->answer;
  pdms::Status status = answer.status();
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("answers (server %.2f ms):\n%s\n", answer.server_ms,
              answer.ToRelation().ToString().c_str());
  std::printf("completeness: %s%s\n",
              pdms::CompletenessName(
                  static_cast<pdms::Completeness>(answer.completeness)),
              answer.truncated != 0 ? " (truncated by deadline)" : "");
  if (!answer.excluded_peers.empty() || !answer.excluded_stored.empty()) {
    std::printf("excluded:");
    for (const auto& p : answer.excluded_peers) {
      std::printf(" peer:%s", p.c_str());
    }
    for (const auto& s : answer.excluded_stored) {
      std::printf(" stored:%s", s.c_str());
    }
    std::printf("\n");
  }
}

void RunQuery(const std::string& text, bool evaluate) {
  if (evaluate && g_client.connected()) {
    RunRemoteQuery(text);
    return;
  }
  if (!evaluate) {
    auto result = g_pdms.Reformulate(text);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%zu rewriting(s):\n%s\n", result->rewriting.size(),
                result->rewriting.ToString().c_str());
    std::printf("%s", result->stats.ToString().c_str());
    // Physical plans (docs/query_planning.md): per disjunct, the scan
    // order, pushed-down filters, and join build sides the cost-based
    // planner chose, with estimated vs actual cardinalities from one
    // ungated local execution.
    auto physical =
        g_pdms.engine()->Explain(result->rewriting, g_pdms.database());
    if (physical.ok()) {
      std::printf("physical plan:\n%s", physical->c_str());
    } else {
      std::printf("physical plan unavailable: %s\n",
                  physical.status().ToString().c_str());
    }
    return;
  }
  // Queries execute over the simulated peer runtime: a fresh deterministic
  // event loop per query against the shell's current catalog and data,
  // with the shell's partitions applied.
  pdms::sim::SimPdms sim(g_pdms.network(), g_pdms.database());
  sim.set_trace(&g_trace);
  sim.set_metrics(&g_metrics);
  sim.set_plan_cache(&g_plan_cache);
  sim.set_health(&g_health);
  for (const auto& [a, b] : g_partitions) sim.Partition(a, b);
  for (const std::string& p : g_crashed) sim.SetPeerCrashed(p, true);
  auto result = sim.Answer(text);
  g_last_trace = sim.last_trace();
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s", result->stats.ToString().c_str());
  std::printf("answers:\n%s\n", result->answers.ToString().c_str());
  std::printf("%s", result->degradation.ToString().c_str());
}

void AddPartition(const std::string& args) {
  std::istringstream in(args);
  std::string a, b;
  if (!(in >> a >> b) || a == b) {
    std::printf("usage: partition <nodeA> <nodeB>  (peer names or %s)\n",
                pdms::sim::kCoordinatorName);
    return;
  }
  g_partitions.emplace_back(a, b);
  std::printf("partitioned %s | %s (%zu active)\n", a.c_str(), b.c_str(),
              g_partitions.size());
}

void HealPartitions(const std::string& args) {
  std::istringstream in(args);
  std::string a, b;
  if (in >> a >> b) {
    size_t before = g_partitions.size();
    std::erase_if(g_partitions, [&](const auto& p) {
      return (p.first == a && p.second == b) ||
             (p.first == b && p.second == a);
    });
    std::printf("%s\n", g_partitions.size() < before
                            ? "healed"
                            : "no such partition");
    return;
  }
  g_partitions.clear();
  std::printf("all partitions healed\n");
}

void ShowTrace() {
  if (g_last_trace.empty()) {
    std::printf("no trace yet; run a query first\n");
    return;
  }
  std::printf("%s", g_last_trace.c_str());
}

void ShowExplain() {
  if (g_trace.empty()) {
    std::printf("no spans yet; run a query first\n");
    return;
  }
  std::printf("%s", pdms::obs::RenderSpanTree(g_trace).c_str());
}

void ShowMetrics() {
  // Connected shells report the *server's* telemetry — the local registry
  // only sees local queries, which is the empty set while queries are
  // being forwarded over the wire (docs/serving_telemetry.md).
  if (g_client.connected()) {
    auto stats = g_client.Stats();
    if (stats.ok()) {
      std::printf("remote stats: %s\n", stats->c_str());
      return;
    }
    std::printf("remote stats unavailable (%s); local registry:\n",
                stats.status().ToString().c_str());
  }
  std::string out = g_metrics.ToString();
  if (out.empty()) {
    std::printf("no metrics yet; run a query first\n");
    return;
  }
  std::printf("%s", out.c_str());
}

void SaveTrace(const std::string& path) {
  if (g_trace.empty()) {
    std::printf("no spans yet; run a query first\n");
    return;
  }
  pdms::Status status = pdms::obs::WriteChromeTrace(g_trace, path);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("wrote %zu span(s) to %s (load in chrome://tracing or Perfetto)\n",
              g_trace.spans().size(), path.c_str());
}

// `down X` / `up X` toggle availability of a peer or a stored relation.
void SetAvailability(const std::string& name, bool available) {
  pdms::Status status = g_pdms.mutable_network()->SetPeerAvailable(
      name, available);
  if (!status.ok()) {
    status = g_pdms.mutable_network()->SetStoredRelationAvailable(
        name, available);
  }
  if (!status.ok()) {
    std::printf("error: no peer or stored relation named %s\n", name.c_str());
    return;
  }
  std::printf("%s is now %s\n", name.c_str(),
              available ? "available" : "unavailable");
}

void ShowAvailability() {
  const auto peers = g_pdms.network().UnavailablePeers();
  const auto stored = g_pdms.network().UnavailableStoredRelations();
  if (peers.empty() && stored.empty()) {
    std::printf("all peers and stored relations available\n");
    return;
  }
  for (const std::string& p : peers) {
    std::printf("peer %s: down\n", p.c_str());
  }
  for (const std::string& s : stored) {
    std::printf("stored %s: unreachable\n", s.c_str());
  }
}

void ShowTree(const std::string& text) {
  auto query = g_pdms.ParseQuery(text);
  if (!query.ok()) {
    std::printf("error: %s\n", query.status().ToString().c_str());
    return;
  }
  pdms::Reformulator reformulator(g_pdms.network(), g_pdms.options());
  auto tree = reformulator.BuildTree(*query);
  if (!tree.ok()) {
    std::printf("error: %s\n", tree.status().ToString().c_str());
    return;
  }
  std::printf("%s", tree->ToString().c_str());
  std::printf("%s", tree->stats.ToString().c_str());
}

// `addpeer <peer> <relation>/<arity> ...`: declare a new peer. Mappings
// and storage for it are added with ordinary PPL statements afterwards.
void AddPeerCommand(const std::string& args) {
  std::istringstream in(args);
  std::string peer, spec;
  std::vector<std::pair<std::string, size_t>> relations;
  in >> peer;
  while (in >> spec) {
    size_t slash = spec.rfind('/');
    size_t arity = 0;
    if (slash != std::string::npos) {
      std::istringstream num(spec.substr(slash + 1));
      num >> arity;
    }
    if (slash == std::string::npos || arity == 0) {
      std::printf("usage: addpeer <peer> <relation>/<arity> ...\n");
      return;
    }
    relations.emplace_back(spec.substr(0, slash), arity);
  }
  if (peer.empty() || relations.empty()) {
    std::printf("usage: addpeer <peer> <relation>/<arity> ...\n");
    return;
  }
  pdms::Status status = g_pdms.mutable_network()->AddPeer(peer, relations);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("peer %s added with %zu relation(s)\n", peer.c_str(),
              relations.size());
}

// `killpeer <name>` / `revive <name>`: crash / un-crash a peer at the
// transport level. Unlike `down`, the catalog still lists the peer, so
// queries pay the detection cost — which is what the failure detector
// (`health`) then amortizes.
void KillPeerCommand(const std::string& name, bool crash) {
  bool known = false;
  for (const pdms::Peer& p : g_pdms.network().peers()) {
    if (p.name == name) known = true;
  }
  if (!known) {
    std::printf("error: no peer named %s\n", name.c_str());
    return;
  }
  if (crash) {
    g_crashed.insert(name);
    std::printf("%s crashed (receives requests, never responds)\n",
                name.c_str());
  } else {
    g_crashed.erase(name);
    std::printf("%s revived; the next probe will clear its suspicion\n",
                name.c_str());
  }
}

// `editmap <mapping> <head>(...) :- body.`: replace a mapping's rule in
// place. The catalog logs a fine-grained change, so only cached plans that
// depended on the mapping are invalidated (see `health`).
void EditMapCommand(const std::string& args) {
  size_t space = args.find(' ');
  if (space == std::string::npos) {
    std::printf("usage: editmap <mapping-name> <head>(...) :- <body>.\n");
    return;
  }
  std::string name(pdms::StripWhitespace(args.substr(0, space)));
  std::string rule_text(pdms::StripWhitespace(args.substr(space + 1)));
  auto rule = pdms::ParseRuleText(rule_text);
  if (!rule.ok()) {
    std::printf("error: %s\n", rule.status().ToString().c_str());
    return;
  }
  pdms::PeerMapping next;
  next.kind = pdms::PeerMappingKind::kDefinitional;
  next.rule = pdms::Rule(rule->head(), rule->body());
  pdms::Status status =
      g_pdms.mutable_network()->ReplacePeerMapping(name, std::move(next));
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("mapping %s replaced (definitional)\n", name.c_str());
}

// `health`: the failure detector's per-peer state plus the invalidation
// counters — together, the shell's view of how churn is being absorbed.
void ShowHealth() {
  std::printf("%s", g_health.ToString().c_str());
  if (!g_crashed.empty()) {
    std::printf("crashed:");
    for (const std::string& p : g_crashed) std::printf(" %s", p.c_str());
    std::printf("\n");
  }
  std::printf("plan cache: %zu invalidation(s)\n",
              g_plan_cache.stats().invalidations);
}

// `cache stats` / `cache clear` / `cache budget <bytes>`.
void CacheCommand(const std::string& args) {
  if (args == "stats") {
    std::printf("plan cache (%zu entries, %zu/%zu bytes)\n",
                g_plan_cache.size(), g_plan_cache.total_bytes(),
                g_plan_cache.budget_bytes());
    std::printf("%s", g_plan_cache.stats().ToString().c_str());
    return;
  }
  if (args == "clear") {
    g_plan_cache.Clear();
    std::printf("plan cache cleared\n");
    return;
  }
  if (pdms::StartsWith(args, "budget ")) {
    size_t bytes = 0;
    std::istringstream in(args.substr(7));
    if (!(in >> bytes)) {
      std::printf("usage: cache budget <bytes>\n");
      return;
    }
    g_plan_cache.set_budget_bytes(bytes);
    std::printf("plan cache budget set to %zu bytes\n", bytes);
    return;
  }
  std::printf("usage: cache stats | cache clear | cache budget <bytes>\n");
}

// `serve <port>` / `serve stop`: expose the shell's network/data over the
// wire protocol from a background server owned by the shell.
void ServeCommand(const std::string& args) {
  if (args == "stop") {
    if (g_server == nullptr) {
      std::printf("not serving\n");
      return;
    }
    g_server->Stop();
    g_server.reset();
    std::printf("server stopped\n");
    return;
  }
  int port = -1;
  std::istringstream in(args);
  if (!(in >> port) || port < 0 || port > 65535) {
    std::printf("usage: serve <port> | serve stop   (port 0 = ephemeral)\n");
    return;
  }
  if (g_server != nullptr) {
    std::printf("already serving on port %u; `serve stop` first\n",
                static_cast<unsigned>(g_server->port()));
    return;
  }
  pdms::serve::ServerOptions options;
  options.port = static_cast<uint16_t>(port);
  g_server = std::make_unique<pdms::serve::PplServer>(options, &g_metrics);
  pdms::Status status = g_server->Start(g_pdms.network(), g_pdms.database());
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    g_server.reset();
    return;
  }
  std::printf("serving on 127.0.0.1:%u (snapshot of the current "
              "network/data)\n",
              static_cast<unsigned>(g_server->port()));
}

// `connect <host:port>` / `disconnect`: route `?` queries to a server.
void ConnectCommand(const std::string& args) {
  size_t colon = args.rfind(':');
  int port = -1;
  if (colon != std::string::npos) {
    std::istringstream in(args.substr(colon + 1));
    in >> port;
  }
  if (colon == std::string::npos || port <= 0 || port > 65535) {
    std::printf("usage: connect <host:port>\n");
    return;
  }
  std::string host = args.substr(0, colon);
  pdms::Status status =
      g_client.Connect(host, static_cast<uint16_t>(port));
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  status = g_client.Ping();
  if (!status.ok()) {
    std::printf("connected but ping failed: %s\n",
                status.ToString().c_str());
    g_client.Close();
    return;
  }
  std::printf("connected to %s:%d; `?` queries now go over the wire "
              "(budget %.0f ms, `budget <ms>` to change, `disconnect` to "
              "detach)\n",
              host.c_str(), port, g_remote_budget_ms);
}

void BudgetCommand(const std::string& args) {
  if (args.empty()) {
    std::printf("budget: %.1f ms (0 = unlimited)\n", g_remote_budget_ms);
    return;
  }
  std::istringstream in(args);
  double ms = 0;
  if (!(in >> ms)) {
    std::printf("usage: budget [<ms>]  (0 = unlimited)\n");
    return;
  }
  g_remote_budget_ms = ms;
  std::printf("remote query budget set to %.1f ms%s\n", ms,
              ms <= 0 ? " (unlimited)" : "");
}

void Help() {
  std::printf(
      "commands:\n"
      "  load <file>        load a PPL program file\n"
      "  peer/stored/mapping/fact ...   execute a PPL statement\n"
      "  ? <query>          reformulate and evaluate, e.g. ? q(x) :- P:R(x).\n"
      "  plan <query>       show the rewritings and their physical plans\n"
      "                     (scan order, join builds, est vs actual rows)\n"
      "  tree <query>       dump the rule-goal tree\n"
      "  schema             print the network\n"
      "  data               print the stored relations\n"
      "  classify           Section 3 complexity analysis\n"
      "  down <name>        mark a peer or stored relation unavailable\n"
      "  up <name>          mark it available again\n"
      "  avail              list unavailable peers/stored relations\n"
      "  addpeer <p> <r>/<n> ...   declare peer p with relations r/arity\n"
      "  killpeer <name>    crash a peer (silent: requests go unanswered)\n"
      "  revive <name>      un-crash a peer\n"
      "  editmap <m> <rule> replace mapping m, e.g. editmap mapping#0\n"
      "                     B:S(x, y) :- A:R(x, y).\n"
      "  health             failure-detector state + cache invalidations\n"
      "  partition <a> <b>  cut the simulated link between two nodes\n"
      "                     (peer names or @client, the querying node)\n"
      "  heal [<a> <b>]     heal one partition, or all with no arguments\n"
      "  trace              print the last query's message trace\n"
      "  trace save <file>  write the last query's spans as Chrome-trace\n"
      "                     JSON (chrome://tracing / Perfetto)\n"
      "  explain            render the last query's span tree\n"
      "  metrics            print the accumulated metrics registry\n"
      "  cache stats        plan-cache hit and size counters\n"
      "  cache clear        drop all cached plans\n"
      "  cache budget <n>   set the plan-cache byte budget (evicts down)\n"
      "  serve <port>       serve the current network/data over TCP\n"
      "                     (docs/serving.md; `serve stop` to stop)\n"
      "  connect <h:p>      route `?` queries to a ppl_serverd instance\n"
      "  disconnect         detach and answer locally again\n"
      "  budget [<ms>]      show or set the remote query budget\n"
      "  help               this text\n"
      "  quit               exit\n"
      "queries run on the simulated distributed runtime: every stored-\n"
      "relation scan is a message round-trip from @client to the owning\n"
      "peer; the report below the answers counts messages and timeouts\n");
}

}  // namespace

int main(int argc, char** argv) {
  g_pdms.set_trace(&g_trace);
  g_pdms.set_metrics(&g_metrics);
  g_pdms.set_plan_cache(&g_plan_cache);
  for (int i = 1; i < argc; ++i) LoadFile(argv[i]);
  std::printf("Piazza-style PDMS shell. Type 'help' for commands.\n");
  std::string line;
  while (true) {
    std::printf("ppl> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(pdms::StripWhitespace(line));
    if (trimmed.empty()) continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    if (trimmed == "help") {
      Help();
    } else if (trimmed == "schema") {
      std::printf("%s", g_pdms.network().ToString().c_str());
    } else if (trimmed == "data") {
      std::printf("%s", g_pdms.database().ToString().c_str());
    } else if (trimmed == "classify") {
      std::printf("%s", g_pdms.Classify().Explain().c_str());
    } else if (trimmed == "avail") {
      ShowAvailability();
    } else if (trimmed == "health") {
      ShowHealth();
    } else if (pdms::StartsWith(trimmed, "addpeer ")) {
      AddPeerCommand(trimmed.substr(8));
    } else if (pdms::StartsWith(trimmed, "killpeer ")) {
      KillPeerCommand(std::string(pdms::StripWhitespace(trimmed.substr(9))),
                      /*crash=*/true);
    } else if (pdms::StartsWith(trimmed, "revive ")) {
      KillPeerCommand(std::string(pdms::StripWhitespace(trimmed.substr(7))),
                      /*crash=*/false);
    } else if (pdms::StartsWith(trimmed, "editmap ")) {
      EditMapCommand(std::string(pdms::StripWhitespace(trimmed.substr(8))));
    } else if (trimmed == "trace") {
      ShowTrace();
    } else if (pdms::StartsWith(trimmed, "trace save ")) {
      SaveTrace(std::string(pdms::StripWhitespace(trimmed.substr(11))));
    } else if (trimmed == "explain") {
      ShowExplain();
    } else if (trimmed == "metrics") {
      ShowMetrics();
    } else if (pdms::StartsWith(trimmed, "cache ")) {
      CacheCommand(std::string(pdms::StripWhitespace(trimmed.substr(6))));
    } else if (trimmed == "cache") {
      CacheCommand("");
    } else if (pdms::StartsWith(trimmed, "serve ")) {
      ServeCommand(std::string(pdms::StripWhitespace(trimmed.substr(6))));
    } else if (pdms::StartsWith(trimmed, "connect ")) {
      ConnectCommand(std::string(pdms::StripWhitespace(trimmed.substr(8))));
    } else if (trimmed == "disconnect") {
      if (g_client.connected()) {
        g_client.Close();
        std::printf("disconnected; queries answer locally again\n");
      } else {
        std::printf("not connected\n");
      }
    } else if (trimmed == "budget") {
      BudgetCommand("");
    } else if (pdms::StartsWith(trimmed, "budget ")) {
      BudgetCommand(std::string(pdms::StripWhitespace(trimmed.substr(7))));
    } else if (pdms::StartsWith(trimmed, "partition ")) {
      AddPartition(trimmed.substr(10));
    } else if (trimmed == "heal") {
      HealPartitions("");
    } else if (pdms::StartsWith(trimmed, "heal ")) {
      HealPartitions(trimmed.substr(5));
    } else if (pdms::StartsWith(trimmed, "down ")) {
      SetAvailability(std::string(pdms::StripWhitespace(trimmed.substr(5))),
                      /*available=*/false);
    } else if (pdms::StartsWith(trimmed, "up ")) {
      SetAvailability(std::string(pdms::StripWhitespace(trimmed.substr(3))),
                      /*available=*/true);
    } else if (pdms::StartsWith(trimmed, "load ")) {
      LoadFile(std::string(pdms::StripWhitespace(trimmed.substr(5))));
    } else if (pdms::StartsWith(trimmed, "? ")) {
      RunQuery(trimmed.substr(2), /*evaluate=*/true);
    } else if (pdms::StartsWith(trimmed, "plan ")) {
      RunQuery(trimmed.substr(5), /*evaluate=*/false);
    } else if (pdms::StartsWith(trimmed, "tree ")) {
      ShowTree(trimmed.substr(5));
    } else {
      // Treat anything else as a PPL statement batch.
      pdms::Status status = g_pdms.LoadProgram(trimmed);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    }
  }
  if (g_server != nullptr) g_server->Stop();
  return 0;
}
