// aigs — command-line front end for the library.
//
//   aigs stats    <hierarchy.txt>
//       Print node/edge counts, height, max degree, type; warn about
//       redundant (transitively implied) edges.
//   aigs reduce   <in.txt> <out.txt>
//       Write the transitive reduction of a hierarchy.
//   aigs evaluate <hierarchy.txt> <counts.txt> [policy-spec]
//       Expected/median/p99/max question counts for one policy. The policy
//       is any PolicyRegistry spec, e.g. greedy, wigs, batched:k=8,
//       migs:choices=0 (default greedy); see 'aigs policies'.
//   aigs policies
//       List the registered policy names and their options.
//   aigs search   <hierarchy.txt> [counts.txt]
//       Interactive search: answer the policy's questions with y/n.
//   aigs serve    <hierarchy.txt> [counts.txt] [policy-spec...]
//       Service REPL over an Engine: open/ask/answer/save/resume
//       ID-addressed sessions, publish new snapshot epochs, inspect state.
//       Type 'help' at the prompt for the command list.
//   aigs demo
//       Interactive search on the built-in vehicle hierarchy.
#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/aigs.h"
#include "data/builtin.h"
#include "data/dataset_io.h"
#include "eval/cost_profile.h"
#include "eval/evaluator.h"
#include "eval/runner.h"
#include "net/server.h"
#include "graph/graph_io.h"
#include "graph/transitive_reduction.h"
#include "prob/weight_io.h"
#include "service/engine.h"
#include "util/env.h"
#include "util/string_util.h"

namespace aigs::cli {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: aigs <command> [args]\n"
               "  stats    <hierarchy.txt>\n"
               "  reduce   <in.txt> <out.txt>\n"
               "  evaluate <hierarchy.txt> <counts.txt> [policy-spec]\n"
               "  policies\n"
               "  search   <hierarchy.txt> [counts.txt]\n"
               "  serve    <hierarchy-spec> [counts.txt] [policy-spec...]\n"
               "           [--listen host:port] [--workers N]\n"
               "  demo\n"
               "hierarchy-spec is a file path, builtin:{vehicle|fig2|fig3}, "
               "or\nsynthetic:{tree|dag}:N[:seed].\n"
               "policy-spec is a PolicyRegistry name plus options, e.g. "
               "greedy, wigs,\nbatched:k=8, migs:choices=0 — run 'aigs "
               "policies' for the full list.\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdPolicies() {
  for (const auto& entry : PolicyRegistry::Global().List()) {
    std::printf("%-16s %s\n", entry.name.c_str(), entry.help.c_str());
  }
  return 0;
}

int CmdStats(const std::string& path) {
  auto graph = LoadHierarchy(path);
  if (!graph.ok()) {
    return Fail(graph.status());
  }
  const Digraph& g = *graph;
  std::printf("nodes:       %zu\n", g.NumNodes());
  std::printf("edges:       %zu\n", g.NumEdges());
  std::printf("height:      %d\n", g.Height());
  std::printf("max degree:  %zu\n", g.MaxOutDegree());
  std::printf("type:        %s\n", g.IsTree() ? "tree" : "DAG");
  std::printf("root:        %u%s\n", g.root(),
              g.Label(g.root()).empty()
                  ? ""
                  : (" (" + g.Label(g.root()) + ")").c_str());
  auto reduced = TransitiveReduction(g);
  if (reduced.ok() && reduced->removed_edges > 0) {
    std::printf("note:        %zu redundant edge(s); run 'aigs reduce'\n",
                reduced->removed_edges);
  }
  return 0;
}

int CmdReduce(const std::string& in, const std::string& out) {
  auto graph = LoadHierarchy(in);
  if (!graph.ok()) {
    return Fail(graph.status());
  }
  auto reduced = TransitiveReduction(*graph);
  if (!reduced.ok()) {
    return Fail(reduced.status());
  }
  if (const Status s = SaveHierarchy(reduced->graph, out); !s.ok()) {
    return Fail(s);
  }
  std::printf("removed %zu redundant edge(s); wrote %s\n",
              reduced->removed_edges, out.c_str());
  return 0;
}

int CmdEvaluate(const std::string& hierarchy_path,
                const std::string& counts_path, const std::string& policy) {
  auto graph = LoadHierarchy(hierarchy_path);
  if (!graph.ok()) {
    return Fail(graph.status());
  }
  auto hierarchy = Hierarchy::Build(*std::move(graph));
  if (!hierarchy.ok()) {
    return Fail(hierarchy.status());
  }
  auto counts = LoadDistribution(counts_path);
  if (!counts.ok()) {
    return Fail(counts.status());
  }
  if (counts->size() != hierarchy->NumNodes()) {
    return Fail(Status::InvalidArgument(
        "count file does not match the hierarchy's node count"));
  }
  PolicyContext context;
  context.hierarchy = &*hierarchy;
  context.distribution = &*counts;
  auto made = PolicyRegistry::Global().Create(policy, context);
  if (!made.ok()) {
    return Fail(made.status());
  }
  EvalOptions options;
  options.threads =
      static_cast<int>(std::max<std::int64_t>(0, EnvInt("AIGS_THREADS", 0)));
  const EvalStats stats = EvaluateExact(**made, *hierarchy, *counts, options);
  const CostProfile profile(stats.per_target_cost, *counts);
  std::printf("policy:       %s\n", (*made)->name().c_str());
  std::printf("E[questions]: %.4f\n", stats.expected_cost);
  std::printf("median:       %u\n", profile.Median());
  std::printf("p90:          %u\n", profile.P90());
  std::printf("p99:          %u\n", profile.P99());
  std::printf("max:          %llu\n",
              static_cast<unsigned long long>(stats.max_cost));
  std::printf("entropy (lower bound): %.4f bits\n", counts->EntropyBits());
  return 0;
}

int RunInteractive(const Hierarchy& h, const Distribution& dist) {
  const auto policy = MakeGreedyPolicy(h, dist);
  auto session = policy->NewSession();
  std::printf("think of one of the %zu categories; answer y/n.\n",
              h.NumNodes());
  int questions = 0;
  for (;;) {
    const Query q = session->Next();
    if (q.kind == Query::Kind::kDone) {
      const std::string& label = h.graph().Label(q.node);
      std::printf("=> %s (%d questions)\n",
                  label.empty() ? std::to_string(q.node).c_str()
                                : label.c_str(),
                  questions);
      return 0;
    }
    const std::string& label = h.graph().Label(q.node);
    std::printf("Q%d: under '%s'? [y/n] ", ++questions,
                label.empty() ? std::to_string(q.node).c_str()
                              : label.c_str());
    std::fflush(stdout);
    char buffer[64];
    if (std::fgets(buffer, sizeof(buffer), stdin) == nullptr ||
        (buffer[0] != 'y' && buffer[0] != 'n')) {
      std::printf("\n(bye)\n");
      return 0;
    }
    session->OnReach(q.node, buffer[0] == 'y');
  }
}

int CmdSearch(const std::string& hierarchy_path,
              const std::string& counts_path) {
  auto graph = LoadHierarchy(hierarchy_path);
  if (!graph.ok()) {
    return Fail(graph.status());
  }
  auto hierarchy = Hierarchy::Build(*std::move(graph));
  if (!hierarchy.ok()) {
    return Fail(hierarchy.status());
  }
  Distribution dist = EqualDistribution(hierarchy->NumNodes());
  if (!counts_path.empty()) {
    auto counts = LoadDistribution(counts_path);
    if (!counts.ok()) {
      return Fail(counts.status());
    }
    if (counts->size() != hierarchy->NumNodes()) {
      return Fail(Status::InvalidArgument(
          "count file does not match the hierarchy's node count"));
    }
    dist = *std::move(counts);
  }
  return RunInteractive(*hierarchy, dist);
}

int CmdDemo() {
  auto hierarchy = Hierarchy::Build(BuildVehicleHierarchy());
  if (!hierarchy.ok()) {
    return Fail(hierarchy.status());
  }
  return RunInteractive(*hierarchy, VehicleDistribution());
}

// ---- serve: Engine-backed session REPL -------------------------------------

std::string NodeLabel(const Hierarchy& h, NodeId v) {
  const std::string& label = h.graph().Label(v);
  return label.empty() ? std::to_string(v)
                       : std::to_string(v) + " '" + label + "'";
}

void PrintQuery(const Hierarchy& h, SessionId id, const Query& q) {
  switch (q.kind) {
    case Query::Kind::kDone:
      std::printf("session %llu: done — target is %s\n",
                  static_cast<unsigned long long>(id),
                  NodeLabel(h, q.node).c_str());
      break;
    case Query::Kind::kReach:
      std::printf("session %llu: is the item under %s? (answer %llu y|n)\n",
                  static_cast<unsigned long long>(id),
                  NodeLabel(h, q.node).c_str(),
                  static_cast<unsigned long long>(id));
      break;
    case Query::Kind::kReachBatch: {
      std::printf("session %llu: batch of %zu questions (answer %llu "
                  "<pattern like yn...>):\n",
                  static_cast<unsigned long long>(id), q.choices.size(),
                  static_cast<unsigned long long>(id));
      for (std::size_t i = 0; i < q.choices.size(); ++i) {
        std::printf("  [%zu] under %s?\n", i,
                    NodeLabel(h, q.choices[i]).c_str());
      }
      break;
    }
    case Query::Kind::kChoice: {
      std::printf("session %llu: which of these contains the item? "
                  "(answer %llu <index>, -1 = none)\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(id));
      for (std::size_t i = 0; i < q.choices.size(); ++i) {
        std::printf("  [%zu] %s\n", i, NodeLabel(h, q.choices[i]).c_str());
      }
      break;
    }
  }
}

void ServeHelp() {
  std::printf(
      "commands:\n"
      "  open [policy-spec]     start a session (default: first prebuilt "
      "spec)\n"
      "  ask <id>               show the pending question\n"
      "  answer <id> <value>    y|n for reach, yn... pattern for a batch,\n"
      "                         index (-1 = none) for a choice question\n"
      "  save <id> <file>       serialize the session transcript\n"
      "  resume <file>          restore a saved session (new id; exact "
      "replay)\n"
      "  migrate <id>           replay a live session onto the current "
      "epoch\n"
      "                         (divergence-tolerant; idle sessions also "
      "migrate\n"
      "                         automatically after publish)\n"
      "  close <id>             discard a session\n"
      "  sessions               live session count\n"
      "  stats                  request traffic (per-op + rejected-by-"
      "status),\n"
      "                         per-epoch session counts, plan-trie "
      "counters,\n"
      "                         migrations, persistence (wal bytes, records\n"
      "                         since checkpoint, last fsync, last "
      "recovery\n"
      "                         summary)\n"
      "  persist <dir> [policy] attach a durable session store to a FRESH "
      "dir;\n"
      "                         every acked open/answer/close appends a WAL\n"
      "                         record (policy: always | interval:N | none,\n"
      "                         default interval:64)\n"
      "  checkpoint             snapshot live sessions now and truncate the "
      "log\n"
      "  recover <dir> [policy] rebuild sessions from a durable dir "
      "(checkpoint\n"
      "                         + WAL tail), keep logging into it\n"
      "  epoch                  current snapshot epoch + fingerprint\n"
      "  drain                  background drain progress (phase, sessions\n"
      "                         remaining, sweep counters)\n"
      "  publish <counts.txt>   load new counts, publish a new epoch — an "
      "O(1)\n"
      "                         swap; the idle-session sweep runs on the\n"
      "                         background drain worker\n"
      "  policies               prebuilt policy specs\n"
      "  quit                   exit\n");
}

/// Applies a REPL answer token to the pending query's kind.
Status AnswerFromToken(Engine& engine, SessionId id,
                       const std::string& token) {
  auto pending = engine.Ask(id);
  if (!pending.ok()) {
    return pending.status();
  }
  switch (pending->kind) {
    case Query::Kind::kDone:
      return Status::FailedPrecondition("session already finished");
    case Query::Kind::kReach:
      if (token != "y" && token != "n") {
        return Status::InvalidArgument("reach questions take y or n");
      }
      return engine.Answer(id, SessionAnswer::Reach(token == "y"));
    case Query::Kind::kReachBatch: {
      std::vector<bool> answers;
      for (const char c : token) {
        if (c != 'y' && c != 'n') {
          return Status::InvalidArgument(
              "batch questions take a y/n pattern, e.g. ynny");
        }
        answers.push_back(c == 'y');
      }
      return engine.Answer(id, SessionAnswer::Batch(std::move(answers)));
    }
    case Query::Kind::kChoice: {
      auto index = ParseInt64(token);
      if (!index.ok()) {
        return Status::InvalidArgument("choice questions take an index");
      }
      return engine.Answer(id,
                           SessionAnswer::Choice(static_cast<int>(*index)));
    }
  }
  return Status::Internal("unreachable");
}

/// Set by SIGTERM/SIGINT: the serve loop drains out and flushes the WAL.
volatile std::sig_atomic_t g_serve_shutdown = 0;

void HandleServeSignal(int) { g_serve_shutdown = 1; }

/// Installs the handler WITHOUT SA_RESTART, so a signal interrupts the
/// blocking fgets (EINTR) and the loop can run its graceful flush instead
/// of dying mid-group-commit.
void InstallServeSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = HandleServeSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

int CmdServe(const std::string& hierarchy_path,
             const std::vector<std::string>& rest) {
  auto graph = LoadHierarchySpec(hierarchy_path);
  if (!graph.ok()) {
    return Fail(graph.status());
  }
  auto hierarchy = Hierarchy::Build(*std::move(graph));
  if (!hierarchy.ok()) {
    return Fail(hierarchy.status());
  }

  // Flags first, then positional args after the hierarchy: registry specs
  // stay specs, the first non-spec is the counts file.
  std::string counts_path;
  std::string listen_text;
  std::size_t workers = 0;
  std::vector<std::string> specs;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    if (arg == "--listen" || arg == "--workers") {
      if (i + 1 >= rest.size()) {
        return Fail(Status::InvalidArgument(arg + " needs a value"));
      }
      const std::string& value = rest[++i];
      if (arg == "--listen") {
        listen_text = value;
      } else {
        auto parsed = ParseUint64(value);
        if (!parsed.ok()) {
          return Fail(parsed.status());
        }
        workers = static_cast<std::size_t>(*parsed);
      }
      continue;
    }
    const std::string name = arg.substr(0, arg.find(':'));
    if (PolicyRegistry::Global().Contains(name)) {
      specs.push_back(arg);
    } else if (counts_path.empty()) {
      counts_path = arg;
    } else {
      return Fail(Status::InvalidArgument(
          "'" + arg + "' is neither a registered policy spec nor the "
          "(already given) counts file"));
    }
  }
  if (specs.empty()) {
    specs = {"greedy"};
  }

  Distribution dist = EqualDistribution(hierarchy->NumNodes());
  if (!counts_path.empty()) {
    auto counts = LoadDistribution(counts_path);
    if (!counts.ok()) {
      return Fail(counts.status());
    }
    if (counts->size() != hierarchy->NumNodes()) {
      return Fail(Status::InvalidArgument(
          "count file does not match the hierarchy's node count"));
    }
    dist = *std::move(counts);
  }

  Engine engine;
  CatalogConfig config;
  config.hierarchy = UnownedHierarchy(*hierarchy);
  config.distribution = std::move(dist);
  config.policy_specs = specs;
  if (auto published = engine.Publish(std::move(config)); !published.ok()) {
    return Fail(published.status());
  }
  // A dropped client (REPL pipe or TCP peer) must surface as a failed
  // write, never a process-killing SIGPIPE.
  net::IgnoreSigpipe();

  std::unique_ptr<net::AigsServer> server;
  if (!listen_text.empty()) {
    auto endpoint = net::ParseEndpoint(listen_text);
    if (!endpoint.ok()) {
      return Fail(endpoint.status());
    }
    net::ServerOptions server_options;
    server_options.listen = *endpoint;
    server_options.workers = workers;
    server = std::make_unique<net::AigsServer>(engine, server_options);
    if (const Status s = server->Start(); !s.ok()) {
      return Fail(s);
    }
    std::printf("listening on %s (aigs-wire/1)\n",
                server->endpoint().ToString().c_str());
  }
  std::printf("serving %zu categories at epoch %llu; 'help' lists "
              "commands.\n",
              hierarchy->NumNodes(),
              static_cast<unsigned long long>(engine.epoch()));

  const auto warn = [](const Status& status) {
    std::printf("error: %s\n", status.ToString().c_str());
  };
  // Graceful shutdown: stop the network front end (drains its workers,
  // closes every connection), then fsync the WAL (regardless of policy) so
  // an orderly SIGTERM/quit/EOF loses nothing even under fsync=interval or
  // none.
  const auto shutdown = [&engine, &server, &warn](const char* why) {
    if (server != nullptr) {
      server->Stop();
      std::printf("%s: network listener stopped\n", why);
    }
    if (engine.durable()) {
      if (const Status s = engine.FlushDurable(); s.ok()) {
        std::printf("%s: wal flushed, sessions durable\n", why);
      } else {
        warn(s);
        return 1;
      }
    }
    return 0;
  };
  InstallServeSignalHandlers();
  char buffer[4096];
  for (;;) {
    // A write interrupted by a handled signal (EINTR — the handlers are
    // installed without SA_RESTART) or failed against a dropped pipe
    // (EPIPE, with SIGPIPE ignored above) poisons stdio's error flag;
    // clear it so one lost write never wedges or kills the loop.
    if (std::ferror(stdout)) {
      std::clearerr(stdout);
    }
    std::printf("> ");
    std::fflush(stdout);
    if (std::fgets(buffer, sizeof(buffer), stdin) == nullptr) {
      std::printf("\n");
      if (server != nullptr && !g_serve_shutdown) {
        // Daemon mode: `aigs serve ... --listen ... < /dev/null &` keeps
        // the network front end up after stdin closes; only a signal (or
        // a network-level stop) ends it.
        std::printf("stdin closed; serving on %s until SIGTERM/SIGINT\n",
                    server->endpoint().ToString().c_str());
        std::fflush(stdout);
        while (!g_serve_shutdown) {
          pause();
        }
      }
      return shutdown(g_serve_shutdown ? "signal" : "eof");
    }
    if (g_serve_shutdown) {
      return shutdown("signal");
    }
    std::istringstream line{std::string(buffer)};
    std::string command;
    line >> command;
    if (command.empty()) {
      continue;
    }
    if (command == "quit" || command == "exit") {
      return shutdown("quit");
    }
    if (command == "help") {
      ServeHelp();
    } else if (command == "open") {
      std::string spec;
      line >> spec;
      auto id = engine.Open(spec.empty() ? specs.front() : spec);
      if (!id.ok()) {
        warn(id.status());
        continue;
      }
      std::printf("session %llu opened (epoch %llu)\n",
                  static_cast<unsigned long long>(*id),
                  static_cast<unsigned long long>(engine.epoch()));
    } else if (command == "migrate") {
      unsigned long long raw_id = 0;
      if (!(line >> raw_id)) {
        std::printf("usage: migrate <id>\n");
        continue;
      }
      auto result = engine.Migrate(static_cast<SessionId>(raw_id));
      if (!result.ok()) {
        warn(result.status());
        continue;
      }
      if (result->from_epoch == result->to_epoch) {
        std::printf("session %llu already on epoch %llu\n", raw_id,
                    static_cast<unsigned long long>(result->to_epoch));
      } else {
        std::printf("session %llu migrated: epoch %llu -> %llu, %zu "
                    "step(s), %zu divergent\n",
                    raw_id,
                    static_cast<unsigned long long>(result->from_epoch),
                    static_cast<unsigned long long>(result->to_epoch),
                    result->steps, result->divergent_steps);
        std::printf("(ask %llu again — the new epoch may pose a different "
                    "question)\n", raw_id);
      }
    } else if (command == "ask" || command == "answer" ||
               command == "close" || command == "save") {
      unsigned long long raw_id = 0;
      if (!(line >> raw_id)) {
        std::printf("usage: %s <id> ...\n", command.c_str());
        continue;
      }
      const SessionId id = raw_id;
      if (command == "ask") {
        auto q = engine.Ask(id);
        q.ok() ? PrintQuery(*hierarchy, id, *q) : warn(q.status());
      } else if (command == "answer") {
        std::string token;
        if (!(line >> token)) {
          std::printf("usage: answer <id> <value>\n");
          continue;
        }
        if (const Status s = AnswerFromToken(engine, id, token); !s.ok()) {
          warn(s);
          continue;
        }
        auto q = engine.Ask(id);  // echo the next question immediately
        q.ok() ? PrintQuery(*hierarchy, id, *q) : warn(q.status());
      } else if (command == "close") {
        if (const Status s = engine.Close(id); s.ok()) {
          std::printf("session %llu closed\n", raw_id);
        } else {
          warn(s);
        }
      } else {
        std::string path;
        if (!(line >> path)) {
          std::printf("usage: save <id> <file>\n");
          continue;
        }
        auto blob = engine.Save(id);
        if (!blob.ok()) {
          warn(blob.status());
          continue;
        }
        std::ofstream out(path);
        out << *blob;
        out.close();
        if (out.good()) {
          std::printf("saved session %llu to %s\n", raw_id, path.c_str());
        } else {
          std::printf("error: cannot write %s\n", path.c_str());
        }
      }
    } else if (command == "resume") {
      std::string path;
      if (!(line >> path)) {
        std::printf("usage: resume <file>\n");
        continue;
      }
      std::ifstream in(path);
      if (!in) {
        std::printf("error: cannot read %s\n", path.c_str());
        continue;
      }
      std::stringstream blob;
      blob << in.rdbuf();
      auto id = engine.Resume(blob.str());
      if (!id.ok()) {
        warn(id.status());
        continue;
      }
      std::printf("resumed as session %llu\n",
                  static_cast<unsigned long long>(*id));
      auto q = engine.Ask(*id);
      q.ok() ? PrintQuery(*hierarchy, *id, *q) : warn(q.status());
    } else if (command == "sessions") {
      std::printf("%zu live session(s)\n", engine.sessions().size());
    } else if (command == "stats") {
      const EngineStats s = engine.Stats();
      std::printf("epoch %llu, %zu live session(s)\n",
                  static_cast<unsigned long long>(s.epoch),
                  s.live_sessions);
      for (const auto& [epoch, count] : s.sessions_by_epoch) {
        std::printf("  epoch %llu: %zu session(s)\n",
                    static_cast<unsigned long long>(epoch), count);
      }
      const OpStats& ops = s.ops;
      std::printf("traffic: %llu request(s) — %llu open, %llu ask, %llu "
                  "answer, %llu save, %llu resume, %llu migrate, %llu "
                  "close\n",
                  static_cast<unsigned long long>(ops.total()),
                  static_cast<unsigned long long>(ops.opens),
                  static_cast<unsigned long long>(ops.asks),
                  static_cast<unsigned long long>(ops.answers),
                  static_cast<unsigned long long>(ops.saves),
                  static_cast<unsigned long long>(ops.resumes),
                  static_cast<unsigned long long>(ops.migrates),
                  static_cast<unsigned long long>(ops.closes));
      if (ops.rejected > 0) {
        std::printf("  rejected: %llu",
                    static_cast<unsigned long long>(ops.rejected));
        for (std::size_t code = 0; code < ops.rejected_by_code.size();
             ++code) {
          if (ops.rejected_by_code[code] > 0) {
            std::printf(" — %llu %s",
                        static_cast<unsigned long long>(
                            ops.rejected_by_code[code]),
                        std::string(StatusCodeToString(
                                        static_cast<StatusCode>(code)))
                            .c_str());
          }
        }
        std::printf("\n");
      }
      if (!s.plan_cache_enabled) {
        std::printf("plan cache: disabled\n");
      } else {
        for (const auto& [epoch, c] : s.plan_cache_by_epoch) {
          std::printf("plan trie (epoch %llu): %llu hit(s), %llu miss(es), "
                      "%llu eviction(s), hit rate %.1f%%\n",
                      static_cast<unsigned long long>(epoch),
                      static_cast<unsigned long long>(c.hits),
                      static_cast<unsigned long long>(c.misses),
                      static_cast<unsigned long long>(c.evictions),
                      100.0 * c.hit_rate());
          std::printf("  %llu insert(s) — %zu entr%s, ~%zu KiB resident, "
                      "%zu B per entry\n",
                      static_cast<unsigned long long>(c.inserts), c.entries,
                      c.entries == 1 ? "y" : "ies", c.bytes >> 10,
                      c.entries == 0 ? 0 : c.bytes / c.entries);
        }
      }
      std::printf("migrations: %llu session(s) migrated, %llu failure(s)\n",
                  static_cast<unsigned long long>(s.sessions_migrated),
                  static_cast<unsigned long long>(s.migration_failures));
      if (!s.durable) {
        std::printf("persistence: off ('persist <dir>' to enable)\n");
      } else {
        const DurableStoreStats& p = s.durability;
        std::printf("persistence: %s (fsync %s), segment %llu — %llu "
                    "byte(s), %llu record(s) since checkpoint, %llu "
                    "checkpoint(s)\n",
                    p.dir.c_str(), p.fsync_policy.c_str(),
                    static_cast<unsigned long long>(p.segment_seq),
                    static_cast<unsigned long long>(p.wal_bytes),
                    static_cast<unsigned long long>(
                        p.records_since_checkpoint),
                    static_cast<unsigned long long>(p.checkpoints));
        std::printf("  %llu append(s) (%llu failed), %llu fsync(s) of the "
                    "current segment, last fsync wall-ms %llu\n",
                    static_cast<unsigned long long>(p.appends),
                    static_cast<unsigned long long>(p.append_failures),
                    static_cast<unsigned long long>(p.wal_syncs),
                    static_cast<unsigned long long>(p.last_sync_wall_ms));
        if (s.has_recovery) {
          const RecoveryStats& r = s.last_recovery;
          std::printf("  last recovery: %zu recovered (%zu from the "
                      "checkpoint, %llu wal record(s)), %zu expired "
                      "dropped, %zu replay failure(s), %llu torn tail(s)\n",
                      r.recovered, r.checkpoint_sessions,
                      static_cast<unsigned long long>(r.wal_records),
                      r.expired_dropped, r.replay_failures,
                      static_cast<unsigned long long>(r.torn_tails));
        }
      }
      std::printf("drain: %s, %zu session(s) remaining, last batch %zu\n",
                  DrainPhaseName(s.drain.phase), s.drain.sessions_remaining,
                  s.drain.last_batch);
    } else if (command == "drain") {
      const DrainStats d = engine.DrainProgress();
      std::printf("phase %s, target epoch %llu\n", DrainPhaseName(d.phase),
                  static_cast<unsigned long long>(d.target_epoch));
      std::printf("  sweep: %zu session(s) remaining, %llu batch(es) run, "
                  "last batch %zu\n",
                  d.sessions_remaining,
                  static_cast<unsigned long long>(d.batches), d.last_batch);
      std::printf("  lifetime: %llu drain(s) — %llu completed, %llu rolled "
                  "forward to a newer epoch\n",
                  static_cast<unsigned long long>(d.drains),
                  static_cast<unsigned long long>(d.completed),
                  static_cast<unsigned long long>(d.rolled_forward));
      std::printf("  sessions: %llu migrated, %llu failed, %llu pinned "
                  "mid-question, %llu retried busy, %llu expired\n",
                  static_cast<unsigned long long>(d.migrated),
                  static_cast<unsigned long long>(d.failed),
                  static_cast<unsigned long long>(d.skipped_pinned),
                  static_cast<unsigned long long>(d.retried_busy),
                  static_cast<unsigned long long>(d.expired));
    } else if (command == "persist" || command == "recover") {
      DurabilityOptions dopts;
      if (!(line >> dopts.dir)) {
        std::printf("usage: %s <dir> [always|interval:N|none]\n",
                    command.c_str());
        continue;
      }
      std::string policy = "interval:64";
      line >> policy;
      auto sync = ParseFsyncPolicy(policy);
      if (!sync.ok()) {
        warn(sync.status());
        continue;
      }
      dopts.sync = *sync;
      if (command == "persist") {
        if (const Status s = engine.EnableDurability(dopts); !s.ok()) {
          warn(s);
          continue;
        }
        std::printf("persisting to %s (fsync %s)\n", dopts.dir.c_str(),
                    FormatFsyncPolicy(dopts.sync).c_str());
      } else {
        auto r = engine.Recover(dopts);
        if (!r.ok()) {
          warn(r.status());
          continue;
        }
        std::printf("recovered %zu session(s) from %s (%zu from the "
                    "checkpoint, %llu wal record(s), %zu expired dropped, "
                    "%zu replay failure(s), %llu torn tail(s))\n",
                    r->recovered, dopts.dir.c_str(), r->checkpoint_sessions,
                    static_cast<unsigned long long>(r->wal_records),
                    r->expired_dropped, r->replay_failures,
                    static_cast<unsigned long long>(r->torn_tails));
      }
    } else if (command == "checkpoint") {
      if (const Status s = engine.Checkpoint(); !s.ok()) {
        warn(s);
        continue;
      }
      const EngineStats s = engine.Stats();
      std::printf("checkpointed %zu session(s) (checkpoint #%llu)\n",
                  s.live_sessions,
                  static_cast<unsigned long long>(s.durability.checkpoints));
    } else if (command == "epoch") {
      const auto snap = engine.snapshot();
      std::printf("epoch %llu, catalog fingerprint %016llx\n",
                  static_cast<unsigned long long>(snap->epoch()),
                  static_cast<unsigned long long>(snap->fingerprint()));
    } else if (command == "publish") {
      std::string path;
      if (!(line >> path)) {
        std::printf("usage: publish <counts.txt>\n");
        continue;
      }
      auto counts = LoadDistribution(path);
      if (!counts.ok()) {
        warn(counts.status());
        continue;
      }
      if (counts->size() != hierarchy->NumNodes()) {
        warn(Status::InvalidArgument(
            "count file does not match the hierarchy's node count"));
        continue;
      }
      CatalogConfig next;
      next.hierarchy = UnownedHierarchy(*hierarchy);
      next.distribution = *std::move(counts);
      next.policy_specs = specs;
      const auto swap_start = std::chrono::steady_clock::now();
      auto published = engine.Publish(std::move(next));
      const double swap_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - swap_start)
              .count();
      if (!published.ok()) {
        warn(published.status());
        continue;
      }
      std::printf("published epoch %llu — swap took %.3f ms (the "
                  "idle-session sweep continues in the background; see "
                  "'drain'; sessions mid-question stay on their epoch)\n",
                  static_cast<unsigned long long>((*published)->epoch()),
                  swap_ms);
    } else if (command == "policies") {
      for (const std::string& spec : engine.snapshot()->policy_specs()) {
        std::printf("  %s\n", spec.c_str());
      }
    } else {
      std::printf("unknown command '%s'; try 'help'\n", command.c_str());
    }
  }
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "stats" && argc == 3) {
    return CmdStats(argv[2]);
  }
  if (command == "reduce" && argc == 4) {
    return CmdReduce(argv[2], argv[3]);
  }
  if (command == "evaluate" && (argc == 4 || argc == 5)) {
    return CmdEvaluate(argv[2], argv[3], argc == 5 ? argv[4] : "greedy");
  }
  if (command == "policies" && argc == 2) {
    return CmdPolicies();
  }
  if (command == "search" && (argc == 3 || argc == 4)) {
    return CmdSearch(argv[2], argc == 4 ? argv[3] : "");
  }
  if (command == "serve" && argc >= 3) {
    return CmdServe(argv[2],
                    std::vector<std::string>(argv + 3, argv + argc));
  }
  if (command == "demo" && argc == 2) {
    return CmdDemo();
  }
  return Usage();
}

}  // namespace
}  // namespace aigs::cli

int main(int argc, char** argv) { return aigs::cli::Main(argc, argv); }
