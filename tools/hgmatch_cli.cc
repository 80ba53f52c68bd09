// hgmatch — command-line front end to the library.
//
//   hgmatch gen <profile|random> <out.hg|out.hgb> [scale]
//   hgmatch stats <file>
//   hgmatch convert <in> <out>
//   hgmatch sample <data> <num-edges> [count]
//   hgmatch match <data> <query> [threads] [limit]
//   hgmatch batch <data> <queryset> [threads] [limit] [--max-inflight=N]
//                 [--timeout=S] [--batch-timeout=S] [--no-plan-cache]
//                 [--policy=fifo|priority|wfq]
//   hgmatch serve [<data>] [--graph NAME=PATH]...
//                 [--port=N] [--host=H] [--threads=N] [flags...]
//   hgmatch query --connect=HOST:PORT <queryset> [--limit=N] [--batch]
//                 [--compress] [--graph=NAME] [--list-graphs]
//                 [--load-graph=NAME=PATH] [--unload-graph=NAME]
//                 [--shutdown]
//
// Files ending in .hgb use the binary format (io/binary_format.h); anything
// else is the text format (io/loader.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/hgmatch.h"
#include "core/hypergraph_stats.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "io/binary_format.h"
#include "io/loader.h"
#include "io/writer.h"
#include "net/client.h"
#include "net/server.h"
#include "parallel/dataflow.h"
#include "parallel/executor.h"
#include "parallel/service.h"
#include "util/timer.h"

namespace hgmatch {
namespace {

bool IsBinaryPath(const std::string& path) {
  return path.size() >= 4 && path.substr(path.size() - 4) == ".hgb";
}

Result<Hypergraph> LoadAny(const std::string& path) {
  return IsBinaryPath(path) ? LoadHypergraphBinary(path)
                            : LoadHypergraph(path);
}

Status SaveAny(const Hypergraph& h, const std::string& path) {
  return IsBinaryPath(path) ? SaveHypergraphBinary(h, path)
                            : SaveHypergraph(h, path);
}

// Parses a thread-count argument; returns false on junk or negatives
// (atoi would otherwise wrap -1 to ~4 billion threads).
bool ParseThreads(const char* arg, uint32_t* out) {
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || v < 0 || v > 1 << 16) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hgmatch gen <profile|random> <out[.hgb]> [scale]\n"
               "  hgmatch stats <file>\n"
               "  hgmatch convert <in> <out> [--v1]\n"
               "    [--v1]               write .hgb in the uncompressed v1\n"
               "                         layout (readable by old builds)\n"
               "  hgmatch sample <data> <num-edges> [count]\n"
               "  hgmatch match <data> <query> [threads] [limit]\n"
               "  hgmatch batch <data> <queryset> [threads] [limit]\n"
               "    [--max-inflight=N]   admission window (0 = all at once)\n"
               "    [--timeout=S]        per-query timeout, from admission\n"
               "    [--batch-timeout=S]  whole-batch timeout\n"
               "    [--no-plan-cache]    plan every query independently\n"
               "    [--policy=P]         admission order: fifo (default),\n"
               "                         priority, wfq (weighted-fair)\n"
               "  hgmatch serve [<data>] TCP front end over the service\n"
               "    [--graph NAME=PATH]  serve PATH as graph NAME\n"
               "                         (repeatable; first graph — or the\n"
               "                         positional <data>, as \"default\" —\n"
               "                         answers unrouted submits)\n"
               "    [--plan-cache-cap=N] keep at most N idle cached plans\n"
               "                         per graph (0 = unbounded)\n"
               "    [--allow-remote-load]  honour client LOAD_GRAPH (reads\n"
               "                         files on this server's filesystem)\n"
               "    [--host=H]           listen address (default 127.0.0.1)\n"
               "    [--port=N]           listen port (0 = ephemeral)\n"
               "    [--port-file=PATH]   write the bound port to PATH\n"
               "    [--threads=N] [--max-inflight=N] [--timeout=S]\n"
               "    [--policy=P]         as for batch\n"
               "    [--max-queued=N]     backpressure: reject submissions\n"
               "                         beyond N waiting queries\n"
               "    [--no-plan-cache]    no cross-submission plan reuse\n"
               "                         (caps memory under endless\n"
               "                         distinct query structures)\n"
               "    [--io-threads=N]     reactor IO threads serving\n"
               "                         connections (default 1)\n"
               "    [--max-submits-per-sec=R]  per-tenant edge rate limit\n"
               "                         (token bucket; 0 = off)\n"
               "    [--serve-seconds=S]  exit after S seconds (0 = forever)\n"
               "    [--metrics-port=N]   expose GET /metrics (Prometheus\n"
               "                         text) on this port (0 = ephemeral;\n"
               "                         off unless given)\n"
               "    [--slow-query-ms=T]  record queries slower than T ms in\n"
               "                         a ring surfaced via --stats\n"
               "    [--allow-remote-shutdown]  honour client SHUTDOWN\n"
               "    [--compress]         grant clients frame compression\n"
               "                         when they request it at connect\n"
               "  hgmatch query --connect=HOST:PORT [<queryset>]\n"
               "    [--limit=N]          per-query embedding limit\n"
               "    [--batch]            send the queryset coalesced in\n"
               "                         many-entry SUBMIT frames (shared\n"
               "                         options; per-query headers are\n"
               "                         ignored)\n"
               "    [--compress]         negotiate frame compression\n"
               "    [--stats]            print the server statistics\n"
               "                         snapshot (standalone or after\n"
               "                         the queryset)\n"
               "    [--json]             emit the --stats snapshot as one\n"
               "                         JSON object instead of text\n"
               "    [--trace]            negotiate per-query tracing and\n"
               "                         print a stage timeline under each\n"
               "                         outcome\n"
               "    [--graph=NAME]       route the queryset to catalog\n"
               "                         graph NAME\n"
               "    [--list-graphs]      print the server's graph catalog\n"
               "    [--load-graph=NAME=PATH]  ask the server to load PATH\n"
               "                         (its filesystem) as NAME\n"
               "    [--unload-graph=NAME]  remove NAME from the catalog\n"
               "    [--shutdown]         ask the server to exit afterwards\n"
               "profiles: HC MA CH CP SB HB WT TC SA AR random\n"
               "queryset: text queries separated by '---' or '# query' "
               "lines;\n"
               "  per-query '# tenant= # priority= # weight= # timeout=' "
               "headers\n");
  return 2;
}

// Parses a non-negative integer "--flag=value" payload. strtoull would
// silently wrap negative input, so a leading '-' is rejected up front.
bool ParseCount(const char* payload, uint64_t* out) {
  if (payload[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(payload, &end, 10);
  if (end == payload || *end != '\0') return false;
  *out = v;
  return true;
}

// Parses a "--flag=value" seconds payload (non-negative decimal).
bool ParseSeconds(const char* payload, double* out) {
  char* end = nullptr;
  const double v = std::strtod(payload, &end);
  if (end == payload || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

// Parses one of the scheduling flags shared by `batch` and `serve`
// (--max-inflight/--timeout/--policy) into `options`. Returns 1 when the
// flag was consumed, 0 when `arg` is none of them, -1 on a bad value (the
// caller reports it).
int ParseSchedulingFlag(const char* arg, ServiceOptions* options) {
  uint64_t count = 0;
  if (std::strncmp(arg, "--max-inflight=", 15) == 0) {
    if (!ParseCount(arg + 15, &count) || count > 1u << 20) return -1;
    options->max_inflight_queries = static_cast<uint32_t>(count);
    return 1;
  }
  if (std::strncmp(arg, "--timeout=", 10) == 0) {
    const bool ok = ParseSeconds(arg + 10, &options->parallel.timeout_seconds);
    return ok ? 1 : -1;
  }
  if (std::strncmp(arg, "--policy=", 9) == 0) {
    const char* policy = arg + 9;
    if (std::strcmp(policy, "fifo") == 0) {
      options->admission = AdmissionPolicy::kFifo;
    } else if (std::strcmp(policy, "priority") == 0) {
      options->admission = AdmissionPolicy::kPriority;
    } else if (std::strcmp(policy, "wfq") == 0) {
      options->admission = AdmissionPolicy::kWeightedFair;
    } else {
      return -1;
    }
    return 1;
  }
  return 0;
}

int CmdGen(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string profile_name = argv[2];
  const std::string out = argv[3];
  const double scale = argc > 4 ? std::atof(argv[4]) : -1;
  Hypergraph h;
  Timer timer;
  if (profile_name == "random") {
    GeneratorConfig config;
    config.seed = 1;
    if (scale > 0) {
      config.num_vertices = static_cast<uint32_t>(1000 * scale);
      config.num_edges = static_cast<uint32_t>(3000 * scale);
    }
    h = GenerateHypergraph(config);
  } else {
    const DatasetProfile* profile = FindDatasetProfile(profile_name);
    if (profile == nullptr) {
      std::fprintf(stderr, "unknown profile '%s'\n", profile_name.c_str());
      return 2;
    }
    h = scale > 0 ? profile->Generate(scale) : profile->GenerateDefault();
  }
  const Status s = SaveAny(h, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("generated %zu vertices, %zu hyperedges -> %s (%.2fs)\n",
              h.NumVertices(), h.NumEdges(), out.c_str(),
              timer.ElapsedSeconds());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<Hypergraph> h = LoadAny(argv[2]);
  if (!h.ok()) {
    std::fprintf(stderr, "%s\n", h.status().ToString().c_str());
    return 1;
  }
  const HypergraphStats stats = ComputeStats(h.value());
  std::printf("%s\n", stats.ToString().c_str());
  Timer timer;
  IndexedHypergraph index = IndexedHypergraph::Build(std::move(h.value()));
  std::printf("%s (index built in %.3fs, %llu bytes)\n",
              ComputePartitionStats(index).ToString().c_str(),
              timer.ElapsedSeconds(),
              static_cast<unsigned long long>(index.IndexBytes()));
  return 0;
}

int CmdConvert(int argc, char** argv) {
  if (argc < 4) return Usage();
  bool v1 = false;
  for (int a = 4; a < argc; ++a) {
    if (std::strcmp(argv[a], "--v1") == 0) {
      v1 = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[a]);
      return 2;
    }
  }
  Result<Hypergraph> h = LoadAny(argv[2]);
  if (!h.ok()) {
    std::fprintf(stderr, "%s\n", h.status().ToString().c_str());
    return 1;
  }
  const std::string out = argv[3];
  // --v1 forces the uncompressed v1 binary layout (for files that must
  // stay readable by pre-HGM2 builds); it only means something for .hgb.
  const Status s = v1 && IsBinaryPath(out)
                       ? SaveHypergraphBinary(h.value(), out,
                                              /*compress=*/false)
                       : SaveAny(h.value(), out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdSample(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<Hypergraph> data = LoadAny(argv[2]);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  uint64_t k = 0;
  if (!ParseCount(argv[3], &k) || k < 1 || k > 64) {
    std::fprintf(stderr, "bad query edge count '%s' (want 1..64)\n", argv[3]);
    return 2;
  }
  uint64_t count = 1;
  if (argc > 4 && !ParseCount(argv[4], &count)) {
    std::fprintf(stderr, "bad sample count '%s'\n", argv[4]);
    return 2;
  }
  QuerySettings settings{"cli", static_cast<uint32_t>(k), 2, 1000};
  const auto queries = SampleQueries(data.value(), settings, count, 7);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::printf("# query %zu\n%s", i, FormatHypergraph(queries[i]).c_str());
  }
  return queries.empty() ? 1 : 0;
}

int CmdMatch(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<Hypergraph> data = LoadAny(argv[2]);
  Result<Hypergraph> query = LoadAny(argv[3]);
  if (!data.ok() || !query.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!data.ok() ? data.status() : query.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  uint32_t threads = 1;
  if (argc > 4 && !ParseThreads(argv[4], &threads)) {
    std::fprintf(stderr, "bad thread count '%s'\n", argv[4]);
    return 2;
  }
  uint64_t limit = 0;
  if (argc > 5 && !ParseCount(argv[5], &limit)) {
    std::fprintf(stderr, "bad embedding limit '%s'\n", argv[5]);
    return 2;
  }

  IndexedHypergraph index = IndexedHypergraph::Build(std::move(data.value()));
  Result<QueryPlan> plan = BuildQueryPlan(query.value(), index);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "%s", DataflowGraph::FromPlan(plan.value()).ToString(&index).c_str());

  if (threads <= 1) {
    MatchOptions options;
    options.limit = limit;
    const MatchStats stats =
        ExecutePlanSequential(index, plan.value(), options, nullptr);
    std::printf("embeddings: %llu%s in %.3fs (%llu candidates)\n",
                static_cast<unsigned long long>(stats.embeddings),
                stats.limit_hit ? "+" : "", stats.seconds,
                static_cast<unsigned long long>(stats.candidates));
  } else {
    ParallelOptions options;
    options.num_threads = threads;
    options.limit = limit;
    const ParallelResult r =
        ExecutePlanParallel(index, plan.value(), options, nullptr);
    std::printf("embeddings: %llu%s in %.3fs with %u threads "
                "(peak task mem %llu bytes)\n",
                static_cast<unsigned long long>(r.stats.embeddings),
                r.stats.limit_hit ? "+" : "", r.stats.seconds, threads,
                static_cast<unsigned long long>(r.peak_task_bytes));
  }
  return 0;
}

int CmdBatch(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<Hypergraph> data = LoadAny(argv[2]);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<QuerySetEntry>> entries = LoadQuerySetEntries(argv[3]);
  if (!entries.ok()) {
    std::fprintf(stderr, "%s\n", entries.status().ToString().c_str());
    return 1;
  }
  if (entries.value().empty()) {
    std::fprintf(stderr, "query set %s is empty\n", argv[3]);
    return 1;
  }

  ServiceOptions options;
  int positional = 0;
  for (int a = 4; a < argc; ++a) {
    const char* arg = argv[a];
    const int scheduling = ParseSchedulingFlag(arg, &options);
    if (scheduling < 0) {
      std::fprintf(stderr, "bad value '%s'\n", arg);
      return 2;
    }
    if (scheduling > 0) {
      continue;
    }
    if (std::strncmp(arg, "--batch-timeout=", 16) == 0) {
      if (!ParseSeconds(arg + 16, &options.run_timeout_seconds)) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
    } else if (std::strcmp(arg, "--no-plan-cache") == 0) {
      options.plan_cache = false;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return 2;
    } else if (positional == 0) {
      if (!ParseThreads(arg, &options.parallel.num_threads)) {
        std::fprintf(stderr, "bad thread count '%s'\n", arg);
        return 2;
      }
      ++positional;
    } else if (positional == 1) {
      if (!ParseCount(arg, &options.parallel.limit)) {
        std::fprintf(stderr, "bad embedding limit '%s'\n", arg);
        return 2;
      }
      ++positional;
    } else {
      return Usage();
    }
  }

  std::vector<Hypergraph> queries;
  std::vector<SubmitOptions> submit;
  queries.reserve(entries.value().size());
  submit.reserve(entries.value().size());
  for (QuerySetEntry& e : entries.value()) {
    queries.push_back(std::move(e.query));
    submit.push_back(e.submit);
  }

  IndexedHypergraph index = IndexedHypergraph::Build(std::move(data.value()));
  const BatchRun run = RunBatch(index, queries, options, &submit);
  const ServiceReport& r = run.report;

  size_t planned = 0;
  uint64_t completed = 0;
  uint64_t embeddings = 0;
  for (size_t i = 0; i < run.tickets.size(); ++i) {
    const Ticket& t = run.tickets[i];
    const QueryOutcome& q = t.Wait();
    if (!t.status().ok()) {
      std::printf("query %zu: %s  [%s]\n", i, t.status().ToString().c_str(),
                  QueryStatusName(q.status));
      continue;
    }
    ++planned;
    if (q.status == QueryStatus::kOk) ++completed;
    embeddings += q.stats.embeddings;
    std::printf("query %zu: embeddings %llu%s in %.3fs  [%s]%s\n", i,
                static_cast<unsigned long long>(q.stats.embeddings),
                q.stats.limit_hit ? "+" : "", q.stats.seconds,
                QueryStatusName(q.status), q.mirrored ? " (mirrored)" : "");
  }
  // Throughput counts executed queries only: mirrored repeats finish at no
  // execution cost.
  std::printf("batch: %zu queries (%llu completed), embeddings %llu "
              "in %.3fs (%llu executed at %.1f queries/s, %llu mirrored, "
              "%llu re-dispatched, peak task mem %llu bytes, "
              "%llu plan-cache hits of which %llu isomorphic)\n",
              run.tickets.size(), static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(embeddings), r.seconds,
              static_cast<unsigned long long>(r.executed),
              r.seconds > 0 ? static_cast<double>(r.executed) / r.seconds : 0,
              static_cast<unsigned long long>(r.mirrored),
              static_cast<unsigned long long>(r.redispatched),
              static_cast<unsigned long long>(r.peak_task_bytes),
              static_cast<unsigned long long>(r.plan_cache_hits),
              static_cast<unsigned long long>(r.plan_cache_isomorphic_hits));
  return planned > 0 ? 0 : 1;
}

// Parses "HOST:PORT" (the last ':' splits, so numeric hosts stay simple).
bool ParseHostPort(const char* arg, std::string* host, uint16_t* port) {
  const std::string s = arg;
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  uint64_t p = 0;
  if (!ParseCount(s.c_str() + colon + 1, &p) || p == 0 || p > 65535) {
    return false;
  }
  *host = s.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

// Splits a "NAME=PATH" --graph payload. NAME must be non-empty (an empty
// name is the wire spelling of "the default graph", never a real entry).
bool ParseGraphSpec(const char* payload, std::string* name,
                    std::string* path) {
  const char* eq = std::strchr(payload, '=');
  if (eq == nullptr || eq == payload || eq[1] == '\0') return false;
  name->assign(payload, eq);
  path->assign(eq + 1);
  return true;
}

int CmdServe(int argc, char** argv) {
  if (argc < 3) return Usage();

  // The positional <data> (served as "default") is optional once --graph
  // names the graphs explicitly; flags may therefore start at argv[2].
  std::vector<NamedGraph> graphs;
  int a = 2;
  if (argv[2][0] != '-') {
    Result<Hypergraph> data = LoadAny(argv[2]);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    graphs.push_back({"default", std::move(data.value())});
    a = 3;
  }

  ServerOptions options;
  std::string port_file;
  double serve_seconds = 0;
  for (; a < argc; ++a) {
    const char* arg = argv[a];
    uint64_t count = 0;
    const int scheduling = ParseSchedulingFlag(arg, &options.service);
    if (scheduling < 0) {
      std::fprintf(stderr, "bad value '%s'\n", arg);
      return 2;
    }
    if (scheduling > 0) {
      continue;
    }
    if (std::strcmp(arg, "--graph") == 0 ||
        std::strncmp(arg, "--graph=", 8) == 0) {
      // "--graph NAME=PATH" or "--graph=NAME=PATH": load PATH now and
      // serve it as NAME. Duplicate names are a spelling mistake worth
      // rejecting here — the catalog would refuse the second Load at
      // Start(), but with a less pointed message.
      const char* spec = arg[7] == '=' ? arg + 8 : nullptr;
      if (spec == nullptr) {
        if (a + 1 >= argc) {
          std::fprintf(stderr, "--graph needs NAME=PATH\n");
          return 2;
        }
        spec = argv[++a];
      }
      std::string name, path;
      if (!ParseGraphSpec(spec, &name, &path)) {
        std::fprintf(stderr, "bad graph spec '%s' (want NAME=PATH)\n", spec);
        return 2;
      }
      for (const NamedGraph& g : graphs) {
        if (g.name == name) {
          std::fprintf(stderr, "duplicate graph name '%s'\n", name.c_str());
          return 2;
        }
      }
      Result<Hypergraph> data = LoadAny(path);
      if (!data.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     data.status().ToString().c_str());
        return 1;
      }
      graphs.push_back({std::move(name), std::move(data.value())});
    } else if (std::strncmp(arg, "--plan-cache-cap=", 17) == 0) {
      if (!ParseCount(arg + 17, &count)) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
      options.service.plan_cache_capacity = count;
    } else if (std::strcmp(arg, "--allow-remote-load") == 0) {
      options.allow_remote_load = true;
    } else if (std::strncmp(arg, "--host=", 7) == 0) {
      options.host = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      if (!ParseCount(arg + 7, &count) || count > 65535) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
      options.port = static_cast<uint16_t>(count);
    } else if (std::strncmp(arg, "--port-file=", 12) == 0) {
      port_file = arg + 12;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!ParseThreads(arg + 10, &options.service.parallel.num_threads)) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--max-queued=", 13) == 0) {
      if (!ParseCount(arg + 13, &count) || count > 1u << 20) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
      options.service.max_queued_queries = static_cast<uint32_t>(count);
    } else if (std::strncmp(arg, "--io-threads=", 13) == 0) {
      if (!ParseCount(arg + 13, &count) || count < 1 || count > 64) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
      options.io_threads = static_cast<uint32_t>(count);
    } else if (std::strncmp(arg, "--max-submits-per-sec=", 22) == 0) {
      if (!ParseSeconds(arg + 22, &options.max_submits_per_sec)) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--serve-seconds=", 16) == 0) {
      if (!ParseSeconds(arg + 16, &serve_seconds)) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--metrics-port=", 15) == 0) {
      if (!ParseCount(arg + 15, &count) || count > 65535) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
      options.metrics_port = static_cast<int>(count);
    } else if (std::strncmp(arg, "--slow-query-ms=", 16) == 0) {
      if (!ParseSeconds(arg + 16, &options.slow_query_ms)) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
    } else if (std::strcmp(arg, "--no-plan-cache") == 0) {
      options.service.plan_cache = false;
    } else if (std::strcmp(arg, "--allow-remote-shutdown") == 0) {
      options.allow_remote_shutdown = true;
    } else if (std::strcmp(arg, "--compress") == 0) {
      options.enable_compression = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return 2;
    }
  }

  if (graphs.empty()) {
    std::fprintf(stderr, "serve needs a <data> positional or --graph\n");
    return 2;
  }
  const size_t num_graphs = graphs.size();
  MatchServer server(std::move(graphs), options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving %s:%u (%zu graphs, %u worker threads, %u io "
              "threads)\n",
              options.host.c_str(), server.port(), num_graphs,
              server.Stats().num_threads, options.io_threads);
  if (options.metrics_port >= 0) {
    std::printf("metrics on http://%s:%u/metrics\n", options.host.c_str(),
                server.metrics_port());
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }
  if (serve_seconds > 0) {
    server.WaitFor(serve_seconds);
  } else {
    server.Wait();
  }
  server.Stop();
  const WireStats stats = server.Stats();
  std::printf("served %llu submissions (%llu completed, %llu rejected)\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected));
  return 0;
}

// Pretty-prints a kStatsReply snapshot: whole-server counters, live
// service gauges, one row per IO thread.
void PrintWireStats(const WireStats& s) {
  std::printf("server stats:\n");
  std::printf("  workers                  %u\n", s.num_threads);
  std::printf("  connections              %llu\n",
              static_cast<unsigned long long>(s.connections));
  std::printf("  submitted                %llu\n",
              static_cast<unsigned long long>(s.submitted));
  std::printf("  completed                %llu\n",
              static_cast<unsigned long long>(s.completed));
  std::printf("  rejected (queue-full)    %llu\n",
              static_cast<unsigned long long>(s.rejected));
  std::printf("  rejected (rate-limited)  %llu\n",
              static_cast<unsigned long long>(s.rate_limited));
  std::printf("  cancelled by disconnect  %llu\n",
              static_cast<unsigned long long>(s.cancelled_by_disconnect));
  std::printf("  inflight                 %llu\n",
              static_cast<unsigned long long>(s.inflight));
  std::printf("  service: finished %llu, live contexts %llu\n",
              static_cast<unsigned long long>(s.service_finished),
              static_cast<unsigned long long>(s.service_live_contexts));
  for (size_t i = 0; i < s.io_threads.size(); ++i) {
    const WireIoThreadStats& t = s.io_threads[i];
    std::printf("  io[%zu]: conns %llu, frames in/out %llu/%llu, "
                "bytes in/out %llu/%llu, rejects %llu\n",
                i, static_cast<unsigned long long>(t.connections),
                static_cast<unsigned long long>(t.frames_in),
                static_cast<unsigned long long>(t.frames_out),
                static_cast<unsigned long long>(t.bytes_in),
                static_cast<unsigned long long>(t.bytes_out),
                static_cast<unsigned long long>(t.rejects));
  }
  for (const WireGraphStats& g : s.graphs) {
    std::printf("  graph %s%s: queries %llu, live %llu, index %llu bytes\n",
                g.name.c_str(), g.is_default ? " (default)" : "",
                static_cast<unsigned long long>(g.queries),
                static_cast<unsigned long long>(g.live_tickets),
                static_cast<unsigned long long>(g.index_bytes));
  }
  if (s.uptime_seconds > 0) {
    std::printf("  uptime                   %.1fs\n", s.uptime_seconds);
  }
  for (const WireSlowQuery& q : s.slow_queries) {
    std::printf("  slow: request %llu tenant %u graph %s: total %.3fms "
                "(queue %.3fms, run %.3fms, deliver %.3fms)\n",
                static_cast<unsigned long long>(q.request_id), q.tenant_id,
                q.graph.c_str(), q.total_seconds * 1e3,
                q.queue_seconds * 1e3, q.run_seconds * 1e3,
                q.deliver_seconds * 1e3);
  }
}

// Escapes a string for a JSON string literal (quote, backslash and
// control characters; graph names are operator-chosen but not trusted).
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
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

// The --stats snapshot as one JSON object on stdout (`--stats --json`),
// machine-readable counterpart of PrintWireStats for scripted scrapes.
void PrintWireStatsJson(const WireStats& s) {
  std::printf("{\"workers\":%u", s.num_threads);
  std::printf(",\"connections\":%llu",
              static_cast<unsigned long long>(s.connections));
  std::printf(",\"submitted\":%llu",
              static_cast<unsigned long long>(s.submitted));
  std::printf(",\"completed\":%llu",
              static_cast<unsigned long long>(s.completed));
  std::printf(",\"rejected\":%llu",
              static_cast<unsigned long long>(s.rejected));
  std::printf(",\"rate_limited\":%llu",
              static_cast<unsigned long long>(s.rate_limited));
  std::printf(",\"cancelled_by_disconnect\":%llu",
              static_cast<unsigned long long>(s.cancelled_by_disconnect));
  std::printf(",\"inflight\":%llu",
              static_cast<unsigned long long>(s.inflight));
  std::printf(",\"service_finished\":%llu",
              static_cast<unsigned long long>(s.service_finished));
  std::printf(",\"service_live_contexts\":%llu",
              static_cast<unsigned long long>(s.service_live_contexts));
  std::printf(",\"uptime_seconds\":%.6f", s.uptime_seconds);
  std::printf(",\"monotonic_seconds\":%.6f", s.monotonic_seconds);
  std::printf(",\"io_threads\":[");
  for (size_t i = 0; i < s.io_threads.size(); ++i) {
    const WireIoThreadStats& t = s.io_threads[i];
    std::printf("%s{\"connections\":%llu,\"frames_in\":%llu,"
                "\"frames_out\":%llu,\"bytes_in\":%llu,\"bytes_out\":%llu,"
                "\"rejects\":%llu}",
                i == 0 ? "" : ",",
                static_cast<unsigned long long>(t.connections),
                static_cast<unsigned long long>(t.frames_in),
                static_cast<unsigned long long>(t.frames_out),
                static_cast<unsigned long long>(t.bytes_in),
                static_cast<unsigned long long>(t.bytes_out),
                static_cast<unsigned long long>(t.rejects));
  }
  std::printf("],\"graphs\":[");
  for (size_t i = 0; i < s.graphs.size(); ++i) {
    const WireGraphStats& g = s.graphs[i];
    std::printf("%s{\"name\":\"%s\",\"default\":%s,\"queries\":%llu,"
                "\"live_tickets\":%llu,\"index_bytes\":%llu}",
                i == 0 ? "" : ",", JsonEscape(g.name).c_str(),
                g.is_default ? "true" : "false",
                static_cast<unsigned long long>(g.queries),
                static_cast<unsigned long long>(g.live_tickets),
                static_cast<unsigned long long>(g.index_bytes));
  }
  std::printf("],\"slow_queries\":[");
  for (size_t i = 0; i < s.slow_queries.size(); ++i) {
    const WireSlowQuery& q = s.slow_queries[i];
    std::printf("%s{\"request_id\":%llu,\"tenant_id\":%u,\"graph\":\"%s\","
                "\"total_seconds\":%.6f,\"queue_seconds\":%.6f,"
                "\"run_seconds\":%.6f,\"deliver_seconds\":%.6f}",
                i == 0 ? "" : ",",
                static_cast<unsigned long long>(q.request_id), q.tenant_id,
                JsonEscape(q.graph).c_str(), q.total_seconds,
                q.queue_seconds, q.run_seconds, q.deliver_seconds);
  }
  std::printf("]}\n");
}

// Pretty-prints a kCatalogReply (the graph list every catalog verb
// answers with).
int PrintCatalogReply(const Result<WireCatalogReply>& reply) {
  if (!reply.ok()) {
    std::fprintf(stderr, "%s\n", reply.status().ToString().c_str());
    return 1;
  }
  const WireCatalogReply& r = reply.value();
  if (!r.ok) {
    std::fprintf(stderr, "catalog: %s\n", r.message.c_str());
    return 1;
  }
  std::printf("catalog: %zu graph%s\n", r.graphs.size(),
              r.graphs.size() == 1 ? "" : "s");
  for (const WireGraphStats& g : r.graphs) {
    std::printf("  %s%s: queries %llu, live %llu, index %llu bytes\n",
                g.name.c_str(), g.is_default ? " (default)" : "",
                static_cast<unsigned long long>(g.queries),
                static_cast<unsigned long long>(g.live_tickets),
                static_cast<unsigned long long>(g.index_bytes));
  }
  return 0;
}

int CmdQuery(int argc, char** argv) {
  std::string host;
  uint16_t port = 0;
  std::string queryset;
  uint64_t limit = SubmitOptions::kInheritLimit;
  bool shutdown_after = false;
  bool print_stats = false;
  bool stats_json = false;
  bool use_batch = false;
  bool use_compress = false;
  bool use_trace = false;
  std::string graph;        // --graph: route the queryset here
  bool list_graphs = false;
  std::string load_name, load_path;  // --load-graph=NAME=PATH
  std::string unload_name;           // --unload-graph=NAME
  for (int a = 2; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strncmp(arg, "--connect=", 10) == 0) {
      if (!ParseHostPort(arg + 10, &host, &port)) {
        std::fprintf(stderr, "bad value '%s' (want HOST:PORT)\n", arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--limit=", 8) == 0) {
      if (!ParseCount(arg + 8, &limit)) {
        std::fprintf(stderr, "bad value '%s'\n", arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--graph=", 8) == 0) {
      graph = arg + 8;
      if (graph.empty()) {
        std::fprintf(stderr, "--graph needs a name\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--list-graphs") == 0) {
      list_graphs = true;
    } else if (std::strncmp(arg, "--load-graph=", 13) == 0) {
      if (!ParseGraphSpec(arg + 13, &load_name, &load_path)) {
        std::fprintf(stderr, "bad value '%s' (want NAME=PATH)\n", arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--unload-graph=", 15) == 0) {
      unload_name = arg + 15;
      if (unload_name.empty()) {
        std::fprintf(stderr, "--unload-graph needs a name\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--stats") == 0) {
      print_stats = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      stats_json = true;
    } else if (std::strcmp(arg, "--shutdown") == 0) {
      shutdown_after = true;
    } else if (std::strcmp(arg, "--batch") == 0) {
      use_batch = true;
    } else if (std::strcmp(arg, "--compress") == 0) {
      use_compress = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      use_trace = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return 2;
    } else if (queryset.empty()) {
      queryset = arg;
    } else {
      return Usage();
    }
  }
  // A queryset is optional when only observing or administering: the
  // catalog verbs, `--stats` and `--shutdown` all work standalone.
  const bool catalog_admin =
      list_graphs || !load_name.empty() || !unload_name.empty();
  if (host.empty() ||
      (queryset.empty() && !print_stats && !shutdown_after &&
       !catalog_admin)) {
    return Usage();
  }

  // --compress/--trace opt into the negotiated extensions: the kHello
  // exchange at connect requests the feature bits, and the server's grant
  // decides what actually goes over the wire.
  AsyncClientOptions copts;
  if (use_compress) copts.request_features |= kFeatureCompression;
  if (use_trace) copts.request_features |= kFeatureTrace;

  if (queryset.empty()) {
    MatchClient client(copts);
    const Status connected = client.Connect(host, port);
    if (!connected.ok()) {
      std::fprintf(stderr, "%s\n", connected.ToString().c_str());
      return 1;
    }
    if (!load_name.empty()) {
      const int rc = PrintCatalogReply(client.LoadGraph(load_name,
                                                        load_path));
      if (rc != 0) return rc;
    }
    if (!unload_name.empty()) {
      const int rc = PrintCatalogReply(client.UnloadGraph(unload_name));
      if (rc != 0) return rc;
    }
    if (list_graphs) {
      const int rc = PrintCatalogReply(client.ListGraphs());
      if (rc != 0) return rc;
    }
    if (print_stats) {
      Result<WireStats> stats = client.Stats();
      if (!stats.ok()) {
        std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
        return 1;
      }
      if (stats_json) {
        PrintWireStatsJson(stats.value());
      } else {
        PrintWireStats(stats.value());
      }
    }
    if (shutdown_after) {
      const Status sent = client.RequestShutdown();
      if (!sent.ok()) {
        std::fprintf(stderr, "%s\n", sent.ToString().c_str());
        return 1;
      }
    }
    return 0;
  }

  Result<std::vector<QuerySetEntry>> entries = LoadQuerySetEntries(queryset);
  if (!entries.ok()) {
    std::fprintf(stderr, "%s\n", entries.status().ToString().c_str());
    return 1;
  }
  if (entries.value().empty()) {
    std::fprintf(stderr, "query set %s is empty\n", queryset.c_str());
    return 1;
  }

  MatchClient client(copts);
  const Status connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.ToString().c_str());
    return 1;
  }

  // --load-graph runs before the queryset so `--load-graph=g=... --graph=g`
  // can load and immediately query; unload/list run after the outcomes.
  if (!load_name.empty()) {
    const int rc = PrintCatalogReply(client.LoadGraph(load_name, load_path));
    if (rc != 0) return rc;
  }

  // Pipeline: submit everything, then collect outcomes in input order.
  std::vector<uint64_t> ids;
  ids.reserve(entries.value().size());
  if (use_batch) {
    // Batch mode coalesces the whole set into many-entry kSubmit frames
    // (per-query mode sends one entry per frame). The set shares one
    // options block, so per-query '# tenant=' style headers are ignored
    // here — use per-query mode when they matter.
    SubmitOptions so;
    if (limit != SubmitOptions::kInheritLimit) so.limit = limit;
    std::vector<const Hypergraph*> queries;
    queries.reserve(entries.value().size());
    for (const QuerySetEntry& e : entries.value()) {
      queries.push_back(&e.query);
    }
    Result<std::vector<uint64_t>> batch_ids =
        client.SubmitBatchTo(graph, queries, so);
    if (!batch_ids.ok()) {
      std::fprintf(stderr, "%s\n", batch_ids.status().ToString().c_str());
      return 1;
    }
    ids = std::move(batch_ids.value());
  } else {
    for (QuerySetEntry& e : entries.value()) {
      SubmitOptions so = e.submit;
      if (limit != SubmitOptions::kInheritLimit) so.limit = limit;
      Result<uint64_t> id = client.SubmitTo(graph, e.query, so);
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 1;
      }
      ids.push_back(id.value());
    }
  }

  size_t ok_count = 0;
  uint64_t total_embeddings = 0, rejected = 0;
  Timer timer;
  for (size_t i = 0; i < ids.size(); ++i) {
    Result<WireOutcome> reply = client.WaitOutcome(ids[i]);
    if (!reply.ok()) {
      std::fprintf(stderr, "%s\n", reply.status().ToString().c_str());
      return 1;
    }
    const QueryOutcome& out = reply.value().outcome;
    const bool shed = out.status == QueryStatus::kRejected;
    std::printf("query %zu: embeddings %llu%s in %.3fs  [%s%s%s]%s\n", i,
                static_cast<unsigned long long>(out.stats.embeddings),
                out.stats.limit_hit ? "+" : "", out.stats.seconds,
                QueryStatusName(out.status), shed ? ": " : "",
                shed ? RejectReasonName(reply.value().reject_reason) : "",
                out.mirrored ? " (mirrored)" : "");
    if (use_trace && out.span.enabled) {
      std::printf("%s", out.span.Timeline().c_str());
    }
    total_embeddings += out.stats.embeddings;
    if (out.status == QueryStatus::kOk || out.status == QueryStatus::kLimit) {
      ++ok_count;
    }
    if (out.status == QueryStatus::kRejected) ++rejected;
  }
  std::printf("remote: %zu queries (%zu completed, %llu rejected), "
              "embeddings %llu in %.3fs\n",
              ids.size(), ok_count,
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(total_embeddings),
              timer.ElapsedSeconds());
  if (use_batch || copts.request_features != 0) {
    const ClientTransferStats ts = client.TransferStats();
    const double per_query =
        ids.empty() ? 0.0
                    : static_cast<double>(ts.bytes_sent + ts.bytes_received) /
                          static_cast<double>(ids.size());
    std::printf("wire: granted%s%s%s, sent %llu frames / %llu bytes, "
                "received %llu frames / %llu bytes, %.1f bytes/query\n",
                client.features() == 0 ? " none" : "",
                (client.features() & kFeatureCompression) != 0 ? " compress"
                                                               : "",
                (client.features() & kFeatureTrace) != 0 ? " trace" : "",
                static_cast<unsigned long long>(ts.frames_sent),
                static_cast<unsigned long long>(ts.bytes_sent),
                static_cast<unsigned long long>(ts.frames_received),
                static_cast<unsigned long long>(ts.bytes_received),
                per_query);
  }
  if (!unload_name.empty()) {
    const int rc = PrintCatalogReply(client.UnloadGraph(unload_name));
    if (rc != 0) return rc;
  }
  if (list_graphs) {
    const int rc = PrintCatalogReply(client.ListGraphs());
    if (rc != 0) return rc;
  }
  if (print_stats) {
    Result<WireStats> stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    if (stats_json) {
      PrintWireStatsJson(stats.value());
    } else {
      PrintWireStats(stats.value());
    }
  }
  if (shutdown_after) {
    const Status sent = client.RequestShutdown();
    if (!sent.ok()) {
      std::fprintf(stderr, "%s\n", sent.ToString().c_str());
      return 1;
    }
  }
  return ok_count > 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "convert") return CmdConvert(argc, argv);
  if (cmd == "sample") return CmdSample(argc, argv);
  if (cmd == "match") return CmdMatch(argc, argv);
  if (cmd == "batch") return CmdBatch(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace hgmatch

int main(int argc, char** argv) { return hgmatch::Main(argc, argv); }
