// Wire-overhead bench: the same query workload executed (a) in process
// through MatchService and (b) over the loopback TCP front end
// (net/server.h / net/client.h), single client and pipelined. The gap
// between the two rows is the whole protocol cost — framing, hypergraph
// (de)serialisation, the serving loop and the kernel's loopback path —
// which bounds what a remote deployment can lose before the network
// itself. A second section measures single-query round-trip latency
// percentiles (p50/p95/p99) of completion-driven outcome delivery (the
// wake-pipe path). A third section sweeps
// concurrent connections (1/8/64/256 clients) against reactor widths
// (io_threads 1/2/4) over a fixed budget of tiny queries, so the aggregate
// q/s scaling of the epoll front end is measured where framing — not
// matching — is the bottleneck. A fourth section floods one connection
// with 10k tiny queries under {per-query Submit (a one-entry SUBMIT frame
// each), SubmitBatch (many entries per SUBMIT frame)} x {raw, compressed}
// and reports bytes/query and q/s per cell — the wire-economy numbers
// behind the many-entry and compressed framing. A fifth section exercises
// the graph catalog: round-robin routing over 1 vs 4 hosted graphs, with
// per-query counts cross-checked across both cells. A sixth section reruns
// the 10k-query flood under {metrics on (the default), metrics compiled in
// but disabled, metrics + per-query tracing} and reports each cell's q/s
// overhead against the disabled baseline — the observability tax.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "parallel/service.h"
#include "util/timer.h"

namespace hgmatch::bench {
namespace {

struct Row {
  const char* mode;
  size_t queries = 0;
  uint64_t embeddings = 0;
  double seconds = 0;
};

void PrintRow(const Row& row) {
  std::printf("%-12s %6zu queries  %10llu embeddings  %8.4fs  %8.1f q/s\n",
              row.mode, row.queries,
              static_cast<unsigned long long>(row.embeddings), row.seconds,
              row.seconds > 0 ? static_cast<double>(row.queries) / row.seconds
                              : 0);
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t n = sorted_in_place->size();
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(n - 1) + 0.5);
  if (rank >= n) rank = n - 1;
  return (*sorted_in_place)[rank];
}

// Unpipelined submit->wait round trips against `index`: each iteration
// pays the full deliver-the-outcome path. `label` names the row;
// `submit.timeout_seconds` may turn the query into a fixed-duration burn
// (see DeliveryLatencySection).
void LatencyRow(const char* label, const IndexedHypergraph& index,
                const Hypergraph& query, const SubmitOptions& submit,
                const ServiceOptions& service_options, int rounds) {
  ServerOptions server_options;
  server_options.service = service_options;
  MatchServer server(index, server_options);
  if (!server.Start().ok()) {
    std::printf("latency       unavailable on this platform\n");
    return;
  }
  MatchClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) return;

  const int warmup = rounds / 20 + 1;
  std::vector<double> rtt;
  rtt.reserve(rounds);
  for (int i = 0; i < warmup + rounds; ++i) {
    Timer timer;
    Result<uint64_t> id = client.Submit(query, submit);
    if (!id.ok()) return;
    if (!client.WaitOutcome(id.value()).ok()) return;
    if (i >= warmup) rtt.push_back(timer.ElapsedSeconds());
  }
  const double p50 = Percentile(&rtt, 0.50) * 1e6;
  const double p95 = Percentile(&rtt, 0.95) * 1e6;
  const double p99 = Percentile(&rtt, 0.99) * 1e6;
  std::printf("%-17s %4d rtts  p50 %9.1fus  p95 %9.1fus  p99 %9.1fus\n",
              label, rounds, p50, p95, p99);
  server.Stop();
}

// Isolates outcome-*delivery* latency from scheduling luck: a
// combinatorial monster query with a 3 ms per-query timeout burns its
// whole budget on the pool, so its outcome always finalises while the
// serving thread is parked in its event wait, and the completion hook wakes
// the loop through the pipe at that instant. Subtract the 3 ms budget from
// the printed percentiles to read the pure delivery cost.
void DeliveryLatencySection() {
  Hypergraph clique;
  constexpr uint32_t kVertices = 40;
  clique.AddVertices(kVertices, 0);
  for (VertexId i = 0; i < kVertices; ++i) {
    for (VertexId j = i + 1; j < kVertices; ++j) (void)clique.AddEdge({i, j});
  }
  IndexedHypergraph index = IndexedHypergraph::Build(std::move(clique));
  Hypergraph monster;  // 4-edge path: far beyond the 3 ms budget
  monster.AddVertices(5, 0);
  for (VertexId v = 0; v < 4; ++v) (void)monster.AddEdge({v, v + 1});

  ServiceOptions service_options;
  service_options.parallel.num_threads = 2;
  service_options.plan_cache = true;  // one plan, reused every round
  SubmitOptions submit;
  submit.timeout_seconds = 0.003;

  std::printf("-- outcome delivery (3ms budget burn; subtract 3000us) --\n");
  LatencyRow("delivery", index, monster, submit, service_options, 120);
}

// Aggregate-throughput sweep of the reactor: C concurrent clients split a
// fixed budget of tiny queries (single pair edge over a 16-clique — the
// matching work is negligible, so the wire front end is the bottleneck)
// and the table reads as q/s per (io_threads, clients) cell. On a
// multi-core host the io_threads=4 rows should clearly beat io_threads=1
// at 64+ clients; on a single core the sweep degenerates into a
// context-switch bench and the rows converge.
void ConcurrentSweepSection() {
  Hypergraph clique;
  constexpr uint32_t kVertices = 16;
  clique.AddVertices(kVertices, 0);
  for (VertexId i = 0; i < kVertices; ++i) {
    for (VertexId j = i + 1; j < kVertices; ++j) (void)clique.AddEdge({i, j});
  }
  IndexedHypergraph index = IndexedHypergraph::Build(std::move(clique));
  Hypergraph tiny;
  tiny.AddVertices(2, 0);
  (void)tiny.AddEdge({0, 1});

  ServiceOptions service_options;
  service_options.parallel.num_threads = 2;

  constexpr uint32_t kTotalQueries = 4096;
  std::printf("-- concurrent connections (%u tiny queries total) --\n",
              kTotalQueries);
  for (uint32_t io_threads : {1u, 2u, 4u}) {
    for (uint32_t clients : {1u, 8u, 64u, 256u}) {
      ServerOptions server_options;
      server_options.service = service_options;
      server_options.io_threads = io_threads;
      server_options.max_connections = 512;
      MatchServer server(index, server_options);
      if (!server.Start().ok()) {
        std::printf("sweep         unavailable on this platform\n");
        return;
      }
      const uint32_t per_client = kTotalQueries / clients;
      std::atomic<bool> failed{false};
      Timer timer;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (uint32_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
          MatchClient client;
          if (!client.Connect("127.0.0.1", server.port()).ok()) {
            failed.store(true);
            return;
          }
          std::vector<uint64_t> ids;
          ids.reserve(per_client);
          for (uint32_t i = 0; i < per_client; ++i) {
            Result<uint64_t> id = client.Submit(tiny);
            if (!id.ok()) {
              failed.store(true);
              return;
            }
            ids.push_back(id.value());
          }
          for (uint64_t id : ids) {
            if (!client.WaitOutcome(id).ok()) {
              failed.store(true);
              return;
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double seconds = timer.ElapsedSeconds();
      server.Stop();
      if (failed.load()) {
        std::printf("io=%u clients=%-3u  failed\n", io_threads, clients);
        continue;
      }
      std::printf("io=%u clients=%-3u  %5u q/conn  %8.4fs  %9.1f q/s\n",
                  io_threads, clients, per_client, seconds,
                  seconds > 0 ? kTotalQueries / seconds : 0);
    }
  }
}

// One cell of the flood sweep: N tiny queries through one connection,
// framing chosen by the feature bits the client requests (and the server
// grants). `transfer` is the client's eye view of the wire — both
// directions, headers included — so bytes/query compares the whole
// framing economy, not just payload sizes.
struct FloodCell {
  const char* mode = "";
  bool batch = false;
  bool compressed = false;
  size_t queries = 0;
  double seconds = 0;
  ClientTransferStats transfer;
};

double FloodBytesPerQuery(const FloodCell& cell) {
  if (cell.queries == 0) return 0;
  return static_cast<double>(cell.transfer.bytes_sent +
                             cell.transfer.bytes_received) /
         static_cast<double>(cell.queries);
}

bool RunFloodCell(const IndexedHypergraph& index, const Hypergraph& tiny,
                  FloodCell* cell) {
  ServerOptions server_options;
  server_options.service.parallel.num_threads = 2;
  server_options.enable_compression = cell->compressed;
  MatchServer server(index, server_options);
  if (!server.Start().ok()) return false;

  AsyncClientOptions copts;
  if (cell->compressed) copts.request_features |= kFeatureCompression;
  MatchClient client(copts);
  if (!client.Connect("127.0.0.1", server.port()).ok()) return false;

  Timer timer;
  std::vector<uint64_t> ids;
  ids.reserve(cell->queries);
  if (cell->batch) {
    const std::vector<const Hypergraph*> queries(cell->queries, &tiny);
    Result<std::vector<uint64_t>> batch_ids = client.SubmitBatch(queries);
    if (!batch_ids.ok()) return false;
    ids = std::move(batch_ids.value());
  } else {
    for (size_t i = 0; i < cell->queries; ++i) {
      Result<uint64_t> id = client.Submit(tiny);
      if (!id.ok()) return false;
      ids.push_back(id.value());
    }
  }
  for (uint64_t id : ids) {
    if (!client.WaitOutcome(id).ok()) return false;
  }
  cell->seconds = timer.ElapsedSeconds();
  cell->transfer = client.TransferStats();
  server.Stop();
  return true;
}

// Small-query flood: 10k single-edge queries against a 16-clique, where
// virtually all the cost is framing. The headline number is bytes/query
// of SubmitBatch+compression against per-query raw Submit, one entry per
// SUBMIT frame: many entries per frame amortise the 9-byte header and the
// repeated submit-option block across the frame, and LZSS then collapses the
// near-identical serialized queries, so the product of the two is the
// reduction a small-query-heavy deployment should expect. queries/s is a
// loopback number: the wire is free and client, IO thread and workers
// share the host, so codec CPU that would overlap the (real) network and
// run on other cores in deployment shows up serialised here — on a
// single-core host the lzss cells trail raw by the codec's CPU share,
// and match it within noise on multi-core hosts.
void FloodSection() {
  Hypergraph clique;
  constexpr uint32_t kVertices = 16;
  clique.AddVertices(kVertices, 0);
  for (VertexId i = 0; i < kVertices; ++i) {
    for (VertexId j = i + 1; j < kVertices; ++j) (void)clique.AddEdge({i, j});
  }
  IndexedHypergraph index = IndexedHypergraph::Build(std::move(clique));
  Hypergraph tiny;
  tiny.AddVertices(2, 0);
  (void)tiny.AddEdge({0, 1});

  constexpr size_t kFlood = 10000;
  FloodCell cells[4];
  cells[0].mode = "Submit/raw";
  cells[1].mode = "Submit/lzss";
  cells[1].compressed = true;
  cells[2].mode = "SubmitBatch/raw";
  cells[2].batch = true;
  cells[3].mode = "SubmitBatch/lzss";
  cells[3].batch = true;
  cells[3].compressed = true;
  std::printf("-- small-query flood (%zu single-edge queries, 1 conn) --\n",
              kFlood);
  for (FloodCell& cell : cells) {
    cell.queries = kFlood;
    // Best of three: one flood lasts ~25 ms, well inside scheduler noise on
    // a busy host, and the fastest run is the closest to the framing cost
    // actually being measured.
    bool ok = false;
    for (int rep = 0; rep < 3; ++rep) {
      FloodCell probe = cell;
      if (!RunFloodCell(index, tiny, &probe)) break;
      if (!ok || probe.seconds < cell.seconds) {
        cell.seconds = probe.seconds;
        cell.transfer = probe.transfer;
      }
      ok = true;
    }
    if (!ok) {
      std::printf("flood         unavailable on this platform\n");
      return;
    }
    std::printf(
        "%-16s %8.4fs  %9.1f q/s  sent %8llu B /%6llu f  "
        "recv %8llu B /%6llu f  %6.1f B/query\n",
        cell.mode, cell.seconds,
        cell.seconds > 0
            ? static_cast<double>(cell.queries) / cell.seconds
            : 0,
        static_cast<unsigned long long>(cell.transfer.bytes_sent),
        static_cast<unsigned long long>(cell.transfer.frames_sent),
        static_cast<unsigned long long>(cell.transfer.bytes_received),
        static_cast<unsigned long long>(cell.transfer.frames_received),
        FloodBytesPerQuery(cell));
  }
  const double base = FloodBytesPerQuery(cells[0]);
  const double best = FloodBytesPerQuery(cells[3]);
  if (best > 0) {
    std::printf(
        "bytes/query reduction (SubmitBatch/lzss vs Submit/raw): %.2fx\n",
        base / best);
  }
}

// Catalog section: G hosted graphs on one pool vs the same load on a
// single-graph server — the cost of routing and per-graph services when
// the pool, not the catalog, should be the bottleneck. Counts are
// asserted equal across the cells: routing is exactness-preserving, so a
// mismatch here is a bug, not noise.
struct CatalogCell {
  std::string label;
  size_t queries = 0;
  uint64_t embeddings = 0;
  double seconds = 0;
};

void CatalogSection() {
  Hypergraph clique;
  constexpr uint32_t kVertices = 28;
  clique.AddVertices(kVertices, 0);
  for (VertexId i = 0; i < kVertices; ++i) {
    for (VertexId j = i + 1; j < kVertices; ++j) (void)clique.AddEdge({i, j});
  }
  Hypergraph query;  // 3-edge path
  query.AddVertices(4, 0);
  for (VertexId v = 0; v < 3; ++v) (void)query.AddEdge({v, v + 1});

  std::vector<CatalogCell> cells;
  std::printf("-- graph catalog (28-clique, 3-edge path) --\n");

  // Multi-graph routing: the same budget of queries against 1 vs 4 hosted
  // copies of the graph, round-robin routed, one client.
  constexpr size_t kRouted = 64;
  for (uint32_t num_graphs : {1u, 4u}) {
    std::vector<NamedGraph> graphs;
    std::vector<std::string> names;
    for (uint32_t g = 0; g < num_graphs; ++g) {
      std::string name = "g";
      name += std::to_string(g);
      names.push_back(std::move(name));
      graphs.push_back({names.back(), clique.Clone()});
    }
    ServerOptions server_options;
    server_options.service.parallel.num_threads = 4;
    MatchServer server(std::move(graphs), server_options);
    if (!server.Start().ok()) {
      std::printf("catalog       unavailable on this platform\n");
      return;
    }
    MatchClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) return;

    CatalogCell cell;
    cell.label = "route/" + std::to_string(num_graphs) + "-graph";
    cell.queries = kRouted;
    Timer timer;
    std::vector<uint64_t> ids;
    ids.reserve(kRouted);
    for (size_t i = 0; i < kRouted; ++i) {
      Result<uint64_t> id =
          client.SubmitTo(names[i % names.size()], query);
      if (!id.ok()) return;
      ids.push_back(id.value());
    }
    for (uint64_t id : ids) {
      Result<WireOutcome> reply = client.WaitOutcome(id);
      if (!reply.ok()) return;
      cell.embeddings += reply.value().outcome.stats.embeddings;
    }
    cell.seconds = timer.ElapsedSeconds();
    server.Stop();
    std::printf("%-16s %4zu queries  %8.4fs  %8.1f q/s\n",
                cell.label.c_str(), cell.queries, cell.seconds,
                cell.seconds > 0
                    ? static_cast<double>(cell.queries) / cell.seconds
                    : 0);
    cells.push_back(std::move(cell));
  }

  // Exactness cross-check: every cell saw the same per-query counts.
  const uint64_t per_query = cells.empty() || cells[0].queries == 0
                                 ? 0
                                 : cells[0].embeddings / cells[0].queries;
  for (const CatalogCell& cell : cells) {
    if (cell.queries > 0 && cell.embeddings / cell.queries != per_query) {
      std::printf("MISMATCH: %s saw %llu embeddings/query (want %llu)\n",
                  cell.label.c_str(),
                  static_cast<unsigned long long>(cell.embeddings /
                                                  cell.queries),
                  static_cast<unsigned long long>(per_query));
    }
  }
}

// Observability-tax section: the 10k tiny-query flood of FloodSection
// rerun under three instrumentation states. "metrics/off" flips the
// process registry to disabled — every Add/Observe degrades to one
// relaxed load + branch, the compiled-in-but-idle configuration — and is
// the baseline; "metrics/on" is the shipped default (sharded counters and
// histograms live on every layer's hot path); "trace/on" adds per-query
// span capture and the OUTCOME trace section on the wire (kFeatureTrace).
// Overhead is reported as the q/s delta against the disabled baseline.
// Loopback is the worst case for this tax: no network time hides the
// extra stamps, so deployment overhead is bounded by these numbers.
struct ObsCell {
  const char* mode = "";
  bool metrics = true;
  bool trace = false;
  size_t queries = 0;
  double seconds = 0;
};

bool RunObsCell(const IndexedHypergraph& index, const Hypergraph& tiny,
                ObsCell* cell) {
  MetricsRegistry::Default().set_enabled(cell->metrics);
  ServerOptions server_options;
  server_options.service.parallel.num_threads = 2;
  MatchServer server(index, server_options);
  if (!server.Start().ok()) return false;

  AsyncClientOptions copts;
  if (cell->trace) copts.request_features |= kFeatureTrace;
  MatchClient client(copts);
  if (!client.Connect("127.0.0.1", server.port()).ok()) return false;

  Timer timer;
  std::vector<uint64_t> ids;
  ids.reserve(cell->queries);
  for (size_t i = 0; i < cell->queries; ++i) {
    Result<uint64_t> id = client.Submit(tiny);
    if (!id.ok()) return false;
    ids.push_back(id.value());
  }
  for (uint64_t id : ids) {
    if (!client.WaitOutcome(id).ok()) return false;
  }
  cell->seconds = timer.ElapsedSeconds();
  server.Stop();
  MetricsRegistry::Default().set_enabled(true);
  return true;
}

void ObsSection() {
  Hypergraph clique;
  constexpr uint32_t kVertices = 16;
  clique.AddVertices(kVertices, 0);
  for (VertexId i = 0; i < kVertices; ++i) {
    for (VertexId j = i + 1; j < kVertices; ++j) (void)clique.AddEdge({i, j});
  }
  IndexedHypergraph index = IndexedHypergraph::Build(std::move(clique));
  Hypergraph tiny;
  tiny.AddVertices(2, 0);
  (void)tiny.AddEdge({0, 1});

  constexpr size_t kFlood = 10000;
  ObsCell cells[3];
  cells[0].mode = "metrics/off";
  cells[0].metrics = false;
  cells[1].mode = "metrics/on";
  cells[2].mode = "trace/on";
  cells[2].trace = true;
  std::printf("-- observability tax (%zu single-edge queries, 1 conn) --\n",
              kFlood);
  // One discarded flood first: the first flood of the process pays page
  // faults and allocator warmup, which would otherwise all land on the
  // baseline cell and make the instrumented cells look free.
  ObsCell warmup = cells[1];
  warmup.queries = kFlood;
  (void)RunObsCell(index, tiny, &warmup);
  for (ObsCell& cell : cells) {
    cell.queries = kFlood;
    bool ok = false;
    for (int rep = 0; rep < 3; ++rep) {  // best of three, as FloodSection
      ObsCell probe = cell;
      if (!RunObsCell(index, tiny, &probe)) break;
      if (!ok || probe.seconds < cell.seconds) cell.seconds = probe.seconds;
      ok = true;
    }
    if (!ok) {
      std::printf("obs           unavailable on this platform\n");
      return;
    }
  }
  const double base_qps =
      cells[0].seconds > 0 ? kFlood / cells[0].seconds : 0;
  for (const ObsCell& cell : cells) {
    const double qps = cell.seconds > 0 ? kFlood / cell.seconds : 0;
    const double overhead =
        base_qps > 0 ? (base_qps - qps) / base_qps * 100.0 : 0;
    std::printf("%-12s %8.4fs  %9.1f q/s  %+6.2f%% vs metrics/off\n",
                cell.mode, cell.seconds, qps, overhead);
  }
}

int Main(int argc, char** argv) {
  const auto names = DatasetArgs(argc, argv, {"CP"});
  for (const std::string& name : names) {
    Dataset dataset = LoadDataset(name);
    std::printf("== %s ==\n", dataset.name.c_str());
    const std::vector<QuerySettings> settings = {
        {"small", 3, 2, 2000}, {"medium", 5, 2, 2000}};
    const std::vector<Hypergraph> queries =
        BatchWorkloadFor(dataset, settings, /*min_size=*/64);

    ServiceOptions service_options;
    service_options.parallel.num_threads = 4;
    service_options.parallel.limit = 100000;

    {  // In-process baseline: submit all, wait all.
      MatchService service(dataset.index, service_options);
      Row row{"in-process"};
      Timer timer;
      std::vector<Ticket> tickets;
      tickets.reserve(queries.size());
      for (const Hypergraph& q : queries) {
        tickets.push_back(service.SubmitBorrowed(q));
      }
      for (Ticket& t : tickets) row.embeddings += t.Wait().stats.embeddings;
      row.seconds = timer.ElapsedSeconds();
      row.queries = queries.size();
      PrintRow(row);
    }

    {  // The same workload through the TCP front end, pipelined.
      ServerOptions server_options;
      server_options.service = service_options;
      MatchServer server(dataset.index, server_options);
      if (!server.Start().ok()) {
        std::printf("loopback      unavailable on this platform\n");
        continue;
      }
      MatchClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return 1;
      Row row{"loopback"};
      Timer timer;
      std::vector<uint64_t> ids;
      ids.reserve(queries.size());
      for (const Hypergraph& q : queries) {
        Result<uint64_t> id = client.Submit(q);
        if (!id.ok()) return 1;
        ids.push_back(id.value());
      }
      for (uint64_t id : ids) {
        Result<WireOutcome> reply = client.WaitOutcome(id);
        if (!reply.ok()) return 1;
        row.embeddings += reply.value().outcome.stats.embeddings;
      }
      row.seconds = timer.ElapsedSeconds();
      row.queries = ids.size();
      PrintRow(row);
      server.Stop();
    }

    // Single-query round-trip tail latency of completion-driven delivery.
    LatencyRow("latency", dataset.index, queries.front(), SubmitOptions{},
               service_options, 400);
  }

  DeliveryLatencySection();
  ConcurrentSweepSection();
  FloodSection();
  CatalogSection();
  ObsSection();
  return 0;
}

}  // namespace
}  // namespace hgmatch::bench

int main(int argc, char** argv) { return hgmatch::bench::Main(argc, argv); }
