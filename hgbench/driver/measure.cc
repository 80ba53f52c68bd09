// The measured process: set-up (load the .hgb input, build the index,
// start the pool or server), the closed-loop timed phase, and — in traced
// runs — the per-layer probes. Prints one JSON object as its last line.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "core/hgmatch.h"
#include "driver/common.h"
#include "io/binary_format.h"
#include "io/loader.h"
#include "net/async_client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/service.h"

namespace hgbench {

namespace {

using hgmatch::Hypergraph;
using hgmatch::IndexedHypergraph;

constexpr double kSafetyTimeout = 60;  // per query; never meant to fire

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif
constexpr size_t kPlanCacheCapacity = 256;

struct Inputs {
  std::vector<Hypergraph> queries;
  std::vector<ExpectedQuery> expected;
  std::string manifest;
};

bool LoadInputs(const std::string& dir, Inputs* in) {
  hgmatch::Result<std::vector<Hypergraph>> queries =
      hgmatch::LoadQuerySet(QueriesPath(dir));
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return false;
  }
  in->queries = std::move(queries.value());
  std::ifstream expected(ExpectedPath(dir));
  std::string line;
  while (std::getline(expected, line)) {
    std::istringstream fields(line);
    ExpectedQuery e;
    std::string kind;
    fields >> e.embeddings >> kind;
    e.repeat = kind == "repeat";
    in->expected.push_back(e);
  }
  std::ifstream manifest(ManifestPath(dir));
  std::getline(manifest, in->manifest);
  return in->expected.size() == in->queries.size() && !in->queries.empty();
}

struct Threads {
  uint32_t nproc = 1;
  uint32_t pool = 1;         // worker pools: nproc - 1, at least 1
  uint32_t engine = 1;       // match threads of the timed phase
  uint32_t io = 0;           // serve: reactor threads
  uint32_t connections = 0;  // serve: client connections
};

// Worker pools leave one vCPU free: with every vCPU busy, any other
// runnable thread on the box stalls a worker and the whole query waits for
// it at join, which made 4-of-4-thread runs swing by a quarter between
// identical runs where 3-of-4 stayed within a few percent.
Threads ThreadsFor(const WorkloadSpec& spec) {
  Threads t;
  t.nproc = std::max(1u, std::thread::hardware_concurrency());
  t.pool = std::max(1u, t.nproc - 1);
  switch (spec.engine) {
    case Engine::kSequential:
      t.engine = 1;
      break;
    case Engine::kParallel:
      t.engine = t.pool;
      break;
    case Engine::kServe:
      // Server workers plus the IO thread stay within nproc.
      // Half the vCPUs drive client connections and half run server
      // workers; with the IO thread and the client readers that already
      // oversubscribes the box a little. 4 connections + 3 workers on 4
      // vCPUs swung qps by a fifth between identical runs, 2 + 2 by 2%.
      t.io = 1;
      t.engine = std::max(1u, t.nproc / 2);
      t.connections = std::max(1u, t.nproc / 2);
      break;
  }
  return t;
}

hgmatch::ServerOptions MakeServerOptions(uint32_t workers, uint32_t io) {
  hgmatch::ServerOptions options;
  options.io_threads = io;
  options.service.parallel.num_threads = workers;
  options.service.plan_cache_capacity = kPlanCacheCapacity;
  return options;
}

// Everything set-up produces.
struct Deployment {
  std::optional<IndexedHypergraph> index;
  std::unique_ptr<hgmatch::MatchServer> server;
  std::vector<std::unique_ptr<hgmatch::AsyncMatchClient>> clients;
  double load_s = 0;
  double build_s = 0;
  double setup_s = 0;

  ~Deployment() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server) server->Stop();
  }
};

bool SetUp(const WorkloadSpec& spec, const std::string& dir,
           const Threads& threads, bool trace, Deployment* d) {
  const double t0 = Now();
  hgmatch::Result<Hypergraph> graph =
      hgmatch::LoadHypergraphBinary(DataPath(dir));
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return false;
  }
  const double t1 = Now();
  d->index.emplace(IndexedHypergraph::Build(std::move(graph.value())));
  const double t2 = Now();
  if (spec.engine == Engine::kServe) {
    d->server = std::make_unique<hgmatch::MatchServer>(
        *d->index, MakeServerOptions(threads.engine, threads.io));
    if (!d->server->Start().ok()) return false;
    hgmatch::AsyncClientOptions copts;
    if (trace) copts.request_features = hgmatch::kFeatureTrace;
    for (uint32_t c = 0; c < threads.connections; ++c) {
      auto client = std::make_unique<hgmatch::AsyncMatchClient>(copts);
      if (!client->Connect("127.0.0.1", d->server->port()).ok()) return false;
      d->clients.push_back(std::move(client));
    }
  }
  d->load_s = t1 - t0;
  d->build_s = t2 - t1;
  d->setup_s = Now() - t0;
  return true;
}

// One completed (or failed) query of the timed phase.
struct Sample {
  double latency = 0;  // seconds, caller's view
  bool ok = false;
  bool repeat = false;
  double client_submit = 0;  // hgmatch::MonotonicSeconds()
  hgmatch::QuerySpan span;
};

// Latency samples and accounting of a set of timed segments.
struct Tally {
  std::vector<Sample> samples;
  double seconds = 0;
  double cpu = 0;
  uint64_t attempted() const { return samples.size(); }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const Sample& s : samples) n += s.ok ? 0 : 1;
    return n;
  }
  void Add(Tally&& other) {
    for (Sample& s : other.samples) samples.push_back(std::move(s));
    seconds += other.seconds;
    cpu += other.cpu;
  }
  double Qps() const {
    return seconds > 0 ? static_cast<double>(attempted() - failed()) / seconds
                       : 0;
  }
  // A failed query misses every latency limit.
  std::vector<double> LatenciesMs() const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples) {
      v.push_back(s.ok ? s.latency * 1e3 : INFINITY);
    }
    return v;
  }
};

bool CountOk(const ExpectedQuery& e, const hgmatch::MatchStats& stats) {
  return !stats.timed_out && !stats.limit_hit &&
         stats.embeddings == e.embeddings;
}

// One pass of the enum engine over the first `count` queries of the set.
Tally EnumPass(const WorkloadSpec& spec, const Inputs& in,
               const IndexedHypergraph& index, const Threads& threads,
               size_t count) {
  Tally tally;
  count = std::min(count, in.queries.size());
  tally.samples.reserve(count);
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  for (size_t i = 0; i < count; ++i) {
    Sample s;
    const double start = Now();
    if (spec.engine == Engine::kSequential) {
      hgmatch::MatchOptions options;
      options.timeout_seconds = kSafetyTimeout;
      hgmatch::Result<hgmatch::MatchStats> r =
          hgmatch::MatchSequential(index, in.queries[i], options);
      s.ok = r.ok() && CountOk(in.expected[i], r.value());
    } else {
      hgmatch::ParallelOptions options;
      options.num_threads = threads.engine;
      options.timeout_seconds = kSafetyTimeout;
      hgmatch::Result<hgmatch::ParallelResult> r =
          hgmatch::MatchParallel(index, in.queries[i], options);
      s.ok = r.ok() && CountOk(in.expected[i], r.value().stats);
    }
    s.latency = Now() - start;
    tally.samples.push_back(s);
  }
  tally.seconds = Now() - t0;
  tally.cpu = CpuSeconds() - cpu0;
  return tally;
}

// Closed loop over the wire: every connection keeps one request
// outstanding, taking the next query of the (cyclic) submission sequence
// each time its previous one resolves, until `seconds` have passed and
// `min_samples` queries have completed.
class ServeLoop {
 public:
  ServeLoop(const Inputs& in, Deployment& d, bool trace)
      : in_(in), d_(d), trace_(trace), per_conn_(d.clients.size()) {}

  Tally Run(double seconds, uint64_t start_index, uint64_t min_samples) {
    next_ = start_index;
    stop_ = false;
    completed_ = 0;
    min_samples_ = min_samples;
    for (auto& v : per_conn_) v.clear();
    const double cpu0 = CpuSeconds();
    const double t0 = Now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      outstanding_ = d_.clients.size();
    }
    for (size_t c = 0; c < d_.clients.size(); ++c) SubmitNext(c);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop_ = true;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return outstanding_ == 0; });
    }
    Tally tally;
    tally.seconds = Now() - t0;
    tally.cpu = CpuSeconds() - cpu0;
    for (auto& v : per_conn_) {
      for (Sample& s : v) tally.samples.push_back(std::move(s));
    }
    return tally;
  }

  uint64_t next_index() const { return next_; }

 private:
  void Retire() {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    cv_.notify_all();
  }

  // Runs on the caller for the first submission of each connection and on
  // that connection's reader thread afterwards, so per_conn_[c] has one
  // writer at a time.
  void SubmitNext(size_t c) {
    if (stop_ && completed_ >= min_samples_) {
      Retire();
      return;
    }
    const size_t qi = next_++ % in_.queries.size();
    hgmatch::SubmitOptions options;
    options.timeout_seconds = kSafetyTimeout;
    options.trace = trace_;
    const double start = Now();
    const double mono = hgmatch::MonotonicSeconds();
    hgmatch::Result<uint64_t> id = d_.clients[c]->Submit(
        in_.queries[qi], options,
        [this, c, qi, start, mono](const hgmatch::AsyncOutcome& out) {
          Sample s;
          s.latency = Now() - start;
          s.repeat = in_.expected[qi].repeat;
          s.client_submit = mono;
          s.ok = out.transport.ok() &&
                 out.wire.outcome.status == hgmatch::QueryStatus::kOk &&
                 CountOk(in_.expected[qi], out.wire.outcome.stats);
          if (out.transport.ok()) s.span = out.wire.outcome.span;
          per_conn_[c].push_back(std::move(s));
          ++completed_;
          if (out.transport.ok()) {
            SubmitNext(c);
          } else {
            Retire();
          }
        });
    if (!id.ok()) {
      Sample s;
      per_conn_[c].push_back(s);
      Retire();
    }
  }

  const Inputs& in_;
  Deployment& d_;
  const bool trace_;
  std::vector<std::vector<Sample>> per_conn_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> min_samples_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

// Transfer counters summed over the deployment's client connections.
hgmatch::ClientTransferStats Transferred(const Deployment& d) {
  hgmatch::ClientTransferStats sum;
  for (const auto& c : d.clients) {
    const hgmatch::ClientTransferStats t = c->TransferStats();
    sum.frames_sent += t.frames_sent;
    sum.bytes_sent += t.bytes_sent;
    sum.frames_received += t.frames_received;
    sum.bytes_received += t.bytes_received;
  }
  return sum;
}

// ------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": ", i ? ", " : "",
                  metrics[i].name.c_str());
    out += buf;
    // Non-finite values (a failed query's latency) print as null.
    std::snprintf(buf, sizeof(buf), "%.9g, ", metrics[i].value);
    out += std::isfinite(metrics[i].value) ? buf : "null, ";
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// Percentile summary with its sample support, for the human-readable notes.
// Samples above the nearest-rank q-percentile of n samples.
size_t Beyond(size_t n, double q) {
  return n - std::min(static_cast<size_t>(std::ceil(q * n)), n);
}

std::string PercentileNote(const char* name, const std::vector<double>& v,
                           double q) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"value_ms\": %.6g, \"samples\": %zu, "
                "\"beyond\": %zu}",
                name, Percentile(v, q), v.size(), Beyond(v.size(), q));
  return buf;
}

// Span-derived per-layer times of traced wire or service samples.
struct SpanStats {
  std::vector<double> queue[2], run[2], resolve[2], deliver, overhead;

  void Add(const Sample& s, bool wire) {
    if (!s.ok || !s.span.enabled) return;
    const hgmatch::QuerySpan& sp = s.span;
    const int k = s.repeat ? 1 : 0;
    // A mirror carries its canonical's execution stamps; only a query's
    // own execution contributes queue and run time.
    const bool own = sp.submit_seconds >= s.client_submit;
    if (own && sp.admit_seconds > 0) {
      queue[k].push_back((sp.admit_seconds - sp.submit_seconds) * 1e3);
    }
    if (own && sp.first_task_seconds > 0 && sp.last_task_seconds > 0) {
      run[k].push_back((sp.last_task_seconds - sp.first_task_seconds) * 1e3);
    }
    if (sp.resolve_seconds > 0) {
      const double from = std::max(sp.last_task_seconds, s.client_submit);
      resolve[k].push_back((sp.resolve_seconds - from) * 1e3);
    }
    if (wire && sp.deliver_seconds > 0 && sp.resolve_seconds > 0) {
      deliver.push_back((sp.deliver_seconds - sp.resolve_seconds) * 1e3);
      const double server_side = sp.deliver_seconds - sp.submit_seconds;
      if (own) overhead.push_back((s.latency - server_side) * 1e3);
    }
  }

  void Emit(std::vector<Metric>* m) const {
    const char* split[2] = {"fresh", "repeat"};
    for (int k = 0; k < 2; ++k) {
      m->push_back({std::string("service.queue_ms.") + split[k],
                    Median(queue[k]), "ms"});
      m->push_back({std::string("service.run_ms.") + split[k], Median(run[k]),
                    "ms"});
      m->push_back({std::string("service.resolve_ms.") + split[k],
                    Median(resolve[k]), "ms"});
    }
    m->push_back({"wire.deliver_ms", Median(deliver), "ms"});
    m->push_back({"wire.overhead_ms", Median(overhead), "ms"});
  }
};

// The queries the layer probes visit.
std::vector<size_t> ProbeSet(const WorkloadSpec& spec, const Inputs& in) {
  size_t n = in.queries.size();
  if (spec.probe_queries > 0) n = std::min<size_t>(n, spec.probe_queries);
  std::vector<size_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

// Per-layer probes of a traced run (each times calls into one module's
// public functions from the benchmark's side).
void ProbeLayers(const WorkloadSpec& spec, const Inputs& in,
                 const IndexedHypergraph& index, const Threads& threads,
                 const Tally& untraced, const Tally& traced,
                 const Tally* wire_traced,
                 const hgmatch::ClientTransferStats& wire_bytes,
                 std::vector<Metric>* m, bool* ok) {
  const std::vector<size_t> ids = ProbeSet(spec, in);

  // core.expand: the benchmark's own DFS over Expander::Expand, run twice
  // over the fresh probe queries, each query once without and once with
  // timing every Expand call (in alternating order, so that drift of the
  // host cancels). The counts come from the first round's timed runs and
  // must repeat exactly in the second. The enum engines have no tracing of
  // their own, so there trace.overhead is this timing's cost: the timed
  // runs' qps over the untimed runs'.
  DfsResult sum;
  double untimed_s = 0, timed_s = 0, expand_s = 0, timed_calls = 0;
  for (int round = 0; round < 2; ++round) {
    DfsResult p;
    for (size_t k = 0; k < ids.size(); ++k) {
      const size_t i = ids[k];
      if (in.expected[i].repeat) continue;
      hgmatch::Result<hgmatch::QueryPlan> plan =
          hgmatch::BuildQueryPlan(in.queries[i], index);
      if (!plan.ok()) {
        *ok = false;
        continue;
      }
      for (size_t variant = 0; variant < 2; ++variant) {
        const bool timed = (variant + k + round) % 2 == 1;
        const DfsResult r = RunDfs(index, plan.value(), 0, timed);
        if (r.embeddings != in.expected[i].embeddings) *ok = false;
        if (!timed) {
          untimed_s += r.seconds;
          continue;
        }
        timed_s += r.seconds;
        expand_s += r.expand_seconds;
        timed_calls += double(r.calls);
        p.calls += r.calls;
        p.candidates += r.candidates;
        p.filtered += r.filtered;
        p.valid += r.valid;
        p.embeddings += r.embeddings;
      }
    }
    if (round == 0) {
      sum = p;
    } else if (p.calls != sum.calls || p.candidates != sum.candidates ||
               p.filtered != sum.filtered || p.valid != sum.valid) {
      *ok = false;
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  m->push_back({"expand.calls", double(sum.calls), "count"});
  m->push_back({"expand.candidates", double(sum.candidates), "count"});
  m->push_back({"expand.filtered", double(sum.filtered), "count"});
  m->push_back({"expand.embeddings", double(sum.embeddings), "count"});
  m->push_back({"expand.filter_ratio",
                ratio(double(sum.filtered), double(sum.candidates)), "ratio"});
  m->push_back({"expand.valid_ratio",
                ratio(double(sum.valid), double(sum.filtered)), "ratio"});
  m->push_back({"expand.ns_per_call", ratio(expand_s * 1e9, timed_calls),
                "ns"});
  m->push_back({"expand.share", ratio(expand_s, timed_s), "ratio"});

  // core.plan and core.canonical: repeated until each measures >= 20 ms.
  auto per_query_us = [&](auto&& fn) {
    double elapsed = 0;
    uint64_t calls = 0;
    while (elapsed < 0.02) {
      const double t0 = Now();
      for (size_t i : ids) fn(in.queries[i]);
      elapsed += Now() - t0;
      calls += ids.size();
    }
    return elapsed * 1e6 / double(calls);
  };
  m->push_back({"plan.us_per_query", per_query_us([&](const Hypergraph& q) {
                  (void)hgmatch::BuildQueryPlan(q, index);
                }),
                "us"});
  m->push_back({"canonical.us_per_query",
                per_query_us([&](const Hypergraph& q) {
                  (void)hgmatch::CanonicalQueryKey(q);
                }),
                "us"});

  // ladder: the probe set through ExecutePlanSequential, an in-process
  // MatchService, then the loopback wire — one query outstanding each.
  std::vector<double> seq_ms;
  for (size_t i : ids) {
    const double t0 = Now();
    hgmatch::Result<hgmatch::QueryPlan> plan =
        hgmatch::BuildQueryPlan(in.queries[i], index);
    hgmatch::MatchOptions options;
    options.timeout_seconds = kSafetyTimeout;
    if (!plan.ok() ||
        !CountOk(in.expected[i], hgmatch::ExecutePlanSequential(
                                     index, plan.value(), options, nullptr))) {
      *ok = false;
    }
    seq_ms.push_back((Now() - t0) * 1e3);
  }

  const uint32_t workers =
      spec.engine == Engine::kServe ? threads.engine : threads.pool;
  SpanStats service_spans;
  std::vector<double> service_ms;
  hgmatch::ServiceReport report;
  {
    hgmatch::ServiceOptions options =
        MakeServerOptions(workers, 1).service;
    hgmatch::MatchService service(index, options);
    for (size_t i : ids) {
      hgmatch::SubmitOptions so;
      so.timeout_seconds = kSafetyTimeout;
      so.trace = true;
      Sample s;
      s.repeat = in.expected[i].repeat;
      s.client_submit = hgmatch::MonotonicSeconds();
      const double t0 = Now();
      const hgmatch::QueryOutcome& out =
          service.SubmitBorrowed(in.queries[i], so).Wait();
      s.latency = Now() - t0;
      s.ok = out.status == hgmatch::QueryStatus::kOk &&
             CountOk(in.expected[i], out.stats);
      s.span = out.span;
      if (!s.ok) *ok = false;
      service_ms.push_back(s.latency * 1e3);
      service_spans.Add(s, false);
    }
    report = service.Shutdown();
  }

  std::vector<double> wire_ms;
  SpanStats wire_spans;
  hgmatch::ClientTransferStats bytes;
  uint64_t wire_queries = 0;
  {
    hgmatch::MatchServer server(index, MakeServerOptions(workers, 1));
    hgmatch::AsyncClientOptions copts;
    copts.request_features = hgmatch::kFeatureTrace;
    hgmatch::AsyncMatchClient client(copts);
    if (!server.Start().ok() ||
        !client.Connect("127.0.0.1", server.port()).ok()) {
      *ok = false;
    } else {
      for (size_t i : ids) {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        Sample s;
        s.repeat = in.expected[i].repeat;
        hgmatch::SubmitOptions so;
        so.timeout_seconds = kSafetyTimeout;
        so.trace = true;
        s.client_submit = hgmatch::MonotonicSeconds();
        const double t0 = Now();
        hgmatch::Result<uint64_t> id = client.Submit(
            in.queries[i], so, [&](const hgmatch::AsyncOutcome& out) {
              std::lock_guard<std::mutex> lock(mu);
              s.latency = Now() - t0;
              s.ok = out.transport.ok() &&
                     out.wire.outcome.status == hgmatch::QueryStatus::kOk &&
                     CountOk(in.expected[i], out.wire.outcome.stats);
              if (out.transport.ok()) s.span = out.wire.outcome.span;
              done = true;
              cv.notify_all();
            });
        if (id.ok()) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done; });
        }
        if (!s.ok) *ok = false;
        wire_ms.push_back(s.latency * 1e3);
        wire_spans.Add(s, true);
      }
      bytes = client.TransferStats();
      wire_queries = ids.size();
      client.Close();
    }
    server.Stop();
  }
  auto mean = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return v.empty() ? 0 : total / double(v.size());
  };
  m->push_back({"ladder.seq_ms", mean(seq_ms), "ms"});
  m->push_back({"ladder.service_ms", mean(service_ms), "ms"});
  m->push_back({"ladder.wire_ms", mean(wire_ms), "ms"});

  // parallel.service and net: from the loaded traced segments on serve
  // workloads, from the ladder's service and wire rungs otherwise.
  const double submissions = double(std::max<uint64_t>(1, report.submitted));
  m->push_back({"service.hit_ratio",
                double(report.plan_cache_hits) / submissions, "ratio"});
  m->push_back({"service.mirrored_ratio",
                double(report.mirrored) / submissions, "ratio"});
  if (wire_traced != nullptr) {
    SpanStats loaded;
    for (const Sample& s : wire_traced->samples) loaded.Add(s, true);
    loaded.Emit(m);
    bytes = wire_bytes;
    wire_queries = wire_traced->attempted();
  } else {
    SpanStats merged = service_spans;
    merged.deliver = wire_spans.deliver;
    merged.overhead = wire_spans.overhead;
    merged.Emit(m);
  }
  const double wq = double(std::max<uint64_t>(1, wire_queries));
  m->push_back({"wire.bytes_per_query",
                double(bytes.bytes_sent + bytes.bytes_received) / wq, "B"});
  m->push_back({"wire.frames_per_query",
                double(bytes.frames_sent + bytes.frames_received) / wq,
                "count"});

  // parallel.scheduler: the fresh probe queries through MatchParallel on
  // the pool; speedup is the ladder's sequential time over this.
  double busy = 0, capacity = 0, par_seconds = 0, seq_seconds = 0;
  uint64_t tasks = 0, steals = 0, peak = 0, queries = 0;
  for (size_t k = 0; k < ids.size(); ++k) {
    const size_t i = ids[k];
    if (in.expected[i].repeat) continue;
    hgmatch::ParallelOptions options;
    options.num_threads = threads.pool;
    options.timeout_seconds = kSafetyTimeout;
    const double t0 = Now();
    hgmatch::Result<hgmatch::ParallelResult> r =
        hgmatch::MatchParallel(index, in.queries[i], options);
    const double wall = Now() - t0;
    if (!r.ok() || !CountOk(in.expected[i], r.value().stats)) {
      *ok = false;
      continue;
    }
    par_seconds += wall;
    seq_seconds += seq_ms[k] / 1e3;
    for (const hgmatch::WorkerReport& w : r.value().workers) {
      busy += w.busy_seconds;
      tasks += w.tasks_executed;
      steals += w.steals;
    }
    capacity += double(r.value().workers.size()) * r.value().stats.seconds;
    peak = std::max(peak, r.value().peak_task_bytes);
    ++queries;
  }
  const double nq = double(std::max<uint64_t>(1, queries));
  m->push_back({"sched.busy_share", ratio(busy, capacity), "ratio"});
  m->push_back({"sched.tasks_per_query", double(tasks) / nq, "count"});
  m->push_back({"sched.steals_per_query", double(steals) / nq, "count"});
  m->push_back({"sched.peak_task_kb", double(peak) / 1024, "KB"});
  m->push_back({"sched.speedup", ratio(seq_seconds, par_seconds), "x"});

  // A query whose first step matches nothing: pure pool start and join.
  Hypergraph empty;
  const hgmatch::Label absent =
      static_cast<hgmatch::Label>(index.graph().NumLabels() + 1);
  empty.AddVertex(absent);
  empty.AddVertex(absent);
  (void)empty.AddEdge({0, 1});
  std::vector<double> empty_ms;
  for (int rep = 0; rep < 200; ++rep) {
    hgmatch::ParallelOptions options;
    options.num_threads = threads.pool;
    const double t0 = Now();
    hgmatch::Result<hgmatch::ParallelResult> r =
        hgmatch::MatchParallel(index, empty, options);
    empty_ms.push_back((Now() - t0) * 1e3);
    if (!r.ok() || r.value().stats.embeddings != 0) *ok = false;
  }
  m->push_back({"sched.empty_query_ms", Median(empty_ms), "ms"});

  // Traced qps over untraced qps: of the loaded segments on serve
  // workloads, of the expand passes above on the enum workloads.
  m->push_back({"trace.overhead",
                wire_traced != nullptr ? ratio(traced.Qps(), untraced.Qps())
                                       : ratio(untimed_s, timed_s),
                "ratio"});
}

}  // namespace

int RunWorkload(const WorkloadSpec& spec, const std::string& dir,
                double seconds, bool trace, bool setup_only) {
  const Threads threads = ThreadsFor(spec);
  if (setup_only) {
    // setup_reps set-ups, each torn down before the next begins.
    std::string setup, load, build;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      Deployment d;
      if (!SetUp(spec, dir, threads, false, &d)) {
        std::fprintf(stderr, "set-up failed\n");
        return 3;
      }
      const char* sep = rep ? ", " : "";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.9g", sep, d.setup_s);
      setup += buf;
      std::snprintf(buf, sizeof(buf), "%s%.9g", sep, d.load_s);
      load += buf;
      std::snprintf(buf, sizeof(buf), "%s%.9g", sep, d.build_s);
      build += buf;
    }
    std::printf("{\"procs\": %d, \"setup_s\": [%s], \"load_s\": [%s], "
                "\"index_build_s\": [%s]}\n",
                spec.setup_procs, setup.c_str(), load.c_str(), build.c_str());
    return 0;
  }
  Inputs in;
  if (!LoadInputs(dir, &in)) {
    std::fprintf(stderr, "cannot load inputs from %s\n", dir.c_str());
    return 2;
  }
  Deployment d;
  if (!SetUp(spec, dir, threads, trace, &d)) {
    std::fprintf(stderr, "set-up failed\n");
    return 3;
  }
  const double setup_s = d.setup_s;
  const IndexedHypergraph& index = *d.index;
  // Warm-up (untimed): the first queries of the set, so lazy set-up and
  // allocator growth are not charged to the timed phase. Its outcomes are
  // checked all the same.
  Tally warm, untraced, traced;
  std::optional<ServeLoop> loop;
  hgmatch::ClientTransferStats wire_bytes;
  if (spec.engine == Engine::kServe) {
    loop.emplace(in, d, false);
    warm = loop->Run(std::min(1.0, seconds / 10), 0, 0);
    uint64_t cursor = loop->next_index();
    if (!trace) {
      untraced = loop->Run(seconds, cursor, spec.min_samples);
    } else {
      // Alternate untraced and traced segments on the same connections.
      ServeLoop traced_loop(in, d, true);
      for (int seg = 0; seg < 4; ++seg) {
        if (seg % 2 == 0) {
          untraced.Add(loop->Run(seconds / 4, cursor, 0));
          cursor = loop->next_index();
        } else {
          const hgmatch::ClientTransferStats before = Transferred(d);
          traced.Add(traced_loop.Run(seconds / 4, cursor, 0));
          cursor = traced_loop.next_index();
          const hgmatch::ClientTransferStats after = Transferred(d);
          wire_bytes.bytes_sent += after.bytes_sent - before.bytes_sent;
          wire_bytes.bytes_received +=
              after.bytes_received - before.bytes_received;
          wire_bytes.frames_sent += after.frames_sent - before.frames_sent;
          wire_bytes.frames_received +=
              after.frames_received - before.frames_received;
        }
      }
    }
  } else {
    warm = EnumPass(spec, in, index, threads, 3);
    // Whole passes until the time and the sample floor are both met.
    while (untraced.seconds < seconds ||
           untraced.attempted() < (trace ? 1 : spec.min_samples)) {
      untraced.Add(EnumPass(spec, in, index, threads, in.queries.size()));
    }
  }

  std::vector<Metric> metrics;
  bool ok = warm.failed() == 0 && untraced.failed() == 0 &&
            traced.failed() == 0;
  const std::vector<double> lat = untraced.LatenciesMs();
  const uint64_t completed = untraced.attempted() - untraced.failed();
  if (!trace && Beyond(lat.size(), spec.tail) < 10) {
    std::fprintf(stderr, "tail percentile has fewer than 10 samples beyond\n");
    ok = false;
  }
  if (!trace) {
    metrics.push_back({"qps", untraced.Qps(), "1/s"});
    metrics.push_back({"p50_ms", Percentile(lat, 0.5), "ms"});
    metrics.push_back({"tail_ms", Percentile(lat, spec.tail), "ms"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    metrics.push_back(
        {"cpu_ms_per_query",
         untraced.cpu * 1e3 / double(std::max<uint64_t>(1, completed)),
         "ms"});
  } else {
    metrics.push_back({"load_s", d.load_s, "s"});
    metrics.push_back({"index_build_s", d.build_s, "s"});
    metrics.push_back({"index_mb", double(index.IndexBytes()) / 1e6, "MB"});
    ProbeLayers(spec, in, index, threads, untraced, traced,
                spec.engine == Engine::kServe ? &traced : nullptr, wire_bytes,
                &metrics, &ok);
  }

  uint64_t fresh = 0;
  for (const ExpectedQuery& e : in.expected) fresh += e.repeat ? 0 : 1;
  std::printf(
      "{\"workload\": \"%s\", \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
      "\"percentiles\": {%s, %s}, "
      "\"env\": {\"nproc\": %u, \"engine_threads\": %u, \"io_threads\": %u, "
      "\"connections\": %u, \"setup_procs\": %d, \"setup_reps\": %d, "
      "\"compiler\": \"%s\", "
      "\"build_type\": \"%s\", "
      "\"index_bytes\": %llu, \"queries\": %zu, \"fresh\": %llu, "
      "\"repeats\": %llu, \"timed_s\": %.3f, \"inputs\": %s}}\n",
      spec.name.c_str(), trace ? 1 : 0, ok ? "true" : "false",
      static_cast<unsigned long long>(untraced.attempted() +
                                      traced.attempted()),
      static_cast<unsigned long long>(untraced.failed() + traced.failed()),
      Json(metrics).c_str(),
      PercentileNote("p50", lat, 0.5).c_str(),
      PercentileNote(spec.tail >= 0.99 ? "p99" : "p90", lat, spec.tail)
          .c_str(),
      threads.nproc, threads.engine, threads.io, threads.connections,
      spec.setup_procs, spec.setup_reps, kCompiler, HGBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(index.IndexBytes()), in.queries.size(),
      static_cast<unsigned long long>(fresh),
      static_cast<unsigned long long>(in.queries.size() - fresh),
      untraced.seconds + traced.seconds,
      in.manifest.empty() ? "{}" : in.manifest.c_str());
  return 0;
}

}  // namespace hgbench
