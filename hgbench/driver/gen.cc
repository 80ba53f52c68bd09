// Inputs of the benchmark, in two steps.
//
// A query pool (`hgbench_driver pool`) is made once per workload and kept
// in the repository under hgbench/pools/: a cost-stratified query set
// sampled from the workload's data hypergraph, each query's expected
// embedding count from the sequential engine (which the benchmark's own DFS
// must match, and the brute-force oracle too wherever it can afford the
// query), and the sizes and checksum of the data hypergraph the counts hold
// for.
//
// Input generation for a run (`hgbench_driver gen`) regenerates the data
// hypergraph, refuses it when its checksum differs from the pool's, checks
// a seeded few of the pool's small queries against the oracle again, and
// lets the seed order the pool's queries (and, on serve workloads, draw
// their renamed repeats). So every commit runs the same queries against
// the same counts, whatever its kernel or planner does. Both steps run
// before the measured process, so none of this is set-up time.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/canonical.h"
#include "core/hgmatch.h"
#include "core/reference.h"
#include "core/signature.h"
#include "driver/common.h"
#include "gen/dataset_profiles.h"
#include "io/binary_format.h"
#include "io/loader.h"
#include "io/writer.h"
#include "util/rng.h"

namespace hgbench {

namespace {

using hgmatch::Hypergraph;
using hgmatch::IndexedHypergraph;

// Candidate queries examined at most per class while filling quotas.
constexpr uint64_t kMaxCandidates = 4000;
// Repeats copy the fresh queries of the previous block of this many: close
// enough to hit the server's bounded plan cache, never a query cached a
// whole cycle earlier.
constexpr size_t kRepeatWindow = 8;
// Brute-force search spaces (OracleCost) within which the pool checks every
// query, and from which each run draws its seeded re-check.
constexpr double kPoolOracleBudget = 1e7;
constexpr double kRunOracleBudget = 2e6;
constexpr size_t kRunOracleQueries = 3;

// Runs fn(i) for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, uint32_t threads, Fn fn) {
  std::atomic<size_t> next{0};
  auto body = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  const size_t extra = std::min<size_t>(threads, n);
  for (size_t t = 1; t < extra; ++t) pool.emplace_back(body);
  body();
  for (std::thread& t : pool) t.join();
}

// FNV-1a over the vertex labels and the labelled hyperedges, in id order.
uint64_t DataChecksum(const Hypergraph& g) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.NumVertices());
  for (hgmatch::VertexId v = 0; v < g.NumVertices(); ++v) mix(g.label(v));
  mix(g.NumEdges());
  for (hgmatch::EdgeId e = 0; e < g.NumEdges(); ++e) {
    mix(g.edge_label(e));
    mix(g.edge(e).size());
    for (hgmatch::VertexId v : g.edge(e)) mix(v);
  }
  return h;
}

// What a pool records about the data hypergraph its counts hold for.
struct DataFacts {
  std::string profile;
  double scale = 0;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t incidences = 0;
  uint64_t checksum = 0;

  bool operator==(const DataFacts& o) const {
    return profile == o.profile && scale == o.scale &&
           vertices == o.vertices && edges == o.edges &&
           incidences == o.incidences && checksum == o.checksum;
  }
};

bool GenerateData(const WorkloadSpec& spec, Hypergraph* data,
                  DataFacts* facts) {
  const hgmatch::DatasetProfile* profile =
      hgmatch::FindDatasetProfile(spec.profile);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown profile %s\n", spec.profile.c_str());
    return false;
  }
  *data = profile->Generate(spec.scale);
  facts->profile = spec.profile;
  facts->scale = spec.scale;
  facts->vertices = data->NumVertices();
  facts->edges = data->NumEdges();
  facts->incidences = data->NumIncidences();
  facts->checksum = DataChecksum(*data);
  return true;
}

// One query of a pool.
struct PoolQuery {
  Hypergraph query;
  std::string cls;
  double work = 0;  // DfsResult::work when the pool was made
  uint64_t expected = 0;
  bool oracle = false;  // checked against the brute-force oracle
};

bool WritePool(const std::string& dir, const DataFacts& facts,
               const std::vector<PoolQuery>& pool) {
  std::string queries, counts;
  for (size_t i = 0; i < pool.size(); ++i) {
    const PoolQuery& p = pool[i];
    queries += "# query " + std::to_string(i) + "\n" +
               hgmatch::FormatHypergraph(p.query);
    char line[128];
    std::snprintf(line, sizeof(line), "%llu\t%s\t%.6g\t%d\n",
                  static_cast<unsigned long long>(p.expected), p.cls.c_str(),
                  p.work, p.oracle ? 1 : 0);
    counts += line;
  }
  std::ofstream(QueriesPath(dir)) << queries;
  std::ofstream(PoolCountsPath(dir)) << counts;
  std::ofstream data(PoolDataPath(dir));
  char scale[32], checksum[32];
  std::snprintf(scale, sizeof(scale), "%.17g", facts.scale);
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64, facts.checksum);
  data << "profile " << facts.profile << "\n"
       << "scale " << scale << "\n"
       << "vertices " << facts.vertices << "\n"
       << "edges " << facts.edges << "\n"
       << "incidences " << facts.incidences << "\n"
       << "checksum " << checksum << "\n";
  return static_cast<bool>(data);
}

bool ReadPool(const std::string& dir, DataFacts* facts,
              std::vector<PoolQuery>* pool) {
  std::ifstream data(PoolDataPath(dir));
  std::string key, value;
  while (data >> key >> value) {
    if (key == "profile") facts->profile = value;
    if (key == "scale") facts->scale = std::strtod(value.c_str(), nullptr);
    if (key == "vertices") facts->vertices = std::stoull(value);
    if (key == "edges") facts->edges = std::stoull(value);
    if (key == "incidences") facts->incidences = std::stoull(value);
    if (key == "checksum") facts->checksum = std::stoull(value, nullptr, 16);
  }
  hgmatch::Result<std::vector<Hypergraph>> queries =
      hgmatch::LoadQuerySet(QueriesPath(dir));
  if (!queries.ok() || facts->checksum == 0) {
    std::fprintf(stderr, "no query pool in %s\n", dir.c_str());
    return false;
  }
  std::ifstream counts(PoolCountsPath(dir));
  std::string line;
  for (Hypergraph& q : queries.value()) {
    if (!std::getline(counts, line)) break;
    PoolQuery p;
    int oracle = 0;
    std::istringstream(line) >> p.expected >> p.cls >> p.work >> oracle;
    p.oracle = oracle != 0;
    p.query = std::move(q);
    pool->push_back(std::move(p));
  }
  if (pool->size() != queries.value().size() || pool->empty()) {
    std::fprintf(stderr, "query pool in %s is inconsistent\n", dir.c_str());
    return false;
  }
  return true;
}

// A renamed, edge-reordered copy: isomorphic to `q`, so it has the same
// embedding count, but neither its vertex ids nor its edge order match.
Hypergraph Renamed(const Hypergraph& q, SeedRng* rng) {
  const size_t n = q.NumVertices();
  std::vector<hgmatch::VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  std::vector<hgmatch::Label> labels(n);
  for (size_t v = 0; v < n; ++v) labels[perm[v]] = q.label(v);
  Hypergraph out;
  for (hgmatch::Label l : labels) out.AddVertex(l);
  std::vector<hgmatch::EdgeId> order(q.NumEdges());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  for (hgmatch::EdgeId e : order) {
    hgmatch::VertexSet vs;
    for (hgmatch::VertexId v : q.edge(e)) vs.push_back(perm[v]);
    (void)out.AddEdge(vs, q.edge_label(e));
  }
  return out;
}

// Product of the signature-table sizes of the query's hyperedges: an upper
// bound on the brute-force oracle's search.
double OracleCost(const IndexedHypergraph& index, const Hypergraph& q) {
  double cost = 1;
  for (hgmatch::EdgeId e = 0; e < q.NumEdges(); ++e) {
    const hgmatch::Partition* p =
        index.FindPartition(hgmatch::SignatureKeyOf(q, e));
    cost *= p == nullptr ? 0.0 : static_cast<double>(p->edges().size());
  }
  return cost;
}

// Checks the pool entries `ids` against the oracle; false on a mismatch.
bool OracleAgrees(const IndexedHypergraph& index,
                  const std::vector<PoolQuery>& pool,
                  const std::vector<size_t>& ids, uint32_t threads) {
  std::atomic<bool> ok{true};
  ParallelFor(ids.size(), threads, [&](size_t k) {
    const PoolQuery& p = pool[ids[k]];
    const uint64_t oracle =
        hgmatch::ReferenceEdgeTupleMatch(index, p.query).embeddings;
    if (oracle != p.expected) {
      std::fprintf(stderr, "pool query %zu: oracle %llu, expected %llu\n",
                   ids[k], static_cast<unsigned long long>(oracle),
                   static_cast<unsigned long long>(p.expected));
      ok = false;
    }
  });
  return ok;
}

}  // namespace

int MakePool(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             uint32_t threads) {
  Hypergraph generated;
  DataFacts facts;
  if (!GenerateData(spec, &generated, &facts)) return 2;
  const IndexedHypergraph index =
      IndexedHypergraph::Build(std::move(generated));
  const Hypergraph& data = index.graph();

  // Fill each class's bucket quotas from seeded candidate chunks.
  std::vector<PoolQuery> pool;
  std::vector<DfsResult> dfs;
  std::unordered_set<std::string> seen;
  for (size_t c = 0; c < spec.classes.size(); ++c) {
    const ClassSpec& cls = spec.classes[c];
    const bool by_work = spec.stratum == Stratum::kWork;
    const double cap = std::pow(
        2.0, ((by_work ? cls.hi_bucket() : spec.work_cap_bucket) + 1) / 2.0);
    std::map<int, uint32_t> quota;
    uint64_t need = 0;
    for (size_t i = 0; i < cls.quotas.size(); ++i) {
      quota[cls.lo_bucket + static_cast<int>(i)] = cls.quotas[i];
      need += cls.quotas[i];
    }
    std::map<int, uint32_t> histogram;
    uint64_t examined = 0;
    for (uint64_t chunk = 0; need > 0 && examined < kMaxCandidates; ++chunk) {
      std::vector<Hypergraph> candidates = hgmatch::SampleQueries(
          data, cls.settings, 64,
          hgmatch::Mix64(seed * 1000003 + c * 7919 + chunk));
      if (candidates.empty()) break;
      std::vector<DfsResult> results(candidates.size());
      std::vector<char> planned(candidates.size(), 0);
      ParallelFor(candidates.size(), threads, [&](size_t i) {
        hgmatch::Result<hgmatch::QueryPlan> plan =
            hgmatch::BuildQueryPlan(candidates[i], index);
        if (!plan.ok()) return;
        planned[i] = 1;
        results[i] = RunDfs(index, plan.value(), cap, false);
      });
      for (size_t i = 0; i < candidates.size() && need > 0; ++i) {
        ++examined;
        if (!planned[i] || results[i].capped) continue;
        const int b =
            by_work ? WorkBucket(results[i].work)
                    : std::min(static_cast<int>(SymmetryBits(candidates[i])),
                               cls.hi_bucket());
        ++histogram[b];
        auto it = quota.find(b);
        if (it == quota.end() || it->second == 0) continue;
        if (!seen.insert(hgmatch::CanonicalQueryKey(candidates[i]).key)
                 .second) {
          continue;
        }
        --it->second;
        --need;
        PoolQuery p;
        p.query = std::move(candidates[i]);
        p.cls = cls.settings.name;
        p.work = results[i].work;
        pool.push_back(std::move(p));
        dfs.push_back(results[i]);
      }
    }
    std::fprintf(stderr, "# %s %s: examined %llu candidates, %llu unfilled;",
                 spec.name.c_str(), cls.settings.name,
                 static_cast<unsigned long long>(examined),
                 static_cast<unsigned long long>(need));
    for (const auto& [b, n] : histogram) std::fprintf(stderr, " b%d:%u", b, n);
    std::fprintf(stderr, "\n");
  }

  // Expected counts from the sequential engine; the benchmark's own DFS
  // must agree with it.
  std::atomic<bool> agree{true};
  ParallelFor(pool.size(), threads, [&](size_t i) {
    hgmatch::Result<hgmatch::MatchStats> stats =
        hgmatch::MatchSequential(index, pool[i].query);
    if (!stats.ok() || stats.value().embeddings != dfs[i].embeddings) {
      agree = false;
      return;
    }
    pool[i].expected = stats.value().embeddings;
  });
  if (!agree) {
    std::fprintf(stderr, "sequential engine and DFS disagree\n");
    return 4;
  }

  // Every query the brute-force oracle can afford is checked against it.
  std::vector<size_t> affordable;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (OracleCost(index, pool[i].query) <= kPoolOracleBudget) {
      affordable.push_back(i);
    }
  }
  if (!OracleAgrees(index, pool, affordable, threads)) return 5;
  for (size_t i : affordable) pool[i].oracle = true;

  SeedRng rng(seed);
  rng.Shuffle(&pool);
  if (spec.repeats) pool.resize(pool.size() / kRepeatWindow * kRepeatWindow);
  if (pool.empty()) {
    std::fprintf(stderr, "no queries could be sampled\n");
    return 3;
  }
  if (!WritePool(dir, facts, pool)) return 6;
  std::fprintf(stderr, "# %s: %zu queries, %zu checked against the oracle\n",
               spec.name.c_str(), pool.size(),
               static_cast<size_t>(std::count_if(
                   pool.begin(), pool.end(),
                   [](const PoolQuery& p) { return p.oracle; })));
  return 0;
}

int GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& pool_dir, const std::string& dir,
                   uint32_t threads) {
  const double start = Now();
  DataFacts recorded;
  std::vector<PoolQuery> pool;
  if (!ReadPool(pool_dir, &recorded, &pool)) return 2;
  Hypergraph data;
  DataFacts facts;
  if (!GenerateData(spec, &data, &facts)) return 2;
  if (!(facts == recorded)) {
    std::fprintf(stderr,
                 "the %s data hypergraph (checksum %016" PRIx64
                 ") differs from the one the query pool in %s was made on "
                 "(%016" PRIx64
                 "), so the pool's expected counts do not hold; remake the "
                 "pools (hgbench/run.py --make-pools)\n",
                 spec.profile.c_str(), facts.checksum, pool_dir.c_str(),
                 recorded.checksum);
    return 7;
  }
  hgmatch::Status saved = hgmatch::SaveHypergraphBinary(data, DataPath(dir));
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 6;
  }

  // A seeded few of the small queries against the oracle once more.
  const IndexedHypergraph index = IndexedHypergraph::Build(std::move(data));
  SeedRng rng(seed * 0x9e3779b97f4a7c15ULL ^ 0x6867626e63680001ULL);
  std::vector<size_t> small;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (OracleCost(index, pool[i].query) <= kRunOracleBudget) {
      small.push_back(i);
    }
  }
  rng.Shuffle(&small);
  small.resize(std::min(small.size(), kRunOracleQueries));
  if (!OracleAgrees(index, pool, small, threads)) return 5;

  // The submission sequence: the pool in seeded order, each query followed
  // (serve workloads) by a renamed copy of a query of the previous block of
  // kRepeatWindow — cyclically, so every query is repeated exactly once, a
  // few queries after it ran, however the sequence is cycled.
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  std::vector<size_t> repeat_of;
  if (spec.repeats) {
    const size_t blocks = order.size() / kRepeatWindow;
    for (size_t k = 0; k < blocks; ++k) {
      std::vector<size_t> perm(kRepeatWindow);
      std::iota(perm.begin(), perm.end(), 0);
      rng.Shuffle(&perm);
      const size_t prev = (k + blocks - 1) % blocks;
      for (size_t p : perm) repeat_of.push_back(prev * kRepeatWindow + p);
    }
    if (blocks == 0 || repeat_of.size() != order.size()) {
      std::fprintf(stderr, "pool size is not a multiple of %zu\n",
                   kRepeatWindow);
      return 3;
    }
  }
  std::string queries_text;
  std::string expected_text;
  std::map<std::string, uint64_t> per_class;
  double work_total = 0;
  uint64_t repeats = 0, pool_oracle = 0;
  uint64_t index_in_file = 0;
  auto emit = [&](const Hypergraph& q, const PoolQuery& p, bool repeat) {
    queries_text += "# query " + std::to_string(index_in_file++) + "\n";
    queries_text += hgmatch::FormatHypergraph(q);
    expected_text += std::to_string(p.expected) + "\t" +
                     (repeat ? "repeat" : "fresh") + "\t" + p.cls + "\n";
  };
  for (size_t t = 0; t < order.size(); ++t) {
    const PoolQuery& p = pool[order[t]];
    emit(p.query, p, false);
    ++per_class[p.cls];
    work_total += p.work;
    pool_oracle += p.oracle ? 1 : 0;
    if (spec.repeats) {
      const PoolQuery& original = pool[order[repeat_of[t]]];
      emit(Renamed(original.query, &rng), original, true);
      ++repeats;
    }
  }
  std::ofstream(QueriesPath(dir)) << queries_text;
  std::ofstream(ExpectedPath(dir)) << expected_text;
  std::string classes;
  for (const auto& [name, n] : per_class) {
    classes += (classes.empty() ? "" : ", ") + ("\"" + name + "\": ") +
               std::to_string(n);
  }
  char manifest[1024];
  std::snprintf(
      manifest, sizeof(manifest),
      "{\"workload\": \"%s\", \"seed\": %llu, \"profile\": \"%s\", "
      "\"scale\": %.6g, \"vertices\": %zu, \"edges\": %zu, "
      "\"incidences\": %llu, \"data_checksum\": \"%016" PRIx64
      "\", \"fresh_per_class\": {%s}, \"fresh\": %zu, "
      "\"repeats\": %llu, \"pool_oracle_checked\": %llu, "
      "\"oracle_checked\": %zu, \"work_total\": %.6g, "
      "\"generate_s\": %.3f}\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed),
      spec.profile.c_str(), spec.scale, index.graph().NumVertices(),
      index.graph().NumEdges(),
      static_cast<unsigned long long>(index.graph().NumIncidences()),
      facts.checksum, classes.c_str(), order.size(),
      static_cast<unsigned long long>(repeats),
      static_cast<unsigned long long>(pool_oracle), small.size(), work_total,
      Now() - start);
  std::ofstream(ManifestPath(dir)) << manifest;
  return 0;
}

}  // namespace hgbench
