#include "driver/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "core/candidates.h"

namespace hgbench {

using hgmatch::kQ2;
using hgmatch::kQ3;

namespace {

std::vector<uint32_t> Uniform(size_t buckets, uint32_t per_bucket) {
  return std::vector<uint32_t>(buckets, per_bucket);
}

}  // namespace

bool FindWorkload(const std::string& name, bool smoke, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "enum-seq") {
    // SB q2 at full scale: 2 labels, arity up to 99, 40-270 ms per query.
    // Quotas follow the natural bucket shares of 4000 sampled queries.
    s.profile = "SB";
    s.classes = {{kQ2, 38, {4, 8, 1, 7, 10, 13, 7}}};
    s.engine = Engine::kSequential;
    s.tail = 0.90;
    s.min_samples = 100;
    s.setup_procs = 40;
    s.setup_reps = 2;
    s.probe_queries = 12;
    if (smoke) {
      s.scale = 0.05;
      s.classes = {{kQ2, 0, Uniform(60, 1)}};
      s.min_samples = 100;
      s.setup_procs = 2;
      s.setup_reps = 2;
      s.probe_queries = 3;
    }
  } else if (name == "enum-par") {
    // AR q3 at the profile's default 1/16 scale (156 MB index). Equal
    // quotas over 27 half-octaves: costs from 0.02 ms to tens of ms.
    s.profile = "AR";
    s.scale = 1.0 / 16;
    s.classes = {{kQ3, 11, Uniform(27, 12)}};
    s.engine = Engine::kParallel;
    s.tail = 0.90;
    s.min_samples = 100;
    s.setup_procs = 3;
    s.setup_reps = 2;
    s.probe_queries = 0;
    if (smoke) {
      s.scale = 1.0 / 1024;
      s.classes = {{kQ3, 0, Uniform(60, 1)}};
      s.min_samples = 100;
      s.setup_procs = 2;
      s.setup_reps = 2;
    }
  } else if (name == "serve-mix") {
    // WT q2 + q3 (sequential p50 0.02-0.04 ms), half fresh, half repeats.
    // Quotas follow the natural symmetry shares of 4000 sampled queries per
    // class (bucket 12 holds everything from 12 bits up); matching cost is
    // capped at ~0.5 ms.
    s.profile = "WT";
    s.classes = {{kQ2, 0, {10, 25, 41, 23, 27, 24, 21, 21, 6, 23, 12, 8, 99}},
                 {kQ3, 0, {1, 5, 11, 16, 18, 18, 16, 21, 15, 19, 20, 13, 170}}};
    s.engine = Engine::kServe;
    s.stratum = Stratum::kSymmetry;
    s.work_cap_bucket = 26;
    s.repeats = true;
    s.tail = 0.99;
    s.min_samples = 1000;
    s.setup_procs = 16;
    s.setup_reps = 2;
    s.probe_queries = 0;
    if (smoke) {
      s.scale = 0.02;
      s.classes = {{kQ2, 0, Uniform(60, 1)}, {kQ3, 0, Uniform(60, 1)}};
      s.tail = 0.90;
      s.min_samples = 100;
      s.setup_procs = 2;
      s.setup_reps = 2;
    }
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

DfsResult RunDfs(const hgmatch::IndexedHypergraph& data,
                 const hgmatch::QueryPlan& plan, double work_cap,
                 bool time_expand) {
  using hgmatch::EdgeId;
  DfsResult r;
  const double start = Now();
  const uint32_t n = plan.NumSteps();
  hgmatch::Expander expander(data, plan);
  hgmatch::MatchStats stats;
  std::vector<std::vector<EdgeId>> level(n);
  std::vector<size_t> cursor(n, 0);
  std::vector<EdgeId> embedding(n, hgmatch::kInvalidEdge);
  std::vector<uint32_t> arity(n);
  for (uint32_t i = 0; i < n; ++i) {
    arity[i] = plan.query->arity(plan.steps[i].query_edge);
  }

  auto expand = [&](uint32_t step) {
    const uint64_t before = stats.candidates;
    if (time_expand) {
      const double t0 = Now();
      expander.Expand(embedding.data(), step, &level[step], &stats);
      r.expand_seconds += Now() - t0;
    } else {
      expander.Expand(embedding.data(), step, &level[step], &stats);
    }
    ++r.calls;
    r.valid += level[step].size();
    if (work_cap > 0) {
      double postings = 0;
      for (const auto& adj : plan.steps[step].adjacent_prev) {
        for (hgmatch::VertexId v : data.graph().edge(embedding[adj.step])) {
          postings += data.Postings(plan.steps[step].signature, v).size();
        }
      }
      r.work += static_cast<double>(stats.candidates - before) * arity[step] +
                0.3 * postings + 10;
      if (r.work > work_cap) r.capped = true;
    }
  };

  expand(0);
  int depth = 0;
  while (depth >= 0 && !r.capped) {
    if (cursor[depth] >= level[depth].size()) {
      cursor[depth] = 0;
      level[depth].clear();
      --depth;
      continue;
    }
    embedding[depth] = level[depth][cursor[depth]++];
    if (static_cast<uint32_t>(depth) + 1 == n) {
      ++r.embeddings;
    } else {
      ++depth;
      expand(static_cast<uint32_t>(depth));
      cursor[depth] = 0;
    }
  }
  r.candidates = stats.candidates;
  r.filtered = stats.filtered;
  r.seconds = Now() - start;
  return r;
}

int WorkBucket(double work) {
  return static_cast<int>(std::floor(2.0 * std::log2(work + 1.0)));
}

double SymmetryBits(const hgmatch::Hypergraph& q) {
  std::map<std::pair<hgmatch::Label, hgmatch::EdgeSet>, int> twins;
  for (hgmatch::VertexId v = 0; v < q.NumVertices(); ++v) {
    ++twins[{q.label(v), q.incident(v)}];
  }
  double bits = 0;
  for (const auto& [key, n] : twins) bits += std::lgamma(n + 1.0);
  return bits / std::log(2.0);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string DataPath(const std::string& dir) { return dir + "/data.hgb"; }
std::string QueriesPath(const std::string& dir) {
  return dir + "/queries.hgq";
}
std::string ExpectedPath(const std::string& dir) {
  return dir + "/expected.tsv";
}
std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.json";
}
std::string PoolCountsPath(const std::string& dir) {
  return dir + "/pool.tsv";
}
std::string PoolDataPath(const std::string& dir) { return dir + "/data.txt"; }

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace hgbench
