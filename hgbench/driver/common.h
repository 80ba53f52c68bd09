#ifndef HGBENCH_DRIVER_COMMON_H_
#define HGBENCH_DRIVER_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/indexed_hypergraph.h"
#include "core/matching_order.h"
#include "gen/query_gen.h"

namespace hgbench {

/// How the timed phase drives the queries of a workload.
enum class Engine {
  kSequential,  // MatchSequential, one query at a time
  kParallel,    // MatchParallel at nproc - 1 threads, one query at a time
  kServe,       // loopback MatchServer + nproc AsyncMatchClient connections
};

/// The query property a workload's query set is stratified by.
enum class Stratum {
  /// Half-octave bucket of the deterministic work estimate
  /// (DfsResult::work): what matching time tracks.
  kWork,
  /// Whole bits of symmetry (SymmetryBits): what the cost of canonical
  /// labelling (CanonicalQueryKey) tracks, which dominates a small query's
  /// way through the service. Queries above the top bucket join it.
  kSymmetry,
};

/// One query class of a workload and how its queries are stratified.
/// Candidate queries are binned by the workload's Stratum; the generator
/// fills quotas[i] queries into bucket lo_bucket + i and rejects the rest,
/// so every seed's query set has the same cost profile.
struct ClassSpec {
  hgmatch::QuerySettings settings;
  int lo_bucket = 0;
  std::vector<uint32_t> quotas;

  int hi_bucket() const {
    return lo_bucket + static_cast<int>(quotas.size()) - 1;
  }
};

/// A benchmark workload: data profile, query classes and engine.
struct WorkloadSpec {
  std::string name;
  std::string profile;  // gen/dataset_profiles.h abbreviation
  double scale = 1.0;
  std::vector<ClassSpec> classes;
  Engine engine = Engine::kSequential;
  Stratum stratum = Stratum::kWork;
  /// kSymmetry workloads: candidates whose work bucket exceeds this are
  /// dropped (kWork workloads drop those above their top quota bucket).
  int work_cap_bucket = 0;
  /// Serve workloads: every fresh query is followed by a renamed,
  /// edge-reordered copy of one of the last few fresh queries.
  bool repeats = false;
  /// Latency percentile reported as tail_ms (needs >= 10 samples beyond).
  double tail = 0.90;
  /// Minimum latency samples per run (the timed phase runs on until
  /// reached).
  uint64_t min_samples = 100;
  /// Set-up-only processes per untraced run, and set-ups timed in each;
  /// setup_s is the median of all of them.
  int setup_procs = 4;
  int setup_reps = 3;
  /// Queries of the set that the layer probes (ladder, parallel pass)
  /// visit; 0 = all.
  uint32_t probe_queries = 0;
};

/// The workload table; `smoke` shrinks every workload to a few seconds.
/// Returns false for an unknown name.
bool FindWorkload(const std::string& name, bool smoke, WorkloadSpec* spec);

/// Counters of the benchmark's own depth-first search over
/// Expander::Expand (the loop of ExecutePlanSequential, instrumented).
struct DfsResult {
  uint64_t calls = 0;        // Expand calls
  uint64_t candidates = 0;   // Algorithm 4 candidates
  uint64_t filtered = 0;     // survivors of the Observation V.5 check
  uint64_t valid = 0;        // survivors of Algorithm 5 (Expand outputs)
  uint64_t embeddings = 0;   // complete embeddings
  /// Deterministic work estimate: per Expand call, candidates x arity of
  /// the step's query hyperedge, plus 0.3 x the posting-list entries of
  /// the matched adjacent hyperedges' vertices, plus 10. Tracks
  /// sequential time within about 2x on the paper profiles.
  double work = 0;
  bool capped = false;       // aborted because work exceeded the cap
  double expand_seconds = 0; // time inside Expand (when timed)
  double seconds = 0;        // whole search
};

/// Runs the plan depth-first. `work_cap` > 0 computes `work` and aborts
/// once it exceeds the cap; `time_expand` times every Expand call.
DfsResult RunDfs(const hgmatch::IndexedHypergraph& data,
                 const hgmatch::QueryPlan& plan, double work_cap,
                 bool time_expand);

/// Half-octave bucket of a work estimate.
int WorkBucket(double work);

/// log2 of the number of ways to permute twin vertices (same label, same
/// incident hyperedges) within their classes: the search space colour
/// refinement cannot split, which canonical labelling must explore.
double SymmetryBits(const hgmatch::Hypergraph& q);

/// Sorted-sample percentile (nearest rank, q in [0, 1]).
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Monotonic seconds, user+sys CPU seconds of the process, and VmHWM.
double Now();
double CpuSeconds();
double PeakRssMb();

/// Files of one generated input directory. A query pool directory holds
/// queries.hgq too, with pool.tsv (count, class, work, oracle-checked) and
/// data.txt (the data hypergraph's sizes and checksum) beside it.
std::string DataPath(const std::string& dir);
std::string QueriesPath(const std::string& dir);
std::string ExpectedPath(const std::string& dir);
std::string ManifestPath(const std::string& dir);
std::string PoolCountsPath(const std::string& dir);
std::string PoolDataPath(const std::string& dir);

/// One line of the expected-counts file (count, fresh|repeat, class).
struct ExpectedQuery {
  uint64_t embeddings = 0;
  bool repeat = false;
};

/// splitmix64: the benchmark's own generator, so that the inputs a seed
/// selects do not move with the library's Rng.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

/// Query pool creation (`hgbench_driver pool`): samples a cost-stratified
/// query set, fixes each query's expected count and cross-checks every
/// affordable query against the brute-force oracle. Returns an exit code.
int MakePool(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             uint32_t threads);

/// Input generation (`hgbench_driver gen`): regenerates the data hypergraph
/// (checked against the pool's checksum) and orders the pool's queries by
/// the seed. Returns a process exit code.
int GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& pool, const std::string& dir,
                   uint32_t threads);

/// The measured process (`hgbench_driver run`). Returns an exit code.
/// `setup_only` times `setup_reps` set-ups in this process and prints them.
int RunWorkload(const WorkloadSpec& spec, const std::string& dir,
                double seconds, bool trace, bool setup_only);

}  // namespace hgbench

#endif  // HGBENCH_DRIVER_COMMON_H_
