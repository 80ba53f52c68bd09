// Ablation: how much of HGMatch's speed comes from the cardinality-driven
// matching order of Algorithm 3? Compares four order variants on the q3/q4
// workloads: the paper's order, a connectivity-only order (no cardinality
// signal), an adversarial max-cardinality-first order, and the raw
// declaration order (which may start disconnected components). All variants
// return identical counts (verified); only work differs.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/hgmatch.h"
#include "util/stats.h"

using namespace hgmatch;        // NOLINT
using namespace hgmatch::bench; // NOLINT

namespace {

struct VariantInfo {
  OrderVariant variant;
  const char* name;
};

constexpr VariantInfo kVariants[] = {
    {OrderVariant::kCardinality, "Alg3"},
    {OrderVariant::kConnectedOnly, "conn-only"},
    {OrderVariant::kMaxCardinality, "max-card"},
    {OrderVariant::kAsGiven, "as-given"},
};

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Ablation: matching order",
              "Algorithm 3 vs degraded order variants (same results, "
              "different work)");
  std::printf("%-4s %-3s |", "ds", "q");
  for (const VariantInfo& v : kVariants) std::printf(" %12s", v.name);
  std::printf("   (avg time; avg candidates in parens below)\n");

  const std::vector<std::string> names =
      DatasetArgs(argc, argv, {"CP", "SB", "WT", "TC"});
  for (const std::string& name : names) {
    Dataset d = LoadDataset(name);
    for (const QuerySettings& settings : {kQ3, kQ4}) {
      const std::vector<Hypergraph> queries = QueriesFor(d, settings);
      if (queries.empty()) continue;
      std::vector<double> avg_time(std::size(kVariants), 0);
      std::vector<double> avg_cand(std::size(kVariants), 0);
      bool counts_agree = true;
      for (const Hypergraph& q : queries) {
        uint64_t first_count = 0;
        for (size_t vi = 0; vi < std::size(kVariants); ++vi) {
          std::vector<EdgeId> order = ComputeMatchingOrderVariant(
              q, d.index, kVariants[vi].variant);
          Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, std::move(order));
          if (!plan.ok()) continue;
          MatchOptions options;
          options.timeout_seconds = 10 * BaselineTimeoutSeconds();
          MatchStats stats =
              ExecutePlanSequential(d.index, plan.value(), options, nullptr);
          avg_time[vi] += stats.seconds / queries.size();
          avg_cand[vi] +=
              static_cast<double>(stats.candidates) / queries.size();
          if (vi == 0) {
            first_count = stats.embeddings;
          } else if (!stats.timed_out && stats.embeddings != first_count) {
            counts_agree = false;
          }
        }
      }
      std::printf("%-4s %-3s |", d.name.c_str(), settings.name);
      for (double t : avg_time) std::printf(" %12s", FormatSeconds(t).c_str());
      std::printf("%s\n", counts_agree ? "" : "   COUNT MISMATCH (bug!)");
      std::printf("%-8s |", "");
      for (double c : avg_cand) {
        std::string cell = "(";
        cell += HumanCount(static_cast<uint64_t>(c));
        cell += ")";
        std::printf(" %12s", cell.c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
