#ifndef HGMATCH_SERVE_CATALOG_H_
#define HGMATCH_SERVE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/indexed_hypergraph.h"
#include "parallel/service.h"
#include "util/status.h"

namespace hgmatch {

/// One row of GraphCatalog::List() — the per-graph slice of the STATS
/// surface.
struct CatalogGraphInfo {
  std::string name;
  bool is_default = false;
  uint64_t queries = 0;       // submissions routed to this graph, ever
  uint64_t live_tickets = 0;  // submissions not yet resolved
  uint64_t index_bytes = 0;   // IndexedHypergraph::IndexBytes()
};

/// A submission accepted by the catalog: the service ticket plus the
/// catalog-unique id that survives graph routing (two graphs' services
/// both hand out ticket id 0). unique_id only routes Cancel to the
/// owning graph.
struct CatalogTicket {
  Ticket ticket;
  uint64_t unique_id = 0;
};

/// A registry of named data graphs served from one worker pool — the
/// serving tier behind `hgmatch serve`. Each loaded graph gets its own
/// MatchService (plan cache, budgets) bound to the catalog's one shared
/// Scheduler, so K graphs cost one set of worker threads, not K.
/// Submissions route by graph name (empty = the default graph, the first
/// one loaded), and every accepted submission carries a catalog-unique
/// ticket id. Outcomes reach callers through each entry's own
/// SubmitOptions::completion hook, which fires exactly once per accepted
/// submission, before the catalog counts it finished.
///
/// Lifetime is refcounted per graph: Unload marks the graph so new
/// submissions are rejected immediately, then waits (or defers, wait =
/// false) until every in-flight ticket of that graph resolved before the
/// index and service are destroyed — an unload never invalidates an
/// outstanding ticket and never loses an outcome. All methods are
/// thread-safe.
class GraphCatalog {
 public:
  /// `options` sizes the shared pool (its parallel/admission/window/queue/
  /// timeout fields build the Scheduler through ToSchedulerOptions) and
  /// configures every hosted graph's MatchService (plan cache, capacity,
  /// default budgets).
  explicit GraphCatalog(const ServiceOptions& options);

  /// Shuts down: blocks until every in-flight submission resolved.
  ~GraphCatalog();

  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Indexes `data` and serves it as `name`. The first loaded graph
  /// becomes the default. Fails with AlreadyExists on a duplicate name
  /// (unloading counts as gone) and InvalidArgument on an empty name.
  Status Load(const std::string& name, Hypergraph data);

  /// Load() over an externally owned index (no copy, no re-index); the
  /// caller guarantees `index` outlives the catalog. The wire server's
  /// single-graph constructor serves its borrowed IndexedHypergraph
  /// through this.
  Status LoadShared(const std::string& name, const IndexedHypergraph& index);

  /// Removes `name` from the catalog. New submissions to it are rejected
  /// from this call on. wait = true blocks until the graph's in-flight
  /// tickets resolved, then frees its service and index; wait = false
  /// returns immediately and the drained graph is reaped by a later
  /// catalog operation (or Shutdown). Fails with NotFound for unknown
  /// (or already-unloading) names.
  Status Unload(const std::string& name, bool wait = true);

  /// Snapshot of every hosted graph, default first, then load order.
  std::vector<CatalogGraphInfo> List();

  bool Has(const std::string& name);

  /// Name of the default graph; empty when none is loaded (or the
  /// default was unloaded and nothing replaced it).
  std::string DefaultGraph();

  size_t NumGraphs();

  /// Routes `batch` to `name` (empty = default graph) in one admission
  /// pass; one ticket per entry, in input order. Fails with NotFound when
  /// the graph is unknown or unloading — no ticket is created, so the
  /// caller can relay a typed rejection instead of a dead connection.
  Result<std::vector<CatalogTicket>> Submit(
      const std::string& name, std::vector<BatchSubmission> batch);

  /// Cancels through the owning graph, pinned against a racing unload
  /// (cancelling a ticket of a mid-unload graph is legal and speeds the
  /// drain). Returns false when the query already finished.
  bool Cancel(const CatalogTicket& ticket);

  /// Shared pool width.
  uint32_t num_threads() const;

  /// Aggregated service gauges: finished across all graphs, live
  /// contexts and rejections from the shared pool.
  ServiceGauges Gauges();

  /// Unloads everything (waiting for in-flight tickets) and stops the
  /// pool. Idempotent; implied by destruction. No submissions may race
  /// or follow this call.
  void Shutdown();

 private:
  struct Entry;
  struct State;

  Status Install(std::shared_ptr<Entry> entry);
  // Finds the live entry named `name` (empty = default), pins it against
  // unload and claims `count` upcoming submissions; null + *error when
  // the graph is unknown, unloading or the catalog is sealed.
  std::shared_ptr<Entry> FindPinnedForSubmit(const std::string& name,
                                             uint64_t count, Status* error);
  void Unpin(const std::shared_ptr<Entry>& entry);
  void ReapLocked(std::vector<std::shared_ptr<Entry>>* to_destroy);
  void DestroyEntries(std::vector<std::shared_ptr<Entry>> to_destroy);

  ServiceOptions options_;
  std::shared_ptr<State> state_;
  std::unique_ptr<Scheduler> pool_;
};

}  // namespace hgmatch

#endif  // HGMATCH_SERVE_CATALOG_H_
