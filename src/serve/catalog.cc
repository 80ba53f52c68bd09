#include "serve/catalog.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.h"

namespace hgmatch {

namespace {

// Catalog-unique ticket ids: the high bits name the catalog entry, the
// low 40 bits carry the service-local ticket id (a trillion submissions
// per graph before the spaces could touch — and entry bases are never
// reused, so a stale id from an unloaded graph can never alias a live
// one).
constexpr uint32_t kEntryIdShift = 40;

}  // namespace

// One hosted graph. The index/service fields are written at load time
// and immutable afterwards; the counters and flags are guarded by
// State::m.
struct GraphCatalog::Entry {
  std::string name;
  uint64_t id_base = 0;
  // Load() owns its index here; LoadShared() leaves it empty. `index`
  // points at whichever is live and never changes after install.
  std::optional<IndexedHypergraph> owned;
  const IndexedHypergraph* index = nullptr;
  std::unique_ptr<MatchService> service;

  // Guarded by State::m.
  uint64_t queries = 0;  // submissions ever routed here
  uint64_t live = 0;     // submissions not yet resolved
  uint64_t pins = 0;     // threads mid-Submit/Cancel on this entry
  bool unloading = false;

  // Registry counter of submissions routed to this graph name, resolved
  // at install. Counters are never unregistered: reloading a name picks
  // the same handle back up, so the per-graph series survives unloads.
  Counter* submit_metric = nullptr;
};

// The mutable registry, held by shared_ptr from the catalog AND from
// every submission's completion hook: a hook that fires while the catalog
// is mid-teardown still locks refcounted memory, never a dead object.
struct GraphCatalog::State {
  std::mutex m;
  std::condition_variable cv;

  // Guarded by m.
  std::vector<std::shared_ptr<Entry>> entries;    // live, load order
  std::vector<std::shared_ptr<Entry>> graveyard;  // unloading, draining
  std::string default_name;
  uint64_t entry_seq = 0;
  bool sealed = false;

  // Outcomes finalised (Gauges().finished); written by the hooks without
  // taking m.
  std::atomic<uint64_t> finished{0};
};

GraphCatalog::GraphCatalog(const ServiceOptions& options)
    : options_(options),
      state_(std::make_shared<State>()),
      pool_(std::make_unique<Scheduler>(ToSchedulerOptions(options))) {}

GraphCatalog::~GraphCatalog() { Shutdown(); }

Status GraphCatalog::Load(const std::string& name, Hypergraph data) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must not be empty");
  }
  auto entry = std::make_shared<Entry>();
  entry->name = name;
  // Index before taking the lock: Build is the expensive part and needs
  // no registry state.
  entry->owned.emplace(IndexedHypergraph::Build(std::move(data)));
  entry->index = &*entry->owned;
  return Install(std::move(entry));
}

Status GraphCatalog::LoadShared(const std::string& name,
                                const IndexedHypergraph& index) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must not be empty");
  }
  auto entry = std::make_shared<Entry>();
  entry->name = name;
  entry->index = &index;
  return Install(std::move(entry));
}

Status GraphCatalog::Install(std::shared_ptr<Entry> entry) {
  std::shared_ptr<State> st = state_;
  std::vector<std::shared_ptr<Entry>> dead;
  {
    std::lock_guard<std::mutex> lock(st->m);
    if (st->sealed) {
      return Status::InvalidArgument("catalog is shut down");
    }
    for (const auto& e : st->entries) {
      if (e->name == entry->name) {
        return Status::InvalidArgument("graph '" + entry->name +
                                       "' is already loaded");
      }
    }
    entry->id_base = ++st->entry_seq << kEntryIdShift;
    entry->submit_metric = MetricsRegistry::Default().GetCounter(
        "hgmatch_graph_submits_total",
        "graph=\"" + EscapeLabelValue(entry->name) + "\"");
    entry->service =
        std::make_unique<MatchService>(*entry->index, *pool_, options_);

    if (st->default_name.empty()) st->default_name = entry->name;
    st->entries.push_back(std::move(entry));
    ReapLocked(&dead);
  }
  DestroyEntries(std::move(dead));
  return Status::OK();
}

Status GraphCatalog::Unload(const std::string& name, bool wait) {
  std::shared_ptr<State> st = state_;
  std::shared_ptr<Entry> entry;
  std::vector<std::shared_ptr<Entry>> dead;
  {
    std::lock_guard<std::mutex> lock(st->m);
    auto it = std::find_if(st->entries.begin(), st->entries.end(),
                           [&name](const std::shared_ptr<Entry>& e) {
                             return e->name == name;
                           });
    if (it == st->entries.end()) {
      return Status::NotFound("unknown graph '" + name + "'");
    }
    entry = *it;
    entry->unloading = true;
    st->entries.erase(it);
    st->graveyard.push_back(entry);
    if (st->default_name == name) st->default_name.clear();
    if (!wait) ReapLocked(&dead);
  }
  if (!wait) {
    // An idle graph reaps right here; a busy one drains in place and a
    // later catalog operation (or Shutdown) collects it.
    DestroyEntries(std::move(dead));
    return Status::OK();
  }
  {
    std::unique_lock<std::mutex> lock(st->m);
    st->cv.wait(lock, [&entry] {
      return entry->pins == 0 && entry->live == 0;
    });
    std::erase(st->graveyard, entry);
  }
  // Outside the lock: Shutdown may fire straggler bookkeeping and must
  // never run under State::m (lock order: State::m is a leaf).
  entry->service->Shutdown();
  return Status::OK();
}

std::vector<CatalogGraphInfo> GraphCatalog::List() {
  std::vector<std::shared_ptr<Entry>> dead;
  std::vector<CatalogGraphInfo> rows;
  {
    std::lock_guard<std::mutex> lock(state_->m);
    ReapLocked(&dead);
    rows.reserve(state_->entries.size());
    for (const auto& e : state_->entries) {
      CatalogGraphInfo row;
      row.name = e->name;
      row.is_default = e->name == state_->default_name;
      row.queries = e->queries;
      row.live_tickets = e->live;
      row.index_bytes = e->index->IndexBytes();
      rows.push_back(std::move(row));
    }
  }
  DestroyEntries(std::move(dead));
  // Default first, then load order.
  auto def = std::find_if(rows.begin(), rows.end(),
                          [](const CatalogGraphInfo& r) {
                            return r.is_default;
                          });
  if (def != rows.end()) std::rotate(rows.begin(), def, def + 1);
  return rows;
}

bool GraphCatalog::Has(const std::string& name) {
  std::lock_guard<std::mutex> lock(state_->m);
  for (const auto& e : state_->entries) {
    if (e->name == name) return true;
  }
  return false;
}

std::string GraphCatalog::DefaultGraph() {
  std::lock_guard<std::mutex> lock(state_->m);
  return state_->default_name;
}

size_t GraphCatalog::NumGraphs() {
  std::lock_guard<std::mutex> lock(state_->m);
  return state_->entries.size();
}

std::shared_ptr<GraphCatalog::Entry> GraphCatalog::FindPinnedForSubmit(
    const std::string& name, uint64_t count, Status* error) {
  std::lock_guard<std::mutex> lock(state_->m);
  if (state_->sealed) {
    *error = Status::InvalidArgument("catalog is shut down");
    return nullptr;
  }
  const std::string& target =
      name.empty() ? state_->default_name : name;
  if (target.empty()) {
    *error = Status::NotFound("no default graph is loaded");
    return nullptr;
  }
  for (const auto& e : state_->entries) {
    if (e->name != target) continue;
    // The pin blocks a concurrent unload from destroying the entry while
    // this thread is inside the service; the live count is claimed here
    // too — before the submission exists — because a synchronously
    // resolving Submit runs the decrementing hook before returning.
    ++e->pins;
    e->queries += count;
    e->live += count;
    e->submit_metric->Add(count);
    return e;
  }
  *error = Status::NotFound("unknown graph '" + target + "'");
  return nullptr;
}

void GraphCatalog::Unpin(const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(state_->m);
  --entry->pins;
  state_->cv.notify_all();
}

Result<std::vector<CatalogTicket>> GraphCatalog::Submit(
    const std::string& name, std::vector<BatchSubmission> batch) {
  Status error;
  std::shared_ptr<Entry> entry =
      FindPinnedForSubmit(name, batch.size(), &error);
  if (entry == nullptr) return error;
  // Each entry's hook closes with the catalog's bookkeeping. Its last act,
  // the live-ticket decrement, is the unload gate, so it runs under
  // State::m and touches nothing of the entry afterwards: once an unloader
  // observes live == 0 the entry is destructible even though the hook's
  // stack frame is still winding down (it only holds refcounted captures
  // from there on).
  Entry* raw = entry.get();
  for (BatchSubmission& b : batch) {
    b.options.completion = [st = state_, raw,
                            user = std::move(b.options.completion)](
                               const QueryOutcome& out) {
      if (user) user(out);
      st->finished.fetch_add(1, std::memory_order_release);
      std::lock_guard<std::mutex> lock(st->m);
      --raw->live;
      st->cv.notify_all();
    };
  }
  std::vector<Ticket> tickets = entry->service->SubmitBatch(std::move(batch));
  std::vector<CatalogTicket> out;
  out.reserve(tickets.size());
  for (Ticket& t : tickets) {
    CatalogTicket ct;
    ct.unique_id = entry->id_base + t.id();
    ct.ticket = std::move(t);
    out.push_back(std::move(ct));
  }
  Unpin(entry);
  return out;
}

bool GraphCatalog::Cancel(const CatalogTicket& ticket) {
  if (!ticket.ticket.valid()) return false;
  const uint64_t base =
      ticket.unique_id >> kEntryIdShift << kEntryIdShift;
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(state_->m);
    auto match = [base](const std::shared_ptr<Entry>& e) {
      return e->id_base == base;
    };
    auto it = std::find_if(state_->entries.begin(), state_->entries.end(),
                           match);
    if (it == state_->entries.end()) {
      // Unloading graphs accept cancels — they speed the drain.
      it = std::find_if(state_->graveyard.begin(), state_->graveyard.end(),
                        match);
      if (it == state_->graveyard.end()) {
        // Entry gone: its unload already drained every ticket, so this
        // one is resolved and Cancel is a pure (false) read.
        return ticket.ticket.Cancel();
      }
    }
    entry = *it;
    ++entry->pins;
  }
  const bool cancelled = ticket.ticket.Cancel();
  Unpin(entry);
  return cancelled;
}

uint32_t GraphCatalog::num_threads() const {
  return pool_ != nullptr ? pool_->num_threads() : 0;
}

ServiceGauges GraphCatalog::Gauges() {
  ServiceGauges g;
  g.finished = state_->finished.load(std::memory_order_acquire);
  if (pool_ != nullptr) {
    g.live_contexts = pool_->LiveContexts();
    g.rejected = pool_->RejectedCount();
  }
  return g;
}

void GraphCatalog::Shutdown() {
  std::shared_ptr<State> st = state_;
  std::vector<std::shared_ptr<Entry>> all;
  {
    std::unique_lock<std::mutex> lock(st->m);
    st->sealed = true;
    for (auto& e : st->entries) {
      e->unloading = true;
      st->graveyard.push_back(std::move(e));
    }
    st->entries.clear();
    st->default_name.clear();
    st->cv.wait(lock, [st] {
      for (const auto& e : st->graveyard) {
        if (e->pins != 0 || e->live != 0) return false;
      }
      return true;
    });
    all = std::move(st->graveyard);
    st->graveyard.clear();
  }
  DestroyEntries(std::move(all));
  pool_.reset();  // stop the shared workers
}

void GraphCatalog::ReapLocked(
    std::vector<std::shared_ptr<Entry>>* to_destroy) {
  auto& g = state_->graveyard;
  for (auto it = g.begin(); it != g.end();) {
    if ((*it)->pins == 0 && (*it)->live == 0) {
      to_destroy->push_back(std::move(*it));
      it = g.erase(it);
    } else {
      ++it;
    }
  }
}

void GraphCatalog::DestroyEntries(
    std::vector<std::shared_ptr<Entry>> to_destroy) {
  // Callers hold no lock: Shutdown waits for in-flight hook deliveries.
  for (const auto& e : to_destroy) e->service->Shutdown();
}

}  // namespace hgmatch
