#ifndef HGMATCH_OBS_TRACE_H_
#define HGMATCH_OBS_TRACE_H_

#include <cstdint>
#include <string>

namespace hgmatch {

/// Seconds since a process-wide monotonic epoch (the first call in the
/// process). Every span stamp across every layer — scheduler workers,
/// service resolution, reactor delivery — uses this one clock, so stamps
/// taken on different threads and different pools are directly
/// comparable. Never goes backwards, unaffected by wall-clock jumps.
double MonotonicSeconds();

/// The end-to-end timeline of one query, filled in as it crosses layers:
///
///   submit      SubmitOptions accepted by the scheduler (or service)
///   admit       admission window granted; tasks may now be seeded
///   first_task  first worker began executing a task for this query
///   last_task   final task retired (pending count hit zero)
///   resolve     MatchService resolved the ticket (outcome visible)
///   deliver     reactor wrote the OUTCOME frame to the client socket
///
/// Stamps are MonotonicSeconds(); 0 means the stage never happened (a
/// rejected query has only submit/resolve, a cancelled-queued query never
/// gets first_task). Spans are recorded only when `enabled` — set from
/// SubmitOptions::trace — so untraced queries pay nothing beyond the
/// always-on metric stamps.
struct QuerySpan {
  bool enabled = false;
  double submit_seconds = 0;
  double admit_seconds = 0;
  double first_task_seconds = 0;
  double last_task_seconds = 0;
  double resolve_seconds = 0;
  double deliver_seconds = 0;

  /// Latest stamp minus submit: the query's total visible latency so far.
  double TotalSeconds() const;

  /// Multi-line human-readable timeline (relative offsets from submit),
  /// as printed by `hgmatch query --trace`.
  std::string Timeline() const;
};

}  // namespace hgmatch

#endif  // HGMATCH_OBS_TRACE_H_
