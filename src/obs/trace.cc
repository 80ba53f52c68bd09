#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace hgmatch {

double MonotonicSeconds() {
  // The epoch is captured once, at first use anywhere in the process, so
  // every subsystem shares one origin and stamps stay small (printable as
  // short offsets instead of raw steady_clock ticks).
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double QuerySpan::TotalSeconds() const {
  double last = submit_seconds;
  last = std::max(last, admit_seconds);
  last = std::max(last, first_task_seconds);
  last = std::max(last, last_task_seconds);
  last = std::max(last, resolve_seconds);
  last = std::max(last, deliver_seconds);
  return last - submit_seconds;
}

namespace {

void AppendStage(std::string* out, const char* name, double stamp,
                 double submit) {
  char buf[128];
  if (stamp <= 0) {
    std::snprintf(buf, sizeof(buf), "  %-12s -\n", name);
  } else {
    std::snprintf(buf, sizeof(buf), "  %-12s +%.3f ms\n", name,
                  (stamp - submit) * 1e3);
  }
  out->append(buf);
}

}  // namespace

std::string QuerySpan::Timeline() const {
  std::string out;
  if (!enabled) {
    out = "trace: (not recorded)\n";
    return out;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "trace: total %.3f ms\n",
                TotalSeconds() * 1e3);
  out.append(buf);
  AppendStage(&out, "submit", submit_seconds, submit_seconds);
  AppendStage(&out, "admit", admit_seconds, submit_seconds);
  AppendStage(&out, "first-task", first_task_seconds, submit_seconds);
  AppendStage(&out, "last-task", last_task_seconds, submit_seconds);
  AppendStage(&out, "resolve", resolve_seconds, submit_seconds);
  AppendStage(&out, "deliver", deliver_seconds, submit_seconds);
  return out;
}

}  // namespace hgmatch
