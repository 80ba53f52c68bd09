#ifndef HGMATCH_NET_REACTOR_H_
#define HGMATCH_NET_REACTOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace hgmatch {

/// One IO thread's readiness loop: a level-triggered poller (epoll on
/// Linux, poll(2) elsewhere) plus the two cross-thread entry points every
/// reactor needs — a wake pipe and a posted-task queue. This is the only
/// piece of the wire front end that talks to the readiness API; the server
/// (net/server.h) runs one EventLoop per IO thread and keeps all protocol
/// state thread-local to that loop.
///
/// Threading contract: Init/Add/Modify/Remove/Wait belong to the one
/// thread that runs the loop ("the loop thread"). Post() and Wake() are
/// thread-safe and may be called from anywhere — they are how other
/// threads (the acceptor handing over a connection, a pool worker
/// finishing a query) reach into the loop. Posted tasks run on the loop
/// thread inside the next Wait() call, before readiness events are
/// reported, so a task may freely Add/Remove fds.
class EventLoop {
 public:
  /// Portable readiness bits (translated from epoll/poll).
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kWritable = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;   // EPOLLERR/POLLERR/NVAL
  static constexpr uint32_t kHangup = 1u << 3;  // EPOLLHUP/POLLHUP

  struct Event {
    int fd = -1;
    uint32_t events = 0;
  };

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the poller instance and the wake pipe. Call once, before the
  /// loop thread starts.
  Status Init();

  /// Registers `fd` for the given interest set (kReadable/kWritable mask;
  /// 0 parks the fd: errors and hangups are still reported).
  Status Add(int fd, uint32_t events);

  /// Replaces the interest set of a registered fd. Cheap no-op detection
  /// is the caller's job (track the current mask and skip equal updates).
  Status Modify(int fd, uint32_t events);

  /// Deregisters `fd`; the caller still owns and closes it.
  void Remove(int fd);

  /// Enqueues `task` to run on the loop thread inside the next Wait(), in
  /// post order. Thread-safe. The wake is coalesced: only the post that
  /// finds the queue empty writes the wake pipe, so a burst of N posts
  /// (say, the outcomes of one frame's entries) costs one pipe write, not
  /// N. No wake is lost, because Wait() drains the pipe before it takes
  /// the queue.
  void Post(std::function<void()> task);

  /// Wakes a Wait() blocked in the poller. Thread-safe; a full pipe is as
  /// good as a written one.
  void Wake();

  /// Blocks until readiness, a wake, or `timeout_ms`. Drains the wake
  /// pipe, runs posted tasks, then fills `out` with the ready fds (the
  /// wake pipe itself is never reported). Returns the number of events,
  /// 0 on timeout/wake-only, or -1 on a fatal poller error.
  int Wait(int timeout_ms, std::vector<Event>* out);

 private:
  void Close();

  int poll_fd_ = -1;  // epoll instance (Linux); -1 on the poll backend
  int wake_pipe_[2] = {-1, -1};

  std::mutex task_mutex_;
  std::vector<std::function<void()>> tasks_;
  std::vector<std::function<void()>> running_;  // loop-thread swap target

#if !defined(__linux__)
  // poll(2) backend bookkeeping: the registered interest sets.
  struct PollEntry {
    int fd;
    uint32_t events;
  };
  std::vector<PollEntry> entries_;  // loop-thread only
#endif
};

}  // namespace hgmatch

#endif  // HGMATCH_NET_REACTOR_H_
