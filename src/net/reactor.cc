#include "net/reactor.h"

#if defined(__unix__) || defined(__APPLE__)
#define HGMATCH_HAVE_SOCKETS 1
#endif

#if HGMATCH_HAVE_SOCKETS

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

namespace hgmatch {

namespace {

bool MakeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

#if defined(__linux__)

uint32_t ToEpoll(uint32_t events) {
  uint32_t e = 0;  // level-triggered: no EPOLLET anywhere
  if (events & EventLoop::kReadable) e |= EPOLLIN;
  if (events & EventLoop::kWritable) e |= EPOLLOUT;
  return e;
}

uint32_t FromEpoll(uint32_t e) {
  uint32_t events = 0;
  if (e & EPOLLIN) events |= EventLoop::kReadable;
  if (e & EPOLLOUT) events |= EventLoop::kWritable;
  if (e & EPOLLERR) events |= EventLoop::kError;
  if (e & EPOLLHUP) events |= EventLoop::kHangup;
  return events;
}

#endif  // __linux__

}  // namespace

EventLoop::~EventLoop() { Close(); }

void EventLoop::Close() {
  if (poll_fd_ >= 0) {
    ::close(poll_fd_);
    poll_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
}

Status EventLoop::Init() {
  if (::pipe(wake_pipe_) != 0) return Status::IOError("pipe() failed");
  MakeNonBlocking(wake_pipe_[0]);
  MakeNonBlocking(wake_pipe_[1]);
#if defined(__linux__)
  poll_fd_ = ::epoll_create1(0);
  if (poll_fd_ < 0) {
    Close();
    return Status::IOError("epoll_create1() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_pipe_[0];
  if (::epoll_ctl(poll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) != 0) {
    Close();
    return Status::IOError("epoll_ctl(wake pipe) failed");
  }
#endif
  return Status::OK();
}

Status EventLoop::Add(int fd, uint32_t events) {
#if defined(__linux__)
  epoll_event ev{};
  ev.events = ToEpoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(poll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(ADD) failed");
  }
#else
  entries_.push_back({fd, events});
#endif
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
#if defined(__linux__)
  epoll_event ev{};
  ev.events = ToEpoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(poll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(MOD) failed");
  }
#else
  for (PollEntry& entry : entries_) {
    if (entry.fd == fd) {
      entry.events = events;
      break;
    }
  }
#endif
  return Status::OK();
}

void EventLoop::Remove(int fd) {
#if defined(__linux__)
  ::epoll_ctl(poll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#else
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].fd == fd) {
      entries_.erase(entries_.begin() + i);
      break;
    }
  }
#endif
}

void EventLoop::Post(std::function<void()> task) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    first = tasks_.empty();
    tasks_.push_back(std::move(task));
  }
  // Only the post that makes the queue non-empty writes the pipe. Wait
  // drains the pipe before it takes the queue, so a post that found the
  // queue non-empty rides a byte that is still unread or a swap that is
  // still to come.
  if (first) Wake();
}

void EventLoop::Wake() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 0;
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
}

int EventLoop::Wait(int timeout_ms, std::vector<Event>* out) {
  out->clear();
#if defined(__linux__)
  epoll_event raw[64];
  const int n = ::epoll_wait(poll_fd_, raw, 64, timeout_ms);
  if (n < 0 && errno != EINTR) return -1;
  bool woken = false;
  for (int i = 0; i < n; ++i) {
    if (raw[i].data.fd == wake_pipe_[0]) {
      woken = true;
      continue;
    }
    out->push_back({raw[i].data.fd, FromEpoll(raw[i].events)});
  }
#else
  std::vector<pollfd> fds;
  fds.reserve(entries_.size() + 1);
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  for (const PollEntry& entry : entries_) {
    short want = 0;
    if (entry.events & kReadable) want |= POLLIN;
    if (entry.events & kWritable) want |= POLLOUT;
    fds.push_back({entry.fd, want, 0});
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0 && errno != EINTR) return -1;
  const bool woken = n > 0 && (fds[0].revents & POLLIN) != 0;
  for (size_t i = 1; i < fds.size(); ++i) {
    const short revents = fds[i].revents;
    if (revents == 0) continue;
    uint32_t events = 0;
    if (revents & POLLIN) events |= kReadable;
    if (revents & POLLOUT) events |= kWritable;
    if (revents & (POLLERR | POLLNVAL)) events |= kError;
    if (revents & POLLHUP) events |= kHangup;
    out->push_back({fds[i].fd, events});
  }
#endif
  // The drain comes before the swap: a byte written after it belongs to
  // a post the swap takes or to one that finds the queue empty again, and
  // neither loses its wake.
  if (woken) {
    char drain[64];
    while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
    }
  }
  // Posted tasks run even when the wake raced the poll call: a post made
  // while the loop was busy elsewhere left its byte in the pipe, but the
  // task must not wait another cycle.
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    running_.swap(tasks_);
  }
  for (std::function<void()>& task : running_) task();
  running_.clear();
  return static_cast<int>(out->size());
}

}  // namespace hgmatch

#else  // !HGMATCH_HAVE_SOCKETS

namespace hgmatch {

EventLoop::~EventLoop() = default;
void EventLoop::Close() {}
Status EventLoop::Init() {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Status EventLoop::Add(int, uint32_t) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
Status EventLoop::Modify(int, uint32_t) {
  return Status::Internal("hgmatch net requires POSIX sockets");
}
void EventLoop::Remove(int) {}
void EventLoop::Post(std::function<void()>) {}
void EventLoop::Wake() {}
int EventLoop::Wait(int, std::vector<Event>*) { return -1; }

}  // namespace hgmatch

#endif  // HGMATCH_HAVE_SOCKETS
