#include "serve/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/sync.h"
#include "engine/process_executor.h"
#include "engine/thread_executor.h"
#include "net/channel.h"

namespace mjoin {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Every serving-layer clock read funnels through here: timestamps are
/// per-query (enqueue, admission, completion), never per batch.
SteadyClock::time_point Now() {
  return SteadyClock::now();  // lint:allow-clock per-query serving timestamps
}

double Seconds(SteadyClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One admitted-or-queued query, as it travels from the IO thread through
/// the scheduler to an exec thread.
struct QueryTask {
  uint64_t conn_id = 0;
  SubmitMsg submit;
  SteadyClock::time_point enqueued;
  /// Absolute deadline derived from SubmitMsg::deadline_ms at receipt.
  std::optional<SteadyClock::time_point> deadline;
  /// The owning connection's token — cancelled by the IO thread when the
  /// client disconnects, aborting this query wherever it is.
  CancellationToken cancel;
};

/// A finished query on its way back to the IO thread.
struct ResultEnvelope {
  uint64_t conn_id = 0;
  QueryResultMsg msg;
};

/// FIFO-per-tenant fair queue: each tenant's submits run in order, and
/// tenants with pending work are served round-robin, so one tenant
/// flooding the server cannot starve another's single query.
class FairScheduler {
 public:
  void Push(QueryTask task) {
    MutexLock lock(&mu_);
    std::deque<QueryTask>& queue = queues_[task.submit.tenant];
    if (queue.empty()) ring_.push_back(task.submit.tenant);
    queue.push_back(std::move(task));
    cv_.NotifyOne();
  }

  /// Blocks for the next task; false once the scheduler is closed and
  /// drained.
  bool Pop(QueryTask* out) {
    MutexLock lock(&mu_);
    while (ring_.empty() && !closed_) cv_.Wait(mu_);
    if (ring_.empty()) return false;
    const std::string tenant = std::move(ring_.front());
    ring_.pop_front();
    auto it = queues_.find(tenant);
    *out = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) {
      queues_.erase(it);
    } else {
      ring_.push_back(tenant);
    }
    return true;
  }

  void Close() {
    MutexLock lock(&mu_);
    closed_ = true;
    cv_.NotifyAll();
  }

  /// Empties every queue (shutdown: the caller fails these Unavailable).
  std::vector<QueryTask> DrainAll() {
    MutexLock lock(&mu_);
    std::vector<QueryTask> drained;
    for (const std::string& tenant : ring_) {
      auto it = queues_.find(tenant);
      for (QueryTask& task : it->second) drained.push_back(std::move(task));
    }
    queues_.clear();
    ring_.clear();
    return drained;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::map<std::string, std::deque<QueryTask>> queues_ MJOIN_GUARDED_BY(mu_);
  /// Tenants with a nonempty queue, in service order.
  std::deque<std::string> ring_ MJOIN_GUARDED_BY(mu_);
  bool closed_ MJOIN_GUARDED_BY(mu_) = false;
};

/// Creates, binds, and listens the server's AF_UNIX socket (nonblocking).
StatusOr<int> BindListenSocket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale file from a crashed server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal("bind(" + path + "): " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    return Status::Internal(std::string("listen(): ") + std::strerror(err));
  }
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return s;
  }
  return fd;
}

}  // namespace

struct MjoinServer::Impl {
  const Database* database = nullptr;
  MjoinServeOptions options;

  MetricsRegistry metrics;
  std::unique_ptr<PlanCache> plan_cache;

  /// Admission accounting: the sum of running queries' charges.
  std::unique_ptr<MemoryBudget> admission;
  Mutex admission_mu;
  CondVar admission_cv;

  /// Warm executors — both live for the server's whole life, so thread
  /// batch pools and the process fleet stay warm across queries.
  std::unique_ptr<ThreadExecutor> thread_exec;
  std::unique_ptr<WarmProcessFleet> fleet;

  int listen_fd = -1;
  int wake_fd = -1;

  FairScheduler scheduler;

  Mutex results_mu;
  std::deque<ResultEnvelope> results MJOIN_GUARDED_BY(results_mu);

  /// Exec threads observe this to abandon admission waits at shutdown.
  std::atomic<bool> stop{false};
  /// The IO thread outlives `stop` so in-flight results still reach their
  /// clients; it exits only on this flag.
  std::atomic<bool> io_stop{false};
  std::vector<std::thread> exec_threads;
  std::thread io_thread;
  bool shut_down = false;

  void Wake() const {
    const uint64_t one = 1;
    // Best-effort: a full eventfd counter still wakes the IO thread.
    (void)!::write(wake_fd, &one, sizeof(one));
  }

  void PushResult(ResultEnvelope env) {
    {
      MutexLock lock(&results_mu);
      results.push_back(std::move(env));
    }
    Wake();
  }

  QueryResultMsg MakeResult(const QueryTask& task, const Status& status) {
    QueryResultMsg msg;
    msg.client_seq = task.submit.client_seq;
    msg.backend = task.submit.backend;
    msg.status_code = static_cast<int32_t>(status.code());
    msg.message = status.message();
    return msg;
  }

  void ExecLoop();
  Status ExecuteTask(const QueryTask& task, QueryResultMsg* out);
  void IoLoop();
};

// ---------------------------------------------------------------------------
// Query execution.

void MjoinServer::Impl::ExecLoop() {
  QueryTask task;
  while (scheduler.Pop(&task)) {
    QueryResultMsg msg;
    const Status status = ExecuteTask(task, &msg);
    msg.client_seq = task.submit.client_seq;
    msg.backend = task.submit.backend;
    msg.status_code = static_cast<int32_t>(status.code());
    msg.message = status.message();
    msg.queue_seconds = Seconds(Now() - task.enqueued) - msg.wall_seconds;
    if (msg.queue_seconds < 0) msg.queue_seconds = 0;
    metrics.counter(status.ok() ? "serve.queries_ok" : "serve.queries_failed")
        ->Add(1);
    metrics.histogram("serve.queue_seconds")->Observe(msg.queue_seconds);
    if (status.ok()) {
      metrics.histogram("serve.wall_seconds")->Observe(msg.wall_seconds);
    }
    PushResult(ResultEnvelope{task.conn_id, std::move(msg)});
  }
}

Status MjoinServer::Impl::ExecuteTask(const QueryTask& task,
                                      QueryResultMsg* out) {
  const SubmitMsg& q = task.submit;
  if (q.deadline_ms < 0) {
    return Status::InvalidArgument("negative deadline_ms");
  }
  if (q.backend == ServeBackend::kProcess && fleet == nullptr) {
    return Status::FailedPrecondition(
        "process backend disabled on this server");
  }
  if (task.cancel.cancelled()) {
    return Status::Cancelled("client disconnected");
  }

  // Admission: block until the global budget has headroom for this query's
  // charge, bounded by its deadline and woken by both releases and
  // shutdown. The wait is re-armed every 50ms so a disconnect (which only
  // flips the token) is seen promptly.
  const uint64_t charge = q.memory_budget_bytes != 0
                              ? q.memory_budget_bytes
                              : options.default_query_bytes;
  if (!admission->unlimited() && charge > admission->limit()) {
    return Status::ResourceExhausted(
        "query declares a larger budget than the server's whole admission "
        "budget");
  }
  bool stalled = false;
  {
    MutexLock lock(&admission_mu);
    for (;;) {
      if (task.cancel.cancelled()) {
        return Status::Cancelled("client disconnected awaiting admission");
      }
      if (stop.load(std::memory_order_acquire)) {
        return Status::Unavailable("server shutting down");
      }
      if (admission->Reserve(charge).ok()) break;
      stalled = true;
      SteadyClock::time_point wait_until = Now() + std::chrono::milliseconds(50);
      if (task.deadline.has_value()) {
        if (*task.deadline <= Now()) {
          return Status::DeadlineExceeded("deadline expired awaiting admission");
        }
        wait_until = std::min(wait_until, *task.deadline);
      }
      (void)admission_cv.WaitUntil(admission_mu, wait_until);
    }
  }
  if (stalled) metrics.counter("serve.admission_stalls")->Add(1);
  struct AdmissionGuard {
    Impl* impl;
    uint64_t charge;
    ~AdmissionGuard() {
      impl->admission->Release(charge);
      impl->admission_cv.NotifyAll();
    }
  } guard{this, charge};

  // Plan: cache hit re-validates the full text; miss parses and inserts.
  bool cache_hit = false;
  MJOIN_ASSIGN_OR_RETURN(std::shared_ptr<const ParallelPlan> plan,
                         plan_cache->Lookup(q.plan_text, &cache_hit));
  out->plan_cache_hit = cache_hit;

  ThreadExecOptions exec;
  exec.batch_size = q.batch_size != 0 ? q.batch_size : 256;
  exec.memory_budget_bytes = q.memory_budget_bytes;
  exec.cancellation = task.cancel;
  exec.collect_metrics = q.collect_metrics;
  exec.metrics_registry = q.collect_metrics ? &metrics : nullptr;
  if (task.deadline.has_value()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        *task.deadline - Now());
    if (remaining <= std::chrono::milliseconds(0)) {
      return Status::DeadlineExceeded("deadline expired before execution");
    }
    exec.deadline = remaining;
  }

  if (q.backend == ServeBackend::kThread) {
    MJOIN_ASSIGN_OR_RETURN(QueryResult result,
                           thread_exec->Execute(*plan, exec));
    out->cardinality = result.result.cardinality;
    out->checksum = result.result.checksum;
    out->wall_seconds = result.seconds;
    out->attempts = 1;
    return Status::OK();
  }

  ProcessExecOptions popts;
  popts.exec = exec;
  // One respawn per query: a fleet poisoned by a crashed worker is rebuilt
  // and the query re-run once before the failure surfaces to the client.
  popts.max_retries = 1;
  MJOIN_ASSIGN_OR_RETURN(ProcessQueryResult result,
                         fleet->Execute(*plan, popts));
  out->cardinality = result.exec.result.cardinality;
  out->checksum = result.exec.result.checksum;
  out->wall_seconds = result.exec.seconds;
  out->attempts = result.proc.attempts;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Connection IO.

namespace {

struct Conn {
  uint64_t id = 0;
  std::unique_ptr<FrameChannel> chan;
  CancellationToken cancel;
};

}  // namespace

void MjoinServer::Impl::IoLoop() {
  std::unordered_map<uint64_t, Conn> conns;
  uint64_t next_conn_id = 1;
  Gauge* connections = metrics.gauge("serve.connections");

  const auto close_conn = [&](uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    // Aborts the connection's queued and running queries; their results
    // are dropped when they find no connection to deliver to.
    it->second.cancel.Cancel();
    conns.erase(it);
    connections->Add(-1);
  };

  const auto drain_results = [&] {
    std::deque<ResultEnvelope> batch;
    {
      MutexLock lock(&results_mu);
      batch.swap(results);
    }
    for (ResultEnvelope& env : batch) {
      auto it = conns.find(env.conn_id);
      if (it == conns.end()) continue;  // client already gone
      it->second.chan->QueueMsg(FrameType::kQueryResult, env.msg);
      if (Status s = it->second.chan->Flush(); !s.ok()) close_conn(env.conn_id);
    }
  };

  const auto handle_readable = [&](uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    FrameChannel* chan = it->second.chan.get();
    bool peer_closed = false;
    if (Status s = chan->ReadAvailable(&peer_closed); !s.ok()) {
      close_conn(id);
      return;
    }
    Frame frame;
    while (conns.count(id) != 0 && chan->NextFrame(&frame)) {
      if (frame.type == FrameType::kBye) {
        close_conn(id);
        return;
      }
      if (frame.type != FrameType::kSubmit) {
        close_conn(id);  // protocol violation
        return;
      }
      SubmitMsg submit;
      WireReader reader(frame.payload);
      if (Status s = DecodeMsg(&reader, &submit); !s.ok()) {
        close_conn(id);
        return;
      }
      QueryTask task;
      task.conn_id = id;
      task.submit = std::move(submit);
      task.enqueued = Now();
      if (task.submit.deadline_ms > 0) {
        task.deadline = task.enqueued +
                        std::chrono::milliseconds(task.submit.deadline_ms);
      }
      task.cancel = it->second.cancel;
      metrics.counter("serve.submits")->Add(1);
      scheduler.Push(std::move(task));
    }
    if (peer_closed) close_conn(id);
  };

  while (!io_stop.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<uint64_t> fd_conn;  // conn id per pollfd; 0 = not a conn
    fds.push_back({listen_fd, POLLIN, 0});
    fd_conn.push_back(0);
    fds.push_back({wake_fd, POLLIN, 0});
    fd_conn.push_back(0);
    for (const auto& [id, conn] : conns) {
      short events = POLLIN;
      if (conn.chan->has_pending_output()) events |= POLLOUT;
      fds.push_back({conn.chan->fd(), events, 0});
      fd_conn.push_back(id);
    }
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) break;

    if ((fds[1].revents & POLLIN) != 0) {
      uint64_t counter = 0;
      (void)!::read(wake_fd, &counter, sizeof(counter));
    }
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN (or a transient accept error): done
        if (Status s = SetNonBlocking(fd); !s.ok()) {
          ::close(fd);
          continue;
        }
        const uint64_t id = next_conn_id++;
        Conn conn;
        conn.id = id;
        conn.chan = std::make_unique<FrameChannel>(
            fd, "client " + std::to_string(id), LinkRole::kServer);
        conns.emplace(id, std::move(conn));
        connections->Add(1);
      }
    }
    for (size_t i = 2; i < fds.size(); ++i) {
      const uint64_t id = fd_conn[i];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        handle_readable(id);
      }
      auto it = conns.find(id);
      if (it != conns.end() && (fds[i].revents & POLLOUT) != 0) {
        if (Status s = it->second.chan->Flush(); !s.ok()) close_conn(id);
      }
    }
    drain_results();
  }

  // Final drain: deliver whatever the exec threads finished before the
  // stop flag, then drop the connections (closing their descriptors).
  drain_results();
  for (auto& [id, conn] : conns) {
    if (conn.chan->has_pending_output()) (void)conn.chan->Flush();
    conn.cancel.Cancel();
  }
  conns.clear();
}

// ---------------------------------------------------------------------------
// Lifecycle.

StatusOr<std::unique_ptr<MjoinServer>> MjoinServer::Start(
    const Database* database, MjoinServeOptions options) {
  if (database == nullptr) {
    return Status::InvalidArgument("null database");
  }
  if (options.exec_threads == 0) {
    return Status::InvalidArgument("exec_threads must be positive");
  }
  if (options.default_query_bytes == 0) {
    return Status::InvalidArgument("default_query_bytes must be positive");
  }
  // lint:allow-new private constructor; make_unique cannot reach it
  std::unique_ptr<MjoinServer> server(new MjoinServer());
  Impl* impl = server->impl_.get();
  impl->database = database;
  impl->options = std::move(options);
  impl->plan_cache = std::make_unique<PlanCache>(
      impl->options.plan_cache_capacity, impl->options.plan_cache_hash);
  impl->admission =
      std::make_unique<MemoryBudget>(impl->options.admission_budget_bytes);
  impl->thread_exec = std::make_unique<ThreadExecutor>(database);

  // The fleet forks before the listen socket exists, so no worker inherits
  // it. (Later respawns do run with server descriptors open; workers never
  // touch inherited descriptors.)
  if (impl->options.enable_process_backend) {
    MJOIN_ASSIGN_OR_RETURN(impl->fleet, WarmProcessFleet::Spawn(
                                            database, impl->options.fleet));
  }

  MJOIN_ASSIGN_OR_RETURN(impl->listen_fd,
                         BindListenSocket(impl->options.socket_path));
  impl->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (impl->wake_fd < 0) {
    return Status::Internal(std::string("eventfd(): ") + std::strerror(errno));
  }

  for (uint32_t i = 0; i < impl->options.exec_threads; ++i) {
    impl->exec_threads.emplace_back([impl] { impl->ExecLoop(); });
  }
  impl->io_thread = std::thread([impl] { impl->IoLoop(); });
  return server;
}

void MjoinServer::Shutdown() {
  Impl* impl = impl_.get();
  if (impl->shut_down) return;
  impl->shut_down = true;

  // 1. No new work: stop admission waits, close the scheduler, and fail
  //    everything still queued. Running queries drain normally.
  impl->stop.store(true, std::memory_order_release);
  impl->scheduler.Close();
  for (QueryTask& task : impl->scheduler.DrainAll()) {
    impl->PushResult(ResultEnvelope{
        task.conn_id,
        impl->MakeResult(task, Status::Unavailable("server shutting down"))});
  }
  for (std::thread& t : impl->exec_threads) {
    if (t.joinable()) t.join();
  }
  impl->exec_threads.clear();

  // 2. The IO thread flushes those final results, then exits.
  impl->io_stop.store(true, std::memory_order_release);
  if (impl->wake_fd >= 0) impl->Wake();
  if (impl->io_thread.joinable()) impl->io_thread.join();

  // 3. Tear down the endpoint and the warm fleet.
  if (impl->listen_fd >= 0) {
    ::close(impl->listen_fd);
    impl->listen_fd = -1;
    ::unlink(impl->options.socket_path.c_str());
  }
  if (impl->wake_fd >= 0) {
    ::close(impl->wake_fd);
    impl->wake_fd = -1;
  }
  impl->fleet.reset();
}

MjoinServer::MjoinServer() : impl_(std::make_unique<Impl>()) {}

MjoinServer::~MjoinServer() { Shutdown(); }

const std::string& MjoinServer::socket_path() const {
  return impl_->options.socket_path;
}

MetricsRegistry* MjoinServer::metrics() { return &impl_->metrics; }

PlanCacheStats MjoinServer::plan_cache_stats() const {
  return impl_->plan_cache->stats();
}

WarmProcessFleet* MjoinServer::fleet() { return impl_->fleet.get(); }

}  // namespace mjoin
