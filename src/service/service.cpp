#include "service/service.hpp"

#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "orchestrator/store_index.hpp"
#include "service/shard_planner.hpp"
#include "service/socket.hpp"
#include "service/worker_link.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace ao::service {
namespace {

using orchestrator::CampaignScheduler;
using orchestrator::ExperimentJob;
using orchestrator::JobKind;
using orchestrator::JobQueue;
using orchestrator::MeasurementRecord;
using obs::Metric;

/// Replies must stay line-oriented; exception text is folded onto one line.
std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  std::replace(text.begin(), text.end(), '\r', ' ');
  return text;
}

/// The structured error reply: stable code, message, and — when the failure
/// is about a specific input line — that line echoed back, so the client
/// can report exactly which of its request lines was rejected.
void reply_error(std::ostream& out, const std::string& code,
                 const std::string& message, const std::string& input = {}) {
  out << "error " << code << ' ' << one_line(message);
  if (!input.empty()) {
    out << " | line: " << one_line(input);
  }
  out << '\n';
}

/// Records a campaign will stream: one per job that produces a cacheable
/// record (every kind except the verify jobs, whose verdict rides on the
/// measurement's record).
std::size_t expected_record_count(
    const std::vector<orchestrator::Campaign::JobGroup>& groups) {
  std::size_t count = 0;
  for (const auto& group : groups) {
    for (const auto& job : group.jobs) {
      if (orchestrator::is_cacheable(job.kind)) {
        ++count;
      }
    }
  }
  return count;
}

using Leases = std::vector<std::unique_ptr<WorkerRegistry::Lease>>;

/// How long a local worker may take to send its hello. A far end that never
/// speaks the protocol (a misconfigured worker binary) fails the campaign
/// instead of hanging it.
constexpr int kLocalHelloTimeoutMs = 30000;

/// The campaign-scoped fleet behind local shards. Each endpoint is one end
/// of a socketpair whose far end speaks the worker frame protocol: an
/// `ao_worker --stdio-frames --name local` child (the socket dup'd onto its
/// stdin/stdout), or — with no worker binary configured — a thread running
/// run_worker_session(). Every far end that sends its hello is acked and
/// parked in a private WorkerRegistry, exactly like a connecting remote
/// worker, so local shards ride the same lease/driver loop. The destructor
/// shuts the registry down (parked endpoints get their `bye`), joins every
/// thread and reaps every child: nothing outlives the campaign.
class LocalFleet {
 public:
  LocalFleet(const std::string& worker_binary, std::size_t count) {
    try {
      start(worker_binary, count);
    } catch (...) {
      stop();  // the destructor will not run for a half-built fleet
      throw;
    }
  }

  ~LocalFleet() { stop(); }

  LocalFleet(const LocalFleet&) = delete;
  LocalFleet& operator=(const LocalFleet&) = delete;

  WorkerRegistry& registry() { return registry_; }
  /// The first endpoint that failed to start, "" when every one parked.
  const std::string& error() const { return error_; }

  /// One lease per parked endpoint. Each acquire returns as soon as that
  /// endpoint's park thread has registered it.
  Leases lease_all() {
    Leases leases;
    while (leases.size() < parked_) {
      auto lease = registry_.acquire(kLocalHelloTimeoutMs);
      if (lease == nullptr) {
        break;
      }
      leases.push_back(std::move(lease));
    }
    return leases;
  }

 private:
  void start(const std::string& worker_binary, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
        note_error(std::string("socketpair failed: ") + std::strerror(errno));
        continue;
      }
      if (!start_far_end(worker_binary, fds[1])) {
        ::close(fds[0]);
        continue;
      }
      pollfd ready{fds[0], POLLIN, 0};
      auto stream = std::make_unique<SocketStream>(fds[0]);
      std::string hello;
      bool oversize = false;
      if (::poll(&ready, 1, kLocalHelloTimeoutMs) != 1 ||
          !read_request_line(*stream, hello, oversize) || oversize ||
          hello.rfind("worker ", 0) != 0) {
        // Closing the stream tells a far end that is still alive to exit.
        note_error("local worker exited before its hello");
        continue;
      }
      *stream << "ok worker local\n";
      stream->flush();
      ++parked_;
      threads_.emplace_back([this, stream = std::move(stream)] {
        registry_.park("local", *stream, *stream);
      });
    }
  }

  /// Parked endpoints get their `bye` (the far ends exit on it), then
  /// every thread is joined and every child reaped.
  void stop() {
    registry_.shutdown();
    for (std::thread& thread : threads_) {
      thread.join();
    }
    threads_.clear();
    for (const pid_t pid : children_) {
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    children_.clear();
  }

  /// Starts the far end on `fd` (which this call closes on every path but
  /// the thread one, where the thread owns it).
  bool start_far_end(const std::string& worker_binary, int fd) {
    if (worker_binary.empty()) {
      threads_.emplace_back([fd] {
        SocketStream stream(fd);
        run_worker_session(stream, stream, "local");
      });
      return true;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fd, STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, fd, STDOUT_FILENO);
    const char* argv[] = {worker_binary.c_str(), "--stdio-frames", "--name",
                          "local", nullptr};
    pid_t pid = 0;
    const int rc =
        ::posix_spawn(&pid, worker_binary.c_str(), &actions, nullptr,
                      const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fd);
    if (rc != 0) {
      note_error("cannot start " + worker_binary + ": " + std::strerror(rc));
      return false;
    }
    children_.push_back(pid);
    return true;
  }

  void note_error(const std::string& message) {
    if (error_.empty()) {
      error_ = message;
    }
  }

  WorkerRegistry registry_;  // heartbeat 0: the endpoints live one campaign
  std::vector<std::thread> threads_;  ///< park threads + in-process workers
  std::vector<pid_t> children_;
  std::size_t parked_ = 0;
  std::string error_;
};

}  // namespace

/// Checks a scheduler out of the idle pool (or builds one) for exactly one
/// campaign. Concurrent campaigns each hold their own scheduler — run() is
/// not reentrant per instance — while sequential campaigns that agree on
/// options and concurrency reuse a warm SystemPool.
class CampaignService::SchedulerLease {
 public:
  SchedulerLease(CampaignService& service, const CampaignRequest& request)
      : service_(&service) {
    key_ = orchestrator::options_fingerprint(request.options());
    key_ = util::fnv1a_mix(key_, request.workers);
    {
      std::lock_guard lock(service.scheduler_pool_mutex_);
      const auto it = service.idle_schedulers_.find(key_);
      if (it != service.idle_schedulers_.end()) {
        scheduler_ = std::move(it->second);
        service.idle_schedulers_.erase(it);
      }
    }
    if (scheduler_ == nullptr) {
      CampaignScheduler::Options options;
      options.concurrency = request.workers;
      scheduler_ = std::make_unique<CampaignScheduler>(request.options(),
                                                       options,
                                                       &service.cache_);
    }
  }

  ~SchedulerLease() {
    std::lock_guard lock(service_->scheduler_pool_mutex_);
    if (service_->idle_schedulers_.size() < kMaxIdle) {
      service_->idle_schedulers_.emplace(key_, std::move(scheduler_));
    }
    // Beyond the cap the scheduler (and its SystemPool) is simply dropped —
    // bounded memory beats a marginally warmer pool.
  }

  CampaignScheduler& scheduler() { return *scheduler_; }

 private:
  static constexpr std::size_t kMaxIdle = 8;
  CampaignService* service_;
  std::uint64_t key_ = 0;
  std::unique_ptr<CampaignScheduler> scheduler_;
};

CampaignService::CampaignService(Config config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      plan_cache_(config_.plan_cache_capacity),
      queue_(config_.limits),
      profiler_(config_.profile_clock) {
  if (!config_.store_path.empty()) {
    cache_.load(config_.store_path);
    cache_.persist_to(config_.store_path);
  }
  // The warm cache records its own serialize/merge spans — the service never
  // wraps cache calls itself, so shard merges are counted exactly once.
  cache_.set_profiler(&profiler_);
  registry_.configure({config_.heartbeat_interval_ns, config_.worker_clock});
}

std::string CampaignService::cancel_code(const CancelState& state) const {
  if (state.abort.load(std::memory_order_acquire)) {
    return "aborted";
  }
  if (state.deadline_ns != 0 && profiler_.now() >= state.deadline_ns) {
    return "deadline-exceeded";
  }
  return {};
}

void CampaignService::note_cancelled(const std::string& code) {
  metrics_.add({{code == "deadline-exceeded"
                     ? Metric::kCampaignsDeadlineExpiredTotal
                     : Metric::kCampaignsAbortedTotal,
                 1}});
}

std::vector<CampaignService::CampaignTimeline> CampaignService::timelines()
    const {
  std::lock_guard lock(profile_mutex_);
  return {timelines_.begin(), timelines_.end()};
}

std::vector<std::string> CampaignService::start_log() const {
  std::lock_guard lock(start_log_mutex_);
  return start_log_;
}

bool CampaignService::serve(std::istream& in, std::ostream& out) {
  RequestBuilder builder;
  std::string line;
  bool oversize = false;
  while (read_request_line(in, line, oversize)) {
    if (oversize) {
      reply_error(out, "bad-request",
                  "request line longer than " +
                      std::to_string(kMaxRequestLineBytes) + " bytes");
      out.flush();
      continue;
    }
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const std::vector<std::string> words = split_words(line);
    if (words.empty()) {
      continue;
    }
    try {
      if (builder.open()) {
        if (words[0] == "run") {
          const CampaignRequest request = builder.take();
          if (request.chips.empty()) {
            reply_error(out, "bad-request", "campaign needs a 'chips' line",
                        line);
          } else if (!request.has_work()) {
            reply_error(out, "bad-request",
                        "empty campaign: no job family requested", line);
          } else {
            run_campaign(request, out);
          }
        } else if (words[0] == "abort") {
          builder.discard();
          out << "ok abort\n";
        } else if (words[0] == "begin") {
          reply_error(out, "bad-state",
                      "nested begin (finish the open request with 'run' or "
                      "'abort')",
                      line);
        } else if (const auto error = builder.apply(line)) {
          reply_error(out, error->code, error->message, line);
        }
      } else if (words[0] == "begin") {
        if (const auto error =
                builder.begin(words.size() > 1 ? words[1] : "")) {
          reply_error(out, error->code, error->message, line);
        }
      } else if (words[0] == "worker") {
        // A remote shard worker announcing itself. The session converts
        // into a parked worker endpoint: park() blocks until the worker
        // dies (failure or shutdown), and campaign threads run frame
        // conversations over the connection in the meantime.
        const std::string requested = words.size() > 1 ? words[1] : "";
        if (!requested.empty() && !valid_campaign_name(requested)) {
          reply_error(out, "bad-name",
                      "invalid worker name (use [A-Za-z0-9._-], at most 64 "
                      "chars)",
                      line);
        } else {
          const std::string name =
              requested.empty()
                  ? "worker-" + std::to_string(next_worker_id_.fetch_add(1))
                  : requested;
          out << "ok worker " << name << '\n';
          out.flush();
          registry_.park(name, in, out);
          return false;  // the connection belonged to the worker
        }
      } else if (words[0] == "queue") {
        // Waiting campaigns in admission order; the terminal `queue` line
        // is what clients stop reading at.
        const auto waiting = queue_.waiting();
        for (const auto& entry : waiting) {
          out << "queue-entry " << entry.position << " name " << entry.name
              << " client " << entry.client << " priority " << entry.priority
              << " resources " << resources_to_string(entry.resources)
              << '\n';
        }
        out << "queue waiting " << waiting.size() << " running "
            << queue_.running_count() << '\n';
      } else if (words[0] == "abort") {
        // Cancel campaigns by name: queued ones are evicted before they ever
        // claim resources, running ones stop cooperatively at their next
        // between-jobs / between-shards check. The reply counts handles
        // flipped *now*; already-aborted campaigns are not counted twice.
        if (words.size() < 2) {
          reply_error(out, "bad-request", "abort needs a campaign name", line);
        } else {
          std::size_t cancelled = 0;
          {
            std::lock_guard lock(active_mutex_);
            for (const auto& state : active_) {
              if (state->name == words[1] &&
                  !state->abort.exchange(true, std::memory_order_acq_rel)) {
                ++cancelled;
                if (state->outbox != nullptr) {
                  // Discard queued records and unblock producers stalled on
                  // a slow client — abort must cut the campaign loose even
                  // from a session that stopped reading.
                  state->outbox->cancel();
                }
              }
            }
          }
          queue_.poke();  // queued tickets re-check their cancel predicate
          out << "ok abort " << words[1] << " cancelled " << cancelled << '\n';
        }
      } else if (words[0] == "ping") {
        out << "pong\n";
      } else if (words[0] == "stats") {
        // Connected workers and per-client queue depth/concurrency first;
        // the aggregate `stats` line is the terminal reply clients stop
        // reading at.
        for (const auto& worker : registry_.snapshot()) {
          // rtt-ns and clock-offset-ns are heartbeat estimates; both read 0
          // until the first sweep pings the endpoint (and the offset stays 0
          // for a worker whose pongs carry no clock reading).
          out << "stats-worker " << worker.name << ' '
              << (worker.idle ? "idle" : "busy") << " shards " << worker.shards
              << " busy-ns " << worker.busy_ns << " last-seen-ns "
              << worker.last_seen_age_ns << " rtt-ns " << worker.rtt_ns
              << " clock-offset-ns "
              << (worker.has_clock_offset ? worker.clock_offset_ns : 0)
              << '\n';
        }
        for (const auto& [client, s] : queue_.client_stats()) {
          out << "stats-client " << client << " queued " << s.queued
              << " running " << s.running << '\n';
        }
        // Lifetime per-phase time aggregates (only phases that ever recorded
        // a span), then the aggregate line — one registry snapshot for both.
        const obs::MetricsRegistry::Snapshot m = metrics_.snapshot();
        const auto& phases =
            m.histograms[static_cast<std::size_t>(Metric::kPhaseDurationNs)];
        for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
          const char* phase = obs::phase_name(static_cast<obs::Phase>(i));
          const auto it = phases.find(phase);
          if (it != phases.end()) {
            out << "stats-phase " << phase << " count " << it->second.count
                << " total-ns " << it->second.sum << '\n';
          }
        }
        const orchestrator::PlanCache::Stats plans = plan_cache_.stats();
        out << "stats campaigns " << m[Metric::kCampaignsTotal] << " sharded "
            << m[Metric::kCampaignsShardedTotal] << " records "
            << m[Metric::kRecordsStreamedTotal] << " executed "
            << m[Metric::kJobsExecutedTotal] << " hits "
            << m[Metric::kCacheHitsTotal] << " merged "
            << m[Metric::kMergedEntriesTotal] << " cache-entries "
            << cache_.size() << " store-entries " << cache_.store_entries()
            << " running " << queue_.running_count() << " queued "
            << queue_.queued_count() << " peak " << queue_.peak_running()
            << " rejected " << queue_.rejections() << " remote-shards "
            << m[Metric::kRemoteShardsTotal] << " workers "
            << registry_.connected_count() << " idle-workers "
            << registry_.idle_count() << " aborted "
            << m[Metric::kCampaignsAbortedTotal] << " deadline-expired "
            << m[Metric::kCampaignsDeadlineExpiredTotal] << " shard-retries "
            << m[Metric::kShardRetriesTotal] << " outbox-peak "
            << m[Metric::kOutboxPeakDepth] << " outbox-blocked "
            << m[Metric::kOutboxBlockedTotal] << " outbox-dropped "
            << m[Metric::kOutboxDroppedTotal] << " plan-hits " << plans.hits
            << " plan-misses " << plans.misses << " plan-entries "
            << plans.size << " queries " << m[Metric::kQueriesTotal]
            << " query-records " << m[Metric::kQueryRecordsTotal]
            << " follows " << m[Metric::kFollowsTotal] << " stale-cursors "
            << m[Metric::kStaleCursorsTotal] << '\n';
      } else if (words[0] == "query") {
        reply_query(words, line, out);
      } else if (words[0] == "follow") {
        reply_follow(words, line, out);
      } else if (words[0] == "profile") {
        reply_profile(words.size() > 1 ? words[1] : "", out);
      } else if (words[0] == "metrics") {
        reply_metrics(out);
      } else if (words[0] == "compact") {
        if (cache_.persist_path().empty()) {
          reply_error(out, "no-store", "no write-through store attached",
                      line);
        } else {
          out << "ok compact " << cache_.compact() << " entries\n";
        }
      } else if (words[0] == "shutdown") {
        // Wake every parked worker session (they send their `bye` frames
        // and end) before telling the caller to stop accepting.
        registry_.shutdown();
        out << "ok shutdown\n";
        out.flush();
        return true;
      } else {
        reply_error(out, "unknown-command", "unknown command: " + words[0],
                    line);
      }
    } catch (const std::exception& e) {
      reply_error(out, "exec-failed", e.what(), line);
    }
    out.flush();
  }
  return false;
}

void CampaignService::reply_profile(const std::string& name,
                                    std::ostream& out) const {
  CampaignTimeline timeline;
  bool found = false;
  {
    std::lock_guard lock(profile_mutex_);
    for (auto it = timelines_.rbegin(); it != timelines_.rend(); ++it) {
      if (name.empty() || it->name == name) {
        timeline = *it;  // newest retained (of that name, when given)
        found = true;
        break;
      }
    }
  }
  if (!found) {
    out << "profile campaign 0 name - client - spans 0\n";
    return;
  }
  // Span lines first (id order = parents before children), then the
  // per-phase aggregates, then the terminal `profile` line clients stop
  // reading at. The origin is one token (`-` for local spans); the
  // free-text label goes last so spaces survive.
  for (const obs::Span& span : timeline.spans) {
    out << "profile-span " << span.id << ' ' << span.parent << ' '
        << obs::phase_name(span.phase) << ' ' << span.start_ns << ' '
        << span.duration_ns << ' '
        << (span.origin.empty() ? "-" : span.origin) << ' '
        << (span.label.empty() ? "-" : one_line(span.label)) << '\n';
  }
  for (const auto& [phase, stats] : obs::phase_stats(timeline.spans)) {
    out << "profile-phase " << obs::phase_name(phase) << " count "
        << stats.count << " total-ns " << stats.total_ns << " p50-ns "
        << stats.p50_ns << " p95-ns " << stats.p95_ns << " max-ns "
        << stats.max_ns << '\n';
  }
  out << "profile campaign " << timeline.id << " name " << timeline.name
      << " client " << timeline.client << " spans " << timeline.spans.size()
      << '\n';
}

void CampaignService::reply_metrics(std::ostream& out) {
  // Counters settle where their events happen; only the samples the queue,
  // the plan cache and the worker registry own are restated here.
  const auto restate = [&](Metric metric, std::size_t value) {
    metrics_.set(metric, static_cast<std::int64_t>(value));
  };
  restate(Metric::kQueueRejectedTotal, queue_.rejections());
  const orchestrator::PlanCache::Stats plans = plan_cache_.stats();
  restate(Metric::kPlanCacheHitsTotal, plans.hits);
  restate(Metric::kPlanCacheMissesTotal, plans.misses);
  restate(Metric::kQueueDepth, queue_.queued_count());
  restate(Metric::kCampaignsRunning, queue_.running_count());
  restate(Metric::kWorkersConnected, registry_.connected_count());
  restate(Metric::kWorkersIdle, registry_.idle_count());
  // Per-endpoint gauges are rebuilt from scratch: a retired worker's series
  // must vanish from the exposition, not linger at its last value. Each
  // family is swapped atomically — sessions run on their own threads, and a
  // concurrent scrape must never see the rebuild half-done.
  std::map<std::string, std::int64_t> rtt_by_worker;
  std::map<std::string, std::int64_t> offset_by_worker;
  for (const auto& worker : registry_.snapshot()) {
    if (worker.rtt_ns != 0) {
      rtt_by_worker[worker.name] = static_cast<std::int64_t>(worker.rtt_ns);
    }
    if (worker.has_clock_offset) {
      offset_by_worker[worker.name] = worker.clock_offset_ns;
    }
  }
  metrics_.replace(Metric::kWorkerRttNs, std::move(rtt_by_worker));
  metrics_.replace(Metric::kWorkerClockOffsetNs, std::move(offset_by_worker));
  out << metrics_.render();
}

void CampaignService::finish_campaign_profile(std::uint64_t root_span,
                                              std::uint64_t id,
                                              const std::string& name,
                                              const std::string& client) {
  std::vector<obs::Span> spans = profiler_.drain();
  std::lock_guard lock(profile_mutex_);
  // Re-adopt the orphan pool: spans drained by earlier finishes while this
  // campaign was still running live there.
  spans.insert(spans.end(), orphan_spans_.begin(), orphan_spans_.end());
  std::sort(spans.begin(), spans.end(),
            [](const obs::Span& a, const obs::Span& b) { return a.id < b.id; });
  std::vector<obs::Span> mine = obs::span_subtree(spans, root_span);

  // Everything outside this campaign's subtree belongs to a concurrent
  // campaign that has not finished yet — keep it (newest first under the
  // cap) for that campaign's own finish.
  std::unordered_set<std::uint64_t> mine_ids;
  mine_ids.reserve(mine.size());
  for (const obs::Span& span : mine) {
    mine_ids.insert(span.id);
  }
  orphan_spans_.clear();
  for (obs::Span& span : spans) {
    if (mine_ids.count(span.id) == 0) {
      orphan_spans_.push_back(std::move(span));
    }
  }
  if (orphan_spans_.size() > kMaxOrphanSpans) {
    orphan_spans_.erase(orphan_spans_.begin(),
                        orphan_spans_.end() -
                            static_cast<std::ptrdiff_t>(kMaxOrphanSpans));
  }

  // Feed the per-phase duration histograms behind `stats-phase` and the
  // `metrics` exposition — incremental, so a scrape between two campaigns
  // stays monotone.
  for (const obs::Span& span : mine) {
    metrics_.observe(Metric::kPhaseDurationNs, span.duration_ns,
                     obs::phase_name(span.phase));
  }

  if (!config_.profile_dir.empty()) {
    const std::string path = config_.profile_dir + "/" + name + "-c" +
                             std::to_string(id) + ".profile.json";
    std::ofstream artifact(path, std::ios::trunc);
    if (artifact) {
      artifact << obs::timeline_json(id, name, client, mine);
    }
    // An unwritable profile dir only costs the artifact, never the campaign.
  }

  timelines_.push_back({id, name, client, std::move(mine)});
  if (timelines_.size() > kMaxTimelines) {
    timelines_.pop_front();
  }
}

void CampaignService::run_campaign(const CampaignRequest& request,
                                   std::ostream& session_out) {
  // The campaign's root span: every phase of its lifecycle — admission,
  // queue wait, scheduling, shards, merges — nests under it, by thread-local
  // inheritance on this session thread and by explicit parent id on shard
  // driver and scheduler worker threads.
  obs::TimelineProfiler::Scope root(&profiler_, obs::Phase::kCampaign,
                                    /*parent=*/0, request.name);

  // Admission first: the queue decides whether this campaign may run now
  // (disjoint resource classes), must wait (conflict / quota / global
  // concurrency), or is rejected outright (queued-campaign quota).
  const ResourceMask resources = resources_for(request);
  CampaignQueue::Rejection rejection;
  std::unique_ptr<CampaignQueue::Ticket> ticket;
  {
    obs::TimelineProfiler::Scope admission(&profiler_, obs::Phase::kAdmission);
    ticket = queue_.submit(request.client, request.priority, resources,
                           &rejection, request.name);
  }
  if (ticket == nullptr) {
    session_out << "preempted-by-quota client " << request.client
                << " campaign " << request.name << '\n';
    reply_error(session_out, rejection.code, rejection.message, "run");
    session_out.flush();
    return;
  }

  // From here on every line the campaign writes flows through its bounded
  // outbox: record/progress lines are subject to backpressure (and dropped
  // after an abort), events and replies always get through. The real
  // session stream is only touched by the outbox's writer thread.
  SessionOutbox outbox(session_out, config_.outbox_capacity);
  OutboxStream out(outbox);

  auto cancel = std::make_shared<CancelState>();
  cancel->name = request.name;
  cancel->deadline_ns =
      request.deadline_ms == 0
          ? 0
          : profiler_.now() + request.deadline_ms * 1'000'000ull;
  cancel->outbox = &outbox;
  {
    std::lock_guard lock(active_mutex_);
    active_.push_back(cancel);
  }
  // Unregisters the cancel handle BEFORE the outbox dies (the abort command
  // dereferences state->outbox only for registered handles, under the same
  // lock), then counts the outbox's flow-control accounting.
  struct ActiveGuard {
    CampaignService& service;
    std::shared_ptr<CancelState> state;
    SessionOutbox& outbox;
    ~ActiveGuard() {
      {
        std::lock_guard lock(service.active_mutex_);
        state->outbox = nullptr;
        auto& active = service.active_;
        active.erase(std::remove(active.begin(), active.end(), state),
                     active.end());
      }
      outbox.close();
      const SessionOutbox::Stats stats = outbox.stats();
      service.metrics_.set_max(Metric::kOutboxPeakDepth, stats.high_water);
      service.metrics_.add({{Metric::kOutboxBlockedTotal, stats.blocked},
                            {Metric::kOutboxDroppedTotal, stats.dropped}});
    }
  } active_guard{*this, cancel, outbox};

  const std::uint64_t id = next_campaign_id_.fetch_add(1);
  cancel->id = id;
  std::size_t jobs = 0;
  std::size_t expected_records = 0;
  std::size_t shard_count = 0;
  std::size_t group_count = 0;
  std::shared_ptr<const orchestrator::CompiledCampaign> compiled;
  {
    // Request expansion and shard sizing — the first `schedule` span; the
    // sharded path records another around its plan proper. Nested inside it,
    // a `plan` span labelled hit/miss covers the compiled-plan checkout
    // (compile time lands inside it on a miss).
    obs::TimelineProfiler::Scope schedule(&profiler_, obs::Phase::kSchedule,
                                          obs::TimelineProfiler::kInheritParent,
                                          "expand");
    const std::uint64_t plan_start = profiler_.now();
    bool compiled_here = false;
    compiled = plan_cache_.checkout(plan_key(request), [&] {
      compiled_here = true;
      return orchestrator::compile_campaign(request.to_campaign());
    });
    profiler_.record(obs::Phase::kPlan, plan_start, profiler_.now(),
                     schedule.id(), compiled_here ? "miss" : "hit");
    group_count = compiled->groups.size();
    jobs = compiled->job_count;
    expected_records = expected_record_count(compiled->groups);
    // Never more shards than groups; a surplus would only spawn idle
    // workers.
    shard_count = std::min(request.shards, group_count);
  }

  // The header goes out before admission completes, so a queued client
  // knows its campaign id (and resource claim) while it waits.
  out << "ok campaign " << id << " jobs " << jobs << " records "
      << expected_records << " shards "
      << std::max<std::size_t>(1, shard_count) << " resources "
      << resources_to_string(resources) << " priority " << request.priority
      << " client " << request.client << '\n';
  out.flush();

  bool started = false;
  std::string queue_cancel;
  {
    // Time spent behind conflicting campaigns / quotas. Recorded even when
    // admission was immediate (a near-zero span documents the fast path).
    obs::TimelineProfiler::Scope queue_wait(&profiler_, obs::Phase::kQueueWait);
    started = ticket->wait(
        [&](std::size_t position) {
          out << "queued " << position << '\n';
          out.flush();
        },
        [&] {
          queue_cancel = cancel_code(*cancel);
          return !queue_cancel.empty();
        });
  }
  if (!started) {
    // Cancelled while still queued: the campaign never claimed resources —
    // report the eviction and release the ticket's queue slot.
    const std::uint64_t now = profiler_.now();
    profiler_.record(obs::Phase::kAbort, now, now, root.id(), queue_cancel);
    note_cancelled(queue_cancel);
    out << queue_cancel << " campaign " << id << '\n';
    out << "error " << queue_cancel << " campaign " << id
        << " cancelled while queued\n";
    out.flush();
    root.close();
    finish_campaign_profile(root.id(), id, request.name, request.client);
    return;
  }
  {
    std::lock_guard lock(start_log_mutex_);
    // Bounded start history (the queue tests assert admission order on it;
    // stats introspection reads it) — a long-lived daemon must not grow it
    // per campaign forever.
    if (start_log_.size() >= kStartLogCapacity) {
      start_log_.erase(start_log_.begin());
    }
    start_log_.push_back(request.name);
  }
  out << "started campaign " << id << '\n';
  out.flush();

  // The campaign's follow journal: every record key in stream order, so a
  // disconnected client can replay the stream from the store later.
  const std::shared_ptr<CampaignJournal> journal =
      open_journal(id, request.name);

  // The cooperative stop hook the execution paths poll wherever stopping is
  // safe: between scheduler jobs, between remote shards, around the local
  // fallback. It never interrupts a measurement mid-flight.
  const orchestrator::StopFn should_stop = [this, cancel] {
    return cancel_code(*cancel);
  };

  // remote_only means sharded requests NEVER execute on this host — even
  // when the group count collapses the effective shard count to 1, the
  // single shard still goes to a remote worker (an operator running a
  // fleet daemon relies on that isolation; docs/operations.md).
  if (shard_count > 1 ||
      (config_.remote_only && request.shards > 1 && group_count != 0)) {
    run_sharded(request, compiled, id, std::max<std::size_t>(1, shard_count),
                expected_records, root.id(), should_stop, journal.get(), out);
  } else {
    run_in_process(request, compiled, id, expected_records, root.id(),
                   should_stop, journal.get(), out);
  }
  {
    // A journal that reaches this point replayed every record the campaign
    // settled; follow replies report it as `complete` (a cancelled campaign
    // keeps whatever it streamed before the cut, marked `partial`).
    std::lock_guard lock(journal_mutex_);
    journal->complete = cancel_code(*cancel).empty();
  }
  // The root span closes here so the drain below sees it; the timeline,
  // phase histograms and (optionally) the JSON artifact settle with it.
  root.close();
  finish_campaign_profile(root.id(), id, request.name, request.client);
  // `ticket` dies here: the resource claim is released and the next
  // conflicting campaign in the queue wakes up.
}

void CampaignService::write_record(CampaignJournal* journal,
                                   const orchestrator::CacheKey& key,
                                   const std::string& entry,
                                   std::size_t& streamed,
                                   std::size_t expected_records,
                                   std::ostream& out) {
  journal_append(journal, key);
  out << "record " << entry << '\n';
  ++streamed;
  out << "progress " << streamed << "/" << expected_records << '\n';
  out.flush();
}

void CampaignService::run_in_process(
    const CampaignRequest& request,
    const std::shared_ptr<const orchestrator::CompiledCampaign>& compiled,
    std::uint64_t id, std::size_t expected_records, std::uint64_t root_span,
    const orchestrator::StopFn& should_stop, CampaignJournal* journal,
    std::ostream& out) {
  JobQueue queue;
  orchestrator::push_groups(queue, compiled->groups);

  const std::uint64_t options_fp =
      orchestrator::options_fingerprint(request.options());
  std::mutex out_mutex;  // workers stream concurrently
  std::size_t streamed = 0;
  orchestrator::CampaignOutputs outputs;
  SchedulerLease lease(*this, request);
  // Per-job `execute` spans, parented under this campaign's root (worker
  // threads carry no inherited scope). The sink is cleared before the lease
  // returns the scheduler to the pool — the next campaign sets its own.
  lease.scheduler().set_profile_sink(&profiler_, root_span);
  struct SinkGuard {
    CampaignScheduler& scheduler;
    ~SinkGuard() { scheduler.set_profile_sink(nullptr); }
  } sink_guard{lease.scheduler()};
  try {
    outputs = lease.scheduler().run(
        queue, [&](const ExperimentJob& job, const MeasurementRecord& record,
                   bool /*from_cache*/) {
          // Record encoding + streamed write — a `serialize` span nested
          // under the job's `execute` span (the callback runs inside it).
          obs::TimelineProfiler::Scope serialize(
              &profiler_, obs::Phase::kSerialize,
              obs::TimelineProfiler::kInheritParent, "record");
          const orchestrator::CacheKey key =
              orchestrator::key_for_job(job, options_fp);
          const std::string entry =
              orchestrator::format_store_entry(key, record);
          std::lock_guard lock(out_mutex);
          write_record(journal, key, entry, streamed, expected_records, out);
        },
        should_stop);
  } catch (const orchestrator::CampaignStopped& e) {
    // The stop predicate fired between jobs: settled records kept their
    // cache entries, so a resubmit completes only the remainder.
    const std::uint64_t now = profiler_.now();
    profiler_.record(obs::Phase::kAbort, now, now, root_span, e.code());
    note_cancelled(e.code());
    metrics_.add({{Metric::kRecordsStreamedTotal, streamed}});
    out << e.code() << " campaign " << id << '\n';
    out << "error " << e.code() << " campaign " << id << " records "
        << streamed << " of " << expected_records << " streamed before stop\n";
    return;
  } catch (const std::exception& e) {
    // The scheduler is poisoned only for this run; the next campaign gets a
    // fresh run() on the same pool.
    out << "error exec-failed campaign " << id << " failed: "
        << one_line(e.what()) << '\n';
    return;
  }

  metrics_.add({{Metric::kCampaignsTotal, 1},
                {Metric::kRecordsStreamedTotal, streamed},
                {Metric::kJobsExecutedTotal, outputs.stats.jobs_executed},
                {Metric::kCacheHitsTotal, outputs.stats.cache_hits}});
  out << "done campaign " << id << " records " << streamed << " executed "
      << outputs.stats.jobs_executed << " hits " << outputs.stats.cache_hits
      << '\n';
}

/// One sharded campaign's client stream and settlement state, shared by its
/// dispatch rounds: remote workers first, then the local fleet for whatever
/// they left. While drivers run, the stream fields (`seen`, `streamed`,
/// `out`) are guarded by the round's out_mutex and `retries` by its
/// work_mutex.
struct CampaignService::ShardDispatch {
  const CampaignRequest& request;
  std::size_t expected_records;
  std::uint64_t root_span;
  const orchestrator::StopFn& should_stop;
  CampaignJournal* journal;
  std::ostream& out;
  /// Every entry line this campaign has streamed. A shard retried after its
  /// worker died replays records its first attempt already shipped; the set
  /// keeps the client's record stream exactly-once (identical keys carry
  /// bit-identical records, so the line itself is the dedupe key).
  std::unordered_set<std::string> seen{};
  std::size_t streamed = 0;
  std::size_t merged = 0;
  std::size_t retries = 0;  ///< re-dispatches, against request.shard_retries
  std::string failure{};    ///< the first structured failure; "" = none

  bool stopped() const { return should_stop && !should_stop().empty(); }
};

void CampaignService::run_sharded(
    const CampaignRequest& request,
    const std::shared_ptr<const orchestrator::CompiledCampaign>& compiled,
    std::uint64_t id, std::size_t shard_count, std::size_t expected_records,
    std::uint64_t root_span, const orchestrator::StopFn& should_stop,
    CampaignJournal* journal, std::ostream& out) {
  const std::vector<orchestrator::Campaign::JobGroup>& groups =
      compiled->groups;
  const std::uint64_t options_fp =
      orchestrator::options_fingerprint(request.options());
  ShardDispatch run{request, expected_records, root_span, should_stop,
                    journal, out};

  // Warm-cache serving + shard planning are scheduling work — one `schedule`
  // span (nested under the campaign root, still open on this thread).
  obs::TimelineProfiler::Scope schedule(&profiler_, obs::Phase::kSchedule,
                                        obs::TimelineProfiler::kInheritParent,
                                        "plan-shards");

  // Serve every group the warm cache already holds before planning shards:
  // a sharded rerun streams its repeated points instantly and only the
  // missing groups cost a worker. Each group has exactly one cacheable job
  // — its root — so a root hit settles the whole group.
  std::size_t warm_hits = 0;
  std::vector<std::size_t> pending;  // group indices the workers must run
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const ExperimentJob& root = groups[i].jobs.front();
    const orchestrator::CacheKey key =
        orchestrator::key_for_job(root, options_fp);
    std::optional<MeasurementRecord> hit;
    if (orchestrator::is_cacheable(root.kind)) {
      hit = cache_.lookup(key);
    }
    if (hit.has_value()) {
      const std::string entry = orchestrator::format_store_entry(key, *hit);
      run.seen.insert(entry);
      write_record(journal, key, entry, run.streamed, expected_records, out);
      ++warm_hits;
    } else {
      pending.push_back(i);
    }
  }

  // Plan only the pending groups; plan indices are positions in `pending`,
  // mapped back to campaign group indices for the workers.
  std::vector<orchestrator::Campaign::JobGroup> pending_groups;
  pending_groups.reserve(pending.size());
  for (const std::size_t index : pending) {
    pending_groups.push_back(groups[index]);
  }
  const std::vector<std::vector<std::size_t>> shard_groups =
      plan_shards(pending_groups,
                  std::max<std::size_t>(1, std::min(shard_count,
                                                    pending.size())))
          .shard_groups;

  // Shard work lists: campaign group indices per non-empty shard. Remote
  // workers and the local fleet run them through the same driver loop.
  std::vector<ShardTask> tasks;
  for (std::size_t shard = 0; shard < shard_groups.size(); ++shard) {
    if (shard_groups[shard].empty()) {
      continue;
    }
    ShardTask task;
    task.shard_index = shard;
    for (const std::size_t pending_index : shard_groups[shard]) {
      task.groups.push_back(pending[pending_index]);
    }
    tasks.push_back(std::move(task));
  }
  schedule.close();

  std::size_t remote_executed = 0;
  bool remote = false;
  std::vector<ShardTask> local_tasks = tasks;
  if (!tasks.empty() &&
      (config_.remote_only || registry_.idle_count() > 0)) {
    // Connected `ao_worker --connect` processes first. Retire endpoints
    // that stopped answering before handing out leases: a worker that died
    // while parked must not cost a shard its first attempt. remote_only
    // waits for the first worker to connect (a launch race is normal
    // operations); otherwise only already-idle workers are taken, and every
    // worker snatched by a concurrent campaign leaves the shards local.
    registry_.heartbeat();
    Leases leases;
    auto lease =
        registry_.acquire(config_.remote_only ? config_.remote_wait_ms : 0);
    while (lease != nullptr) {
      leases.push_back(std::move(lease));
      lease = leases.size() < tasks.size() ? registry_.acquire(0) : nullptr;
    }
    if (!leases.empty()) {
      remote = true;
      local_tasks = drive_shards(registry_, std::move(leases), tasks,
                                 config_.remote_only, run, &remote_executed);
      if (config_.remote_only) {
        // Leftover shards may not touch this host; report them (unless the
        // campaign was cancelled — then the cancel is the story).
        if (!local_tasks.empty() && run.failure.empty() && !run.stopped()) {
          run.failure =
              "shard " + std::to_string(local_tasks.front().shard_index) +
              " never ran (no healthy remote worker left; remote-only)";
        }
        local_tasks.clear();
      }
      // Otherwise shards that produced nothing remotely (a stale dead
      // endpoint, a worker lost before its first record) run locally — a
      // flaky worker farm degrades to local workers instead of failing a
      // campaign this daemon could run itself.
    } else if (config_.remote_only) {
      run.failure = "no remote workers connected (remote-only mode; waited " +
                    std::to_string(config_.remote_wait_ms) + " ms)";
      local_tasks.clear();
    }
  }
  if (!local_tasks.empty() && !run.stopped()) {
    // Local shards: a campaign-scoped fleet, one worker per shard, reaped
    // before this block ends. A local endpoint that dies mid-shard leaves
    // no other transport to fall back to, so a spent retry budget fails.
    LocalFleet fleet(config_.worker_binary, local_tasks.size());
    Leases leases = fleet.lease_all();
    const std::vector<ShardTask> unrun =
        leases.empty() ? local_tasks
                       : drive_shards(fleet.registry(), std::move(leases),
                                      local_tasks, /*lost_fails=*/true, run,
                                      nullptr);
    if (!unrun.empty() && run.failure.empty() && !run.stopped()) {
      run.failure = "shard " + std::to_string(unrun.front().shard_index) +
                    " never ran (" +
                    (fleet.error().empty() ? "no local worker left"
                                           : fleet.error()) +
                    ")";
    }
  }
  const std::string stop_code = should_stop ? should_stop() : std::string{};

  metrics_.add({{Metric::kCampaignsTotal, 1},
                {Metric::kCampaignsShardedTotal, 1},
                {Metric::kRecordsStreamedTotal, run.streamed},
                {Metric::kCacheHitsTotal, warm_hits},
                {Metric::kMergedEntriesTotal, run.merged},
                {Metric::kRemoteShardsTotal, remote_executed},
                {Metric::kShardRetriesTotal, run.retries}});
  if (!run.failure.empty()) {
    out << "error exec-failed campaign " << id << " " << one_line(run.failure)
        << '\n';
    return;
  }
  if (!stop_code.empty()) {
    // Cancelled mid-campaign: everything streamed/merged so far is real and
    // kept (the warm cache makes a resubmit finish only the remainder).
    const std::uint64_t now = profiler_.now();
    profiler_.record(obs::Phase::kAbort, now, now, root_span, stop_code);
    note_cancelled(stop_code);
    out << stop_code << " campaign " << id << '\n';
    out << "error " << stop_code << " campaign " << id << " records "
        << run.streamed << " of " << expected_records
        << " streamed before stop\n";
    return;
  }
  out << "done campaign " << id << " records " << run.streamed << " merged "
      << run.merged << " hits " << warm_hits << " shards " << tasks.size();
  if (remote) {
    out << " remote " << remote_executed;
  }
  out << '\n';
}

std::vector<CampaignService::ShardTask> CampaignService::drive_shards(
    WorkerRegistry& registry,
    std::vector<std::unique_ptr<WorkerRegistry::Lease>> leases,
    const std::vector<ShardTask>& tasks, bool lost_fails, ShardDispatch& run,
    std::size_t* completed) {
  // Shared work state, guarded by work_mutex: the undispatched work list
  // (a shard enters more than once only after its endpoint died), the
  // campaign's retry budget, and each shard's settlement.
  struct Work {
    std::size_t task = 0;
    std::size_t attempt = 0;
  };
  std::mutex work_mutex;
  std::deque<Work> work;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    work.push_back({i, 0});
  }
  std::vector<char> settled(tasks.size(), 0);
  std::vector<RemoteShardOutcome> outcomes(tasks.size());

  // All client writes (records, progress, shard events) synchronize on
  // out_mutex; the dispatch's stream state and the banks are guarded by it
  // too. Each task's bank is a store buffer of the entry lines it streamed,
  // whichever attempt shipped them; it is the only thing the shard merges.
  std::mutex out_mutex;
  std::ostream& out = run.out;
  std::vector<std::string> banks(tasks.size());
  const auto stream_line = [&](std::size_t task, const std::string& line) {
    // Stream each entry the moment its frame arrives — unless an earlier
    // attempt of a retried shard (or another round) already shipped it.
    const auto parsed = orchestrator::parse_store_entry(line);
    if (!parsed.has_value()) {
      return;
    }
    obs::TimelineProfiler::Scope serialize(
        &profiler_, obs::Phase::kSerialize,
        obs::TimelineProfiler::kInheritParent, "record");
    std::lock_guard lock(out_mutex);
    if (!run.seen.insert(line).second) {
      return;
    }
    std::string& bank = banks[task];
    if (bank.empty()) {
      bank = orchestrator::store_header_line();
      bank += '\n';
    }
    bank += line;
    bank += '\n';
    write_record(run.journal, parsed->first, line, run.streamed,
                 run.expected_records, out);
  };

  // One driver per leased worker drains the work list. A driver whose
  // endpoint dies requeues the shard (budget permitting), retires the lease
  // and exits — the retry runs on a DIFFERENT worker: a surviving driver,
  // or a fresh lease from the round loop below.
  const auto drive = [&](WorkerRegistry::Lease* lease) {
    for (;;) {
      if (run.stopped()) {
        return;  // cancelled: leave the remaining work unrun
      }
      Work item;
      {
        std::lock_guard lock(work_mutex);
        if (work.empty()) {
          return;
        }
        item = work.front();
        work.pop_front();
      }
      const std::size_t i = item.task;
      {
        std::lock_guard lock(out_mutex);
        out << "shard " << tasks[i].shard_index
            << (item.attempt == 0 ? " start" : " retry") << " worker "
            << lease->name() << '\n';
        out.flush();
      }
      if (item.attempt != 0) {
        // A `retry` marker span under the campaign root: when and where the
        // shard was re-dispatched (the attempt's own time is its `shard`
        // span, as always).
        const std::uint64_t now = profiler_.now();
        profiler_.record(obs::Phase::kRetry, now, now, run.root_span,
                         "shard-" + std::to_string(tasks[i].shard_index) +
                             " worker " + lease->name());
      }
      // One `shard` span per worker round-trip, parented explicitly under
      // the campaign root (this driver thread has no inherited scope); the
      // conversation's `transport` span nests under it inside
      // run_remote_shard.
      obs::TimelineProfiler::Scope shard_span(
          &profiler_, obs::Phase::kShard, run.root_span,
          "shard-" + std::to_string(tasks[i].shard_index) + " worker " +
              lease->name());
      // The graft context stamps this endpoint's name on the worker spans
      // its `spans` frame ships and aligns their clocks with the registry's
      // heartbeat offset estimate (start-aligned when none exists yet).
      ShardGraft graft;
      graft.origin = lease->name();
      graft.has_clock_offset = lease->clock_offset(&graft.clock_offset_ns);
      RemoteShardOutcome outcome = run_remote_shard(
          lease->in(), lease->out(), run.request, tasks[i].shard_index,
          tasks[i].groups,
          [&](const std::string& line) { stream_line(i, line); }, &profiler_,
          &graft);
      shard_span.close();
      if (!outcome.connection_lost) {
        // Done, or a clean shard-error over a healthy connection: the shard
        // is settled either way and this worker keeps serving.
        if (outcome.ok) {
          lease->note_shard_done();
        }
        {
          std::lock_guard lock(out_mutex);
          if (outcome.ok) {
            out << "shard " << outcome.shard_index << " done records "
                << outcome.records << " worker " << lease->name() << '\n';
          } else {
            out << "shard " << outcome.shard_index << " error "
                << one_line(outcome.error) << '\n';
          }
          out.flush();
        }
        std::lock_guard lock(work_mutex);
        settled[i] = 1;
        outcomes[i] = std::move(outcome);
        continue;
      }
      // The endpoint died mid-conversation (its lines are already banked):
      // spend one retry if the budget allows — otherwise the shard settles
      // as lost.
      bool retrying = false;
      {
        std::lock_guard lock(work_mutex);
        if (run.retries < run.request.shard_retries) {
          ++run.retries;
          work.push_back({i, item.attempt + 1});
          retrying = true;
        } else {
          settled[i] = 1;
          outcomes[i] = std::move(outcome);
        }
      }
      {
        std::lock_guard lock(out_mutex);
        out << "shard " << tasks[i].shard_index << " lost worker "
            << lease->name()
            << (retrying ? " rescheduling" : " retry-budget-exhausted")
            << '\n';
        out.flush();
      }
      lease->mark_failed();
      return;  // this endpoint (and driver) is done
    }
  };

  // Rounds: run the current leases to completion, then — when dead
  // endpoints left requeued work and no driver survived — lease whatever
  // healthy workers remain and go again. No healthy worker left ends the
  // loop with the work unrun (it comes back to the caller).
  for (;;) {
    std::vector<std::thread> drivers;
    drivers.reserve(leases.size());
    for (auto& lease_ptr : leases) {
      drivers.emplace_back(drive, lease_ptr.get());
    }
    for (std::thread& driver : drivers) {
      driver.join();
    }
    leases.clear();  // healthy workers return to the idle pool
    std::size_t remaining = 0;
    {
      std::lock_guard lock(work_mutex);
      remaining = work.size();
    }
    if (remaining == 0 || run.stopped()) {
      break;
    }
    registry.heartbeat();  // don't lease an endpoint that just died parked
    while (leases.size() < remaining) {
      auto lease = registry.acquire(0);
      if (lease == nullptr) {
        break;
      }
      leases.push_back(std::move(lease));
    }
    if (leases.empty()) {
      break;  // nobody left to run the remaining shards
    }
  }

  // Merge what each shard streamed — real measurements are never discarded,
  // whatever the settlement — then classify it: completed, unrun (the
  // caller decides what happens next), lost, or failed.
  std::vector<ShardTask> unrun;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!banks[i].empty()) {
      run.merged += cache_.merge_buffer(banks[i]);
    }
    if (!settled[i]) {
      // Never dispatched, or still requeued when the drivers ran out (or
      // the campaign was cancelled).
      unrun.push_back(tasks[i]);
      continue;
    }
    const RemoteShardOutcome& outcome = outcomes[i];
    if (outcome.ok) {
      if (completed != nullptr) {
        ++*completed;
      }
      continue;
    }
    if (outcome.connection_lost) {
      // Every attempt's endpoint died and the retry budget is spent. With
      // `lost_fails` that is a structured failure — never a hang; otherwise
      // the caller reruns the shard elsewhere (the `seen` set keeps its
      // replayed records off the client stream and out of the next bank).
      if (lost_fails) {
        if (run.failure.empty()) {
          run.failure = "shard " + std::to_string(outcome.shard_index) +
                        " failed (retry budget exhausted): " +
                        one_line(outcome.error);
        }
      } else {
        unrun.push_back(tasks[i]);
      }
      continue;
    }
    // The shard itself failed — a shard-error frame over a healthy
    // connection. A clean failure is deterministic, so rerunning it (on any
    // transport) would only fail again with a worse diagnostic: report the
    // real error.
    if (run.failure.empty()) {
      run.failure = "shard " + std::to_string(outcome.shard_index) +
                    " failed: " + one_line(outcome.error);
    }
  }
  return unrun;
}

// ----------------------------------------------------------- read path ----

namespace {

/// Query replies default to one modest page; the cap bounds what a single
/// command can make the daemon read back from disk.
constexpr std::size_t kDefaultQueryLimit = 64;
constexpr std::size_t kMaxQueryLimit = 4096;

/// Reverse of orchestrator::to_string(JobKind) — the `kind` filter values
/// are the documented job-kind names ("gemm-measure", "sme-gemm", ...).
std::optional<JobKind> job_kind_from_name(const std::string& name) {
  for (std::size_t i = 0; i < orchestrator::kJobKindCount; ++i) {
    const auto kind = static_cast<JobKind>(i);
    if (orchestrator::to_string(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

}  // namespace

std::shared_ptr<CampaignService::CampaignJournal> CampaignService::open_journal(
    std::uint64_t id, const std::string& name) {
  auto journal = std::make_shared<CampaignJournal>();
  journal->id = id;
  journal->name = name;
  std::lock_guard lock(journal_mutex_);
  journals_.push_back(journal);
  while (journals_.size() > kMaxJournals) {
    journals_.pop_front();
  }
  return journal;
}

void CampaignService::journal_append(CampaignJournal* journal,
                                     const orchestrator::CacheKey& key) {
  if (journal == nullptr) {
    return;
  }
  std::lock_guard lock(journal_mutex_);
  journal->keys.push_back(key);
}

std::shared_ptr<CampaignService::CampaignJournal> CampaignService::find_journal(
    const std::string& name) const {
  std::lock_guard lock(journal_mutex_);
  for (auto it = journals_.rbegin(); it != journals_.rend(); ++it) {
    if ((*it)->name == name) {
      return *it;
    }
  }
  return nullptr;
}

void CampaignService::note_query_span(std::uint64_t started_ns,
                                      const std::string& label) {
  // Read-path spans have no campaign root to ride into a timeline, so their
  // histogram observation settles here, directly.
  const std::uint64_t now = profiler_.now();
  profiler_.record(obs::Phase::kQuery, started_ns, now, 0, label);
  metrics_.observe(Metric::kPhaseDurationNs, now - started_ns, "query");
}

void CampaignService::reply_query(const std::vector<std::string>& words,
                                  const std::string& line, std::ostream& out) {
  const std::uint64_t started_ns = profiler_.now();
  orchestrator::QueryFilter filter;
  std::size_t limit = kDefaultQueryLimit;
  std::string cursor;
  for (std::size_t i = 1; i < words.size(); i += 2) {
    if (i + 1 >= words.size()) {
      reply_error(out, "bad-query", "filter '" + words[i] + "' needs a value",
                  line);
      return;
    }
    const std::string& keyword = words[i];
    const std::string& value = words[i + 1];
    std::uint64_t number = 0;
    if (keyword == "kind") {
      const auto kind = job_kind_from_name(value);
      if (!kind.has_value()) {
        reply_error(out, "bad-query", "unknown job kind: " + value, line);
        return;
      }
      filter.kind = *kind;
    } else if (keyword == "chip") {
      try {
        filter.chip = soc::chip_model_from_string(value);
      } catch (const std::exception&) {
        reply_error(out, "bad-query", "unknown chip: " + value, line);
        return;
      }
    } else if (keyword == "impl") {
      try {
        filter.impl = gemm_impl_from_string(value);
      } catch (const std::exception&) {
        reply_error(out, "bad-query", "unknown impl: " + value, line);
        return;
      }
    } else if (keyword == "size") {
      if (!parse_u64_token(value, number)) {
        reply_error(out, "bad-query", "bad size: " + value, line);
        return;
      }
      filter.n_min = filter.n_max = number;
    } else if (keyword == "size-min") {
      if (!parse_u64_token(value, number)) {
        reply_error(out, "bad-query", "bad size-min: " + value, line);
        return;
      }
      filter.n_min = number;
    } else if (keyword == "size-max") {
      if (!parse_u64_token(value, number)) {
        reply_error(out, "bad-query", "bad size-max: " + value, line);
        return;
      }
      filter.n_max = number;
    } else if (keyword == "limit") {
      if (!parse_u64_token(value, number) || number < 1 ||
          number > kMaxQueryLimit) {
        reply_error(out, "bad-query",
                    "limit must be in [1, " +
                        std::to_string(kMaxQueryLimit) + "]: " + value,
                    line);
        return;
      }
      limit = static_cast<std::size_t>(number);
    } else if (keyword == "cursor") {
      cursor = value;
    } else {
      reply_error(out, "bad-query", "unknown query filter: " + keyword, line);
      return;
    }
  }

  std::string code;
  const auto page = cache_.query(filter, limit, cursor, &code);
  if (!page.has_value()) {
    if (code == "stale-cursor") {
      metrics_.add({{Metric::kStaleCursorsTotal, 1}});
    }
    reply_error(out, code,
                code == "no-store" ? "no write-through store attached"
                : code == "bad-cursor"
                    ? "unparseable cursor token"
                    : "cursor outlived a store rewrite; restart the query",
                line);
    return;
  }
  for (const std::string& entry : page->lines) {
    out << "query-record " << entry << '\n';
  }
  out << "query-page count " << page->lines.size() << " matched "
      << page->matched << " generation " << page->generation << " read "
      << page->entries_read << " cursor "
      << (page->exhausted ? std::string("end") : page->cursor) << '\n';
  metrics_.add({{Metric::kQueriesTotal, 1},
                {Metric::kQueryRecordsTotal, page->lines.size()}});
  note_query_span(started_ns, "indexed read " +
                                  std::to_string(page->entries_read) + "/" +
                                  std::to_string(cache_.store_entries()) +
                                  " matched " +
                                  std::to_string(page->matched));
}

void CampaignService::reply_follow(const std::vector<std::string>& words,
                                   const std::string& line,
                                   std::ostream& out) {
  const std::uint64_t started_ns = profiler_.now();
  if (words.size() != 2 && !(words.size() == 4 && words[2] == "from")) {
    reply_error(out, "bad-request", "usage: follow <name> [from <cursor>]",
                line);
    return;
  }
  const std::string& name = words[1];
  if (!valid_campaign_name(name)) {
    reply_error(out, "bad-name", "invalid campaign name: " + name, line);
    return;
  }
  const std::shared_ptr<CampaignJournal> journal = find_journal(name);
  if (journal == nullptr) {
    reply_error(out, "unknown-campaign",
                "no retained record stream for campaign: " + name, line);
    return;
  }
  std::uint64_t journal_id = 0;
  std::vector<orchestrator::CacheKey> keys;
  bool complete = false;
  {
    // Snapshot under the lock; the replay below reads only the store, so a
    // still-running campaign keeps streaming while we serve the past.
    std::lock_guard lock(journal_mutex_);
    journal_id = journal->id;
    keys = journal->keys;
    complete = journal->complete;
  }
  std::uint64_t position = 0;
  if (words.size() == 4) {
    const auto cursor = decode_follow_cursor(words[3]);
    if (!cursor.has_value()) {
      reply_error(out, "bad-cursor", "unparseable follow cursor", line);
      return;
    }
    if (cursor->campaign_id != journal_id) {
      // A token from an older run of this name: its journal was superseded,
      // so replaying against the newer stream would duplicate or skip
      // records.
      metrics_.add({{Metric::kStaleCursorsTotal, 1}});
      reply_error(out, "stale-cursor",
                  "cursor belongs to a superseded campaign run; restart the "
                  "follow",
                  line);
      return;
    }
    if (cursor->position > keys.size()) {
      reply_error(out, "bad-cursor", "cursor beyond the retained stream",
                  line);
      return;
    }
    position = cursor->position;
  }

  std::size_t sent = 0;
  for (std::size_t i = static_cast<std::size_t>(position); i < keys.size();
       ++i) {
    const auto entry = cache_.fetch_entry(keys[i]);
    if (!entry.has_value()) {
      metrics_.add({{Metric::kStaleCursorsTotal, 1}});
      reply_error(out, "stale-cursor",
                  "record " + std::to_string(i) +
                      " left the store (evicted, then compacted away); "
                      "restart the follow",
                  line);
      return;
    }
    // Each record carries the token that resumes AFTER it — the client
    // keeps the last token it read and never sees a record twice.
    out << "follow-record " << encode_follow_cursor(journal_id, i + 1) << ' '
        << *entry << '\n';
    ++sent;
  }
  out << "follow campaign " << journal_id << " name " << name << " records "
      << sent << " position " << keys.size() << " cursor "
      << encode_follow_cursor(journal_id, keys.size()) << " state "
      << (complete ? "complete" : "partial") << '\n';
  metrics_.add(
      {{Metric::kFollowsTotal, 1}, {Metric::kQueryRecordsTotal, sent}});
  note_query_span(started_ns,
                  "follow " + name + " records " + std::to_string(sent));
}

}  // namespace ao::service
