#include "support/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/fault.hpp"

namespace ad::support {

namespace {

// Which pool (if any) the current thread is a worker of, and its index.
// Lets submit() route tasks from workers onto their own deque and take()
// start stealing from the right place; distinguishes nested/other pools.
thread_local const ThreadPool* tlPool = nullptr;
thread_local std::size_t tlWorker = 0;

}  // namespace

std::size_t ThreadPool::hardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t requested = threads == 0 ? 1 : threads;
  const std::size_t n = std::min(requested, hardwareConcurrency());
  count_ = n;
  queues_.reserve(n + 1);
  for (std::size_t i = 0; i < n + 1; ++i) queues_.push_back(std::make_unique<Queue>());
  tasksCounter_ = &obs::metrics().counter("ad.pool.tasks");
  stealsCounter_ = &obs::metrics().counter("ad.pool.steals");
  idleCounter_ = &obs::metrics().counter("ad.pool.idle_us");
  queueWait_ = &obs::metrics().histogram("ad.pool.queue_wait_us");
  obs::metrics().gauge("ad.pool.threads").set(static_cast<std::int64_t>(n));
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  notifyWaiters();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // The submitter's budget and degradation ledger follow the task to
  // whichever worker runs it: a per-code budget (and its cancellation token)
  // bounds that code's per-array subtasks regardless of where they execute.
  if (const RobustnessContext ctx = RobustnessContext::capture();
      ctx.budget != nullptr || ctx.report != nullptr) {
    task = [ctx, inner = std::move(task)] {
      RobustnessContextScope scope(ctx);
      inner();
    };
  }
  Item item{std::move(task), obs::tracer().active() ? obs::tracer().nowUs() : 0};
  const std::size_t slot =
      (tlPool == this) ? tlWorker : count_;  // own deque or injection queue
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(std::move(item));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // The empty critical section orders this notification after any waiter's
  // predicate check: a thread between "saw pending_ == 0" and "parked" holds
  // idleMu_, so we cannot signal into that window and lose the wakeup.
  { std::lock_guard<std::mutex> lock(idleMu_); }
  idleCv_.notify_one();
}

ThreadPool::Taken ThreadPool::take(std::size_t index) {
  // Own deque, newest first: nested fan-out keeps its working set hot.
  if (index < count_) {
    Queue& own = *queues_[index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      Taken t{std::move(own.tasks.back())};
      own.tasks.pop_back();
      return t;
    }
  }
  // Injected work, oldest first.
  {
    Queue& inj = *queues_[count_];
    std::lock_guard<std::mutex> lock(inj.mu);
    if (!inj.tasks.empty()) {
      Taken t{std::move(inj.tasks.front())};
      inj.tasks.pop_front();
      return t;
    }
  }
  // Steal from a victim, oldest first (the opposite end from the owner's
  // LIFO pops, minimizing contention and grabbing the largest subtrees).
  const std::size_t n = count_;
  const std::size_t start = stealSeed_.fetch_add(1, std::memory_order_relaxed) % (n == 0 ? 1 : n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == index) continue;
    Queue& q = *queues_[victim];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      Taken t{std::move(q.tasks.front()), /*stolen=*/true};
      q.tasks.pop_front();
      stealsCounter_->add(1);
      return t;
    }
  }
  return Taken{};
}

void ThreadPool::runTask(Taken& taken, bool helped) {
  pending_.fetch_sub(1, std::memory_order_release);
  obs::Span span("pool.task", helped ? "pool.help" : taken.stolen ? "pool.steal" : "pool");
  tasksCounter_->add(1);
  if (taken.item.enqueueUs > 0) {
    queueWait_->observe(obs::tracer().nowUs() - taken.item.enqueueUs);
  }
  taken.item.task();
}

bool ThreadPool::runOneTask() {
  const std::size_t index = (tlPool == this) ? tlWorker : count_;
  Taken taken = take(index);
  if (!taken) return false;
  runTask(taken, /*helped=*/tlPool != this);
  return true;
}

void ThreadPool::waitForWork(const std::function<bool()>& done) {
  std::unique_lock<std::mutex> lock(idleMu_);
  if (stop_.load(std::memory_order_acquire) || pending_.load(std::memory_order_acquire) > 0 ||
      done()) {
    return;
  }
  obs::Span span("pool.idle", "pool");
  const std::int64_t t0 = obs::tracer().nowUs();
  idleCv_.wait(lock, [this, &done] {
    return stop_.load(std::memory_order_acquire) ||
           pending_.load(std::memory_order_acquire) > 0 || done();
  });
  idleCounter_->add(obs::tracer().nowUs() - t0);
}

void ThreadPool::notifyWaiters() {
  // Empty critical section: see submit() — serializes with a waiter that is
  // between its predicate check and the park.
  { std::lock_guard<std::mutex> lock(idleMu_); }
  idleCv_.notify_all();
}

void ThreadPool::workerLoop(std::size_t index) {
  tlPool = this;
  tlWorker = index;
  obs::tracer().nameCurrentThread("pool.w" + std::to_string(index));
  while (true) {
    if (Taken taken = take(index)) {
      runTask(taken, /*helped=*/false);
      continue;
    }
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
    // Returns at once if a submit raced the empty take (re-scan).
    waitForWork([] { return false; });
  }
  tlPool = nullptr;
}

TaskGroup::~TaskGroup() {
  // Best effort: a group abandoned mid-flight (e.g. stack unwinding after an
  // unrelated exception) must still not leave tasks referencing dead frames.
  if (pending_.load(std::memory_order_acquire) > 0) {
    try {
      wait();
    } catch (...) {  // NOLINT(bugprone-empty-catch): destructor must not throw
    }
  }
}

void TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_release);
  // `pool` is captured by value: the final decrement below releases wait(),
  // after which the group (and this->pool_) may already be destroyed, so the
  // lambda must not touch `this` past that point. The pool itself is required
  // to outlive every group submitted to it.
  pool_->submit([this, pool = pool_, fn = std::move(fn)] {
    try {
      if (AD_FAULT_POINT("pool.task")) {
        throw AnalysisError("injected fault: pool task abandoned (pool.task)");
      }
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Wake anyone parked in wait()'s waitForWork so the drained predicate
      // gets re-evaluated. Workers that wake spuriously just re-park.
      pool->notifyWaiters();
    }
  });
}

void TaskGroup::wait() {
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (pool_->runOneTask()) continue;
    // Nothing runnable here: our remaining tasks are executing on other
    // workers. Park on the pool's idle signal; a new submission (more work
    // to help with) or this group's completion wakes us.
    pool_->waitForWork([this] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace ad::support
