// A persistent worker-thread pool for phase-structured parallel work.
//
// The sharded simulation core dispatches into the pool once per run (each
// worker then loops over cycles, synchronized by a CycleSync), and
// SweepRunner's parallel_map fan-outs dispatch once per sweep - so the
// pool's job is to keep the threads alive across dispatches, not to be a
// task queue. A dispatch hands every participating worker the same
// callable with its worker index; the caller participates as worker 0,
// which keeps a 1-thread pool degenerate-free (run(1, job) never leaves
// the calling thread).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deft {

/// Phase synchronizer for the sharded cycle loop: two rendezvous per
/// cycle built from single-writer epoch slots. Every worker owns a front
/// slot, every follower (worker > 0) a back slot, and worker 0 the release
/// slot. Each slot is written (release) by exactly one worker and waited
/// on (acquire) by the others, so a cycle of n workers costs 2n
/// uncontended stores - four at two workers - and no read-modify-write on
/// a shared phase word. The serial completion step runs on worker 0
/// between the followers' back-phase publications and the release store;
/// the release is therefore the only write a follower needs to observe to
/// see every completion effect (including the stop flag) before its next
/// front phase.
///
/// Epochs must be strictly increasing and identical across all workers
/// (use the cycle ordinal, starting at 1 - slots initialize to 0).
class CycleSync {
 public:
  /// Upper bound on workers. The slots live inline, one cache line each,
  /// so a sync never touches the heap.
  static constexpr int kMaxWorkers = 64;

  explicit CycleSync(int workers) : workers_(workers) {}

  /// Worker `w` finished its front phase for `epoch`; returns once every
  /// other worker has too.
  void front_done(int w, std::uint64_t epoch) {
    slots_[w].v.store(epoch, std::memory_order_release);
    for (int p = 0; p < workers_; ++p) {
      if (p != w) {
        wait_for(slots_[p].v, epoch);
      }
    }
  }

  /// Follower `w` finished its back phase; returns once worker 0 has run
  /// the completion step and published the release.
  void follower_back_done(int w, std::uint64_t epoch) {
    back(w).v.store(epoch, std::memory_order_release);
    wait_for(release().v, epoch);
  }

  /// Worker 0: wait for every follower's back phase before the completion
  /// step.
  void wait_followers_back(std::uint64_t epoch) {
    for (int p = 1; p < workers_; ++p) {
      wait_for(back(p).v, epoch);
    }
  }

  /// Worker 0: completion step done, release the followers into the next
  /// cycle.
  void publish_release(std::uint64_t epoch) {
    release().v.store(epoch, std::memory_order_release);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };

  static void wait_for(const std::atomic<std::uint64_t>& slot,
                       std::uint64_t target) {
    for (int spin = 0; slot.load(std::memory_order_acquire) < target; ++spin) {
      if (spin >= 64) {
        std::this_thread::yield();
      }
    }
  }

  // The 2n slots in use are contiguous: n front slots, the n - 1
  // followers' back slots, then the release slot.
  Slot& back(int w) { return slots_[workers_ + w - 1]; }
  Slot& release() { return slots_[2 * workers_ - 1]; }

  int workers_;
  Slot slots_[2 * kMaxWorkers];
};

class WorkerPool {
 public:
  /// Spawns `threads` persistent worker threads (0 is valid: every run()
  /// then executes entirely on the caller).
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Executes job(w) for w in [0, n): w = 0 on the calling thread, the
  /// rest on pool threads. Blocks until every job returns, then rethrows
  /// the first exception any job raised. Requires n <= threads() + 1 and
  /// is not reentrant (one run() at a time).
  void run(int n, const std::function<void(int)>& job);

  /// Per-job outcome fan-out: executes job(worker, i) for every i in
  /// [0, jobs), dynamically scheduled over min(workers, threads() + 1,
  /// jobs) participants (worker identity exists so jobs can reuse
  /// per-worker scratch such as a SimWorkspace). Unlike run()'s
  /// first-exception-wins rethrow, an exception escaping job i is
  /// captured into slot i of the returned vector (null = the job
  /// completed) and the remaining jobs still execute - one throwing job
  /// can never take down the batch. Only an exception escaping the
  /// channel itself (e.g. bad_alloc while capturing) propagates.
  std::vector<std::exception_ptr> run_jobs(
      int workers, std::size_t jobs,
      const std::function<void(int, std::size_t)>& job);

 private:
  void worker_main(int index);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int participants_ = 0;  ///< pool workers of the current generation
  int remaining_ = 0;     ///< pool workers still running the current job
  const std::function<void(int)>* job_ = nullptr;
  std::exception_ptr error_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace deft
