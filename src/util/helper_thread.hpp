/// \file
/// \brief One persistent helper thread that runs two lanes of steps beside
/// its owner.
///
/// The compression search trains two independent DDPG agents each episode;
/// a HelperThread lets the owner train one while the helper trains the
/// other, without starting a thread per episode. Results do not depend on
/// the schedule: each lane's steps run one at a time and in order, and the
/// two lanes must share no mutable state.
///
/// A thread that finishes its lane first takes over the other lane at that
/// lane's next step, so a thread the host slows down holds a call up by
/// about one step instead of by its whole lag. Waiting sides poll for up
/// to 2 ms before they sleep on the condition variable; in a search nearly
/// every wait is shorter, so neither side sleeps mid-search. Sleeping there
/// left a CPU idle twice per episode; on a shared virtual machine an idle
/// CPU took a varying time to run again, and a search's wall time varied
/// from run to run with it.
///
/// exp::ThreadPool is not reused here: core code sits below the sweep
/// engine, and its jobs must not throw, while a step here may fail a
/// contract and the owner has to see that failure.
#ifndef IMX_UTIL_HELPER_THREAD_HPP
#define IMX_UTIL_HELPER_THREAD_HPP

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

namespace imx::util {

class HelperThread {
public:
    HelperThread();
    /// Joins the thread. run_both() returns only once both lanes are done,
    /// so no step is ever in flight here.
    ~HelperThread();
    HelperThread(const HelperThread&) = delete;
    HelperThread& operator=(const HelperThread&) = delete;
    HelperThread(HelperThread&&) = delete;
    HelperThread& operator=(HelperThread&&) = delete;

    /// Runs `first` `repeats` times (lane 0) and `second` `repeats` times
    /// (lane 1), each lane's steps one at a time and in order, and returns
    /// when both lanes are done. Lane 0 starts on the calling thread and
    /// lane 1 on the helper. Once per call, a side that has finished its
    /// own lane takes over the other lane from its next step on, if that
    /// lane has 2 or more steps left. If a step throws, both lanes stop at
    /// their next step and the first exception is rethrown. Requires
    /// repeats >= 0; 0 returns at once.
    void run_both(int repeats, const std::function<void()>& first,
                  const std::function<void()>& second);

private:
    void loop();
    /// Runs side `self`'s lane, then perhaps the other one; holds `lock`
    /// except while a step runs.
    void run_lanes(std::unique_lock<std::mutex>& lock, int self);
    /// Blocks until `ready()`, polling before it sleeps; holds `lock`
    /// whenever it calls `ready`.
    template <class Ready>
    void await(std::unique_lock<std::mutex>& lock, Ready ready);
    /// Wakes every waiter; called under mutex_ after each change.
    void changed();

    std::mutex mutex_;
    std::condition_variable changed_;
    // Guarded by mutex_. Sides: 0 the owner, 1 the helper.
    std::array<const std::function<void()>*, 2> steps_{};
    std::array<int, 2> left_{};   ///< steps not yet started, per lane
    std::array<int, 2> owner_{};  ///< the side that runs each lane
    std::array<bool, 2> busy_{};  ///< a step of the lane is running
    int wanted_by_ = -1;          ///< side waiting to take over a lane
    bool moved_ = false;          ///< a lane changed sides in this call
    bool pending_ = false;        ///< run_both() has not returned
    bool stopping_ = false;
    std::uint64_t calls_ = 0;  ///< run_both() calls with steps
    std::exception_ptr error_;
    /// Bumped by changed(); waiters poll it without the lock.
    std::atomic<std::uint64_t> version_{0};
    // Last, so every member it reads exists before the thread starts.
    std::thread thread_;
};

}  // namespace imx::util

#endif  // IMX_UTIL_HELPER_THREAD_HPP
