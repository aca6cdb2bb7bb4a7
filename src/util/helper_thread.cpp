#include "util/helper_thread.hpp"

#include <chrono>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/contracts.hpp"

namespace imx::util {

namespace {

/// How long a waiting side polls before it sleeps. In a search the gap
/// between two calls (an episode's acting and scoring) is ~0.1 ms, and a
/// side that has finished its lane waits about one step (~0.3 ms).
constexpr auto kPollFor = std::chrono::microseconds(2000);

/// Polls `ready` for up to kPollFor; false if it never held. Yields every
/// few microseconds, so a poller gives its CPU to any thread that is
/// ready to run there, e.g. when more threads than cores are busy.
template <class Ready>
bool poll(Ready ready) {
    const auto deadline = std::chrono::steady_clock::now() + kPollFor;
    for (;;) {
        for (int i = 0; i < 64; ++i) {
            if (ready()) return true;
#if defined(__x86_64__) || defined(__i386__)
            _mm_pause();
#endif
        }
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::yield();
    }
}

}  // namespace

HelperThread::HelperThread() : thread_([this] { loop(); }) {}

HelperThread::~HelperThread() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        changed();
    }
    thread_.join();
}

void HelperThread::run_both(int repeats, const std::function<void()>& first,
                            const std::function<void()>& second) {
    IMX_EXPECTS(repeats >= 0);
    if (repeats == 0) return;
    std::unique_lock<std::mutex> lock(mutex_);
    steps_ = {&first, &second};
    left_ = {repeats, repeats};
    owner_ = {0, 1};
    busy_ = {false, false};
    wanted_by_ = -1;
    moved_ = false;
    pending_ = true;
    ++calls_;
    changed();
    run_lanes(lock, 0);
    await(lock, [this] {
        return !busy_[0] && !busy_[1] &&
               (error_ || (left_[0] == 0 && left_[1] == 0));
    });
    pending_ = false;
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void HelperThread::run_lanes(std::unique_lock<std::mutex>& lock, int self) {
    const int other = 1 - self;
    int lane = self;
    for (;;) {
        while (owner_[lane] == self && left_[lane] > 0 && !error_) {
            if (wanted_by_ == other && left_[lane] >= 2) {
                owner_[lane] = other;  // the other side is idle: hand over
                wanted_by_ = -1;
                moved_ = true;
                changed();
                return;
            }
            --left_[lane];
            busy_[lane] = true;
            lock.unlock();
            std::exception_ptr error;
            try {
                (*steps_[lane])();
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            busy_[lane] = false;
            if (error && !error_) error_ = error;
            changed();
        }
        // Own lane done: take over the other one, at most once per call.
        if (lane != self || moved_ || error_ || owner_[self] != self ||
            left_[other] < 2) {
            return;
        }
        wanted_by_ = self;
        await(lock, [&] {
            return owner_[other] == self || !busy_[other] ||
                   left_[other] < 2 || error_;
        });
        if (wanted_by_ == self) wanted_by_ = -1;
        // A lane that is not busy has not been started by its side yet.
        if (owner_[other] != self) {
            if (busy_[other] || left_[other] < 2 || error_ || moved_) return;
            owner_[other] = self;
            moved_ = true;
        }
        lane = other;
    }
}

template <class Ready>
void HelperThread::await(std::unique_lock<std::mutex>& lock, Ready ready) {
    while (!ready()) {
        const std::uint64_t seen = version_.load();
        lock.unlock();
        const bool moved = poll([&] { return version_.load() != seen; });
        lock.lock();
        if (!moved) {
            changed_.wait(lock, ready);
            return;
        }
    }
}

void HelperThread::changed() {
    ++version_;
    changed_.notify_all();
}

void HelperThread::loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    std::uint64_t seen = 0;
    for (;;) {
        await(lock, [&] { return stopping_ || calls_ != seen; });
        if (stopping_) return;
        seen = calls_;
        if (pending_) run_lanes(lock, 1);
    }
}

}  // namespace imx::util
