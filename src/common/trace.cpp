#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"

namespace treevqa {

std::int64_t
TraceRecorder::nowSteadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

struct TraceEvent
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
};

/** One thread's ring. Only its owner thread writes; the flusher
 * reads under the same (otherwise uncontended) mutex. Owned by the
 * recorder via shared_ptr so events outlive their thread. */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> ring;
    std::uint64_t seq = 0;
    std::uint64_t tid = 0;
};

thread_local ThreadBuffer *t_buffer = nullptr;

constexpr std::size_t kDefaultCapacity = 4096;

} // namespace

struct TraceRecorder::Impl
{
    mutable std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::size_t capacity = kDefaultCapacity;
    std::string path;
    std::atomic<std::int64_t> lastFlushMs{0};
    std::uint64_t nextTid = 1;
    /** Wall-clock anchor captured at arm(): unix microseconds that
     * correspond to steady-clock instant anchorSteadyNs, so exported
     * timestamps from different workers line up on one timeline. */
    std::int64_t anchorUnixUs = 0;
    std::int64_t anchorSteadyNs = 0;
};

std::atomic<bool> &
TraceRecorder::armedFlag()
{
    static std::atomic<bool> flag{false};
    return flag;
}

TraceRecorder::TraceRecorder() : impl_(new Impl()) {}

TraceRecorder &
TraceRecorder::instance()
{
    // Leaked singleton: the atexit/fatal-signal flush must never race
    // a static destructor.
    static TraceRecorder *recorder = new TraceRecorder();
    return *recorder;
}

void
TraceRecorder::arm(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (capacity != 0)
        impl_->capacity = capacity;
    for (const auto &buffer : impl_->buffers) {
        std::lock_guard<std::mutex> buf_lock(buffer->mutex);
        buffer->ring.assign(impl_->capacity, TraceEvent{});
        buffer->seq = 0;
    }
    impl_->anchorUnixUs = unixTimeMs() * 1000;
    impl_->anchorSteadyNs = nowSteadyNs();
    armedFlag().store(true, std::memory_order_relaxed);
}

void
TraceRecorder::disarm()
{
    armedFlag().store(false, std::memory_order_relaxed);
}

void
TraceRecorder::setExportPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->path = path;
}

std::string
TraceRecorder::exportPath() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->path;
}

void
TraceRecorder::record(const char *name, std::int64_t startSteadyNs,
                      std::int64_t durNs)
{
    ThreadBuffer *buf = t_buffer;
    if (buf == nullptr) {
        auto owned = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(impl_->mutex);
        owned->tid = impl_->nextTid++;
        owned->ring.assign(impl_->capacity, TraceEvent{});
        impl_->buffers.push_back(owned);
        t_buffer = owned.get();
        buf = t_buffer;
    }
    std::lock_guard<std::mutex> lock(buf->mutex);
    if (buf->ring.empty())
        return;
    buf->ring[buf->seq % buf->ring.size()] =
        TraceEvent{name, startSteadyNs, durNs};
    ++buf->seq;
}

namespace {

struct ExportEvent
{
    std::int64_t tsUs;
    std::int64_t durUs;
    std::uint64_t tid;
    const char *name;
};

} // namespace

bool
TraceRecorder::flushTo(const std::string &path)
{
    try {
        const FaultHit fault = FAULT_POINT("trace.flush");
        if (fault.err != 0)
            return false;

        std::vector<std::shared_ptr<ThreadBuffer>> buffers;
        std::int64_t anchorUnixUs = 0;
        std::int64_t anchorSteadyNs = 0;
        {
            std::lock_guard<std::mutex> lock(impl_->mutex);
            buffers = impl_->buffers;
            anchorUnixUs = impl_->anchorUnixUs;
            anchorSteadyNs = impl_->anchorSteadyNs;
        }

        std::vector<ExportEvent> events;
        for (const auto &buffer : buffers) {
            std::lock_guard<std::mutex> lock(buffer->mutex);
            const std::size_t size = buffer->ring.size();
            if (size == 0)
                continue;
            const std::size_t n = buffer->seq < size
                ? static_cast<std::size_t>(buffer->seq)
                : size;
            // Oldest-first: the ring holds the last n events ending
            // at seq-1.
            for (std::size_t i = 0; i < n; ++i) {
                const TraceEvent &event =
                    buffer->ring[(buffer->seq - n + i) % size];
                ExportEvent out;
                out.tsUs = anchorUnixUs
                    + (event.startNs - anchorSteadyNs) / 1000;
                out.durUs = event.durNs < 0 ? 0
                                            : event.durNs / 1000;
                out.tid = buffer->tid;
                out.name = event.name;
                events.push_back(out);
            }
        }
        std::sort(events.begin(), events.end(),
                  [](const ExportEvent &a, const ExportEvent &b) {
                      if (a.tsUs != b.tsUs)
                          return a.tsUs < b.tsUs;
                      if (a.tid != b.tid)
                          return a.tid < b.tid;
                      return std::strcmp(a.name, b.name) < 0;
                  });

        // Hand-built JSON: span names are compile-time identifiers
        // (no escaping needed), and keeping the writer free of
        // JsonValue allocation churn matters on the crash path.
        std::string out =
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        const long pid = static_cast<long>(::getpid());
        char line[256];
        for (std::size_t i = 0; i < events.size(); ++i) {
            const ExportEvent &event = events[i];
            std::snprintf(line, sizeof(line),
                          "%s\n{\"name\":\"%s\",\"cat\":\"treevqa\","
                          "\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                          "\"pid\":%ld,\"tid\":%llu}",
                          i == 0 ? "" : ",", event.name,
                          static_cast<long long>(event.tsUs),
                          static_cast<long long>(event.durUs), pid,
                          static_cast<unsigned long long>(event.tid));
            out += line;
        }
        out += "\n]}\n";

        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), ec);
        writeTextFileAtomic(path, out, Durability::BestEffort);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

bool
TraceRecorder::flush()
{
    const std::string path = exportPath();
    if (path.empty())
        return true;
    return flushTo(path);
}

void
TraceRecorder::maybePeriodicFlush(std::int64_t minIntervalMs)
{
    if (!armed())
        return;
    const std::int64_t now = unixTimeMs();
    std::int64_t last =
        impl_->lastFlushMs.load(std::memory_order_relaxed);
    if (now - last < minIntervalMs)
        return;
    if (!impl_->lastFlushMs.compare_exchange_strong(
            last, now, std::memory_order_relaxed))
        return;
    flush();
}

namespace {

void
fatalSignalFlush(int sig)
{
    // Best-effort: allocation in a signal handler is formally unsafe,
    // but this path runs once, on the way to death, to save the
    // flight recorder. The default disposition is restored first so
    // a second fault inside the flush terminates instead of looping.
    std::signal(sig, SIG_DFL);
    TraceRecorder::instance().flush();
    std::raise(sig);
}

void
atexitFlush()
{
    TraceRecorder::instance().flush();
}

} // namespace

void
TraceRecorder::installExitHandlers()
{
    static std::atomic<bool> installed{false};
    if (installed.exchange(true))
        return;
    std::atexit(atexitFlush);
    for (const int sig :
         {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
        struct sigaction action;
        std::memset(&action, 0, sizeof(action));
        action.sa_handler = fatalSignalFlush;
        sigemptyset(&action.sa_mask);
        ::sigaction(sig, &action, nullptr);
    }
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto &buffer : impl_->buffers) {
        std::lock_guard<std::mutex> buf_lock(buffer->mutex);
        buffer->seq = 0;
    }
}

std::size_t
TraceRecorder::bufferedEvents() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::size_t total = 0;
    for (const auto &buffer : impl_->buffers) {
        std::lock_guard<std::mutex> buf_lock(buffer->mutex);
        total += std::min<std::uint64_t>(buffer->seq,
                                         buffer->ring.size());
    }
    return total;
}

TraceSpan::TraceSpan(const char *name, Histogram *hist)
    : name_(name), hist_(hist),
      active_(hist != nullptr || TraceRecorder::armed())
{
    if (active_)
        startNs_ = TraceRecorder::nowSteadyNs();
}

void
TraceSpan::end()
{
    if (!active_)
        return;
    active_ = false;
    const std::int64_t dur =
        TraceRecorder::nowSteadyNs() - startNs_;
    if (hist_ != nullptr)
        hist_->observe(
            dur < 0 ? 0 : static_cast<std::uint64_t>(dur));
    if (TraceRecorder::armed())
        TraceRecorder::instance().record(name_, startNs_, dur);
}

namespace {

/** Reads TREEVQA_TRACE / TREEVQA_TRACE_BUFFER / TREEVQA_TRACE_DIR
 * once at static init, mirroring FaultInjectionEnvBootstrap, so
 * forked worker fleets inherit tracing without per-CLI wiring. */
struct TraceEnvBootstrapImpl
{
    TraceEnvBootstrapImpl()
    {
        std::size_t capacity = 0;
        if (const char *buf = std::getenv("TREEVQA_TRACE_BUFFER")) {
            const long long parsed = std::atoll(buf);
            if (parsed > 0)
                capacity = static_cast<std::size_t>(std::min<
                    long long>(parsed, 1 << 20));
        }
        if (const char *dir = std::getenv("TREEVQA_TRACE_DIR")) {
            if (*dir != '\0')
                TraceRecorder::instance().setExportPath(
                    (std::filesystem::path(dir)
                     / (localWorkerId() + ".trace.json"))
                        .string());
        }
        const char *on = std::getenv("TREEVQA_TRACE");
        if (on != nullptr && *on != '\0'
            && std::strcmp(on, "0") != 0) {
            TraceRecorder::instance().arm(capacity);
            TraceRecorder::instance().installExitHandlers();
        } else if (capacity != 0) {
            // Remember the requested ring size for a later arm().
            TraceRecorder::instance().arm(capacity);
            TraceRecorder::instance().disarm();
        }
    }
};

const TraceEnvBootstrapImpl g_traceEnvBootstrap;

} // namespace

} // namespace treevqa
