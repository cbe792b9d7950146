#include "common/trace.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/event_log.h"
#include "common/metrics.h"

namespace treevqa {

namespace {

std::atomic<bool> g_armed{false};

std::int64_t
nowSteadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Reads TREEVQA_TRACE once at static init, mirroring
 * FaultInjectionEnvBootstrap, so forked worker fleets inherit tracing
 * without per-CLI wiring. */
struct TraceEnvBootstrap
{
    TraceEnvBootstrap()
    {
        const char *on = std::getenv("TREEVQA_TRACE");
        if (on != nullptr && *on != '\0' && std::strcmp(on, "0") != 0)
            TraceSpan::setArmed(true);
    }
};

const TraceEnvBootstrap g_traceEnvBootstrap;

} // namespace

bool
TraceSpan::armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

void
TraceSpan::setArmed(bool on)
{
    g_armed.store(on, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char *name, Histogram *hist)
    : name_(name), hist_(hist), journal_(armed()),
      active_(hist != nullptr || journal_)
{
    if (active_)
        startNs_ = nowSteadyNs();
}

void
TraceSpan::end()
{
    if (!active_)
        return;
    active_ = false;
    const std::int64_t dur = nowSteadyNs() - startNs_;
    const std::int64_t clamped = dur < 0 ? 0 : dur;
    if (hist_ != nullptr)
        hist_->observe(static_cast<std::uint64_t>(clamped));
    if (journal_)
        EventLog::instance().emitSpan(name_, clamped / 1000);
}

} // namespace treevqa
