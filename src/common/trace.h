#ifndef TREEVQA_COMMON_TRACE_H
#define TREEVQA_COMMON_TRACE_H

/**
 * Flight-recorder tracing: scoped spans recorded into per-thread
 * ring buffers, exported as Chrome trace_event JSON
 * (chrome://tracing, Perfetto) on normal exit, SIGTERM, and
 * fatal-signal paths.
 *
 * The cost model mirrors fault_injection.h:
 *
 *  - disarmed (the production default): entering a TRACE_SPAN is one
 *    relaxed atomic load and a branch — no clock reads, no
 *    allocation;
 *  - armed (TREEVQA_TRACE=1): two steady_clock reads per span plus a
 *    fixed-size ring slot write under an uncontended per-thread
 *    mutex.
 *
 * Ring buffers are bounded (TREEVQA_TRACE_BUFFER events per thread,
 * default 4096) and overwrite oldest-first, so a crashed worker's
 * dump is the tail of what it was doing — a flight recorder, not a
 * full log. Buffers outlive their threads (the recorder keeps them
 * alive), so pool-thread spans survive into the exit-path export.
 *
 * Environment bootstrap (read once at static init, like
 * TREEVQA_FAULT_PLAN):
 *   TREEVQA_TRACE=1          arm the recorder
 *   TREEVQA_TRACE_BUFFER=N   ring capacity per thread (events)
 *   TREEVQA_TRACE_DIR=<dir>  fallback export directory; CLIs that
 *                            know their sweep dir override the path
 *                            with <sweep>/traces/<id>-p<pid>.trace.json
 */

#include <atomic>
#include <cstdint>
#include <string>

namespace treevqa {

class Histogram;

class TraceRecorder
{
  public:
    static TraceRecorder &instance();

    /** Hot-path gate: one relaxed load, like FaultInjection::armed. */
    static bool
    armed()
    {
        return armedFlag().load(std::memory_order_relaxed);
    }

    /** Arm the recorder. `capacity` sets the per-thread ring size in
     * events (0 keeps the current size); existing rings are cleared
     * and resized so a re-arm starts a fresh recording. */
    void arm(std::size_t capacity = 0);
    void disarm();

    /** Where flush() writes; empty disables export (flush becomes a
     * no-op returning true). */
    void setExportPath(const std::string &path);
    std::string exportPath() const;

    /** Record one completed span (called by TraceSpan; public so
     * phases timed without RAII scoping can report manually). */
    void record(const char *name, std::int64_t startSteadyNs,
                std::int64_t durNs);

    /** Export every buffered span to `path` as Chrome trace JSON,
     * sorted by (ts, tid) for deterministic output. Best-effort:
     * returns false on I/O failure or fault site "trace.flush". */
    bool flushTo(const std::string &path);
    /** flushTo(exportPath()); no-op (true) when unarmed-and-empty or
     * no path is set. */
    bool flush();

    /** Throttled flush for long-running loops (heartbeats): flushes
     * at most once per `minIntervalMs`, so a SIGKILLed worker still
     * leaves a recent dump behind. */
    void maybePeriodicFlush(std::int64_t minIntervalMs);

    /** Install atexit + fatal-signal (SIGSEGV/SIGBUS/SIGFPE/SIGILL/
     * SIGABRT) hooks that flush the recorder, then re-raise with the
     * default disposition. Idempotent. SIGTERM stays with the CLI
     * stop handlers, which request a clean drain that reaches the
     * atexit flush. */
    void installExitHandlers();

    /** Drop every buffered event (test isolation). */
    void clear();

    /** Buffered event count across all threads (tests). */
    std::size_t bufferedEvents() const;

    static std::int64_t nowSteadyNs();

  private:
    TraceRecorder();

    static std::atomic<bool> &armedFlag();

    struct Impl;
    Impl *impl_;

    friend struct TraceEnvBootstrap;
};

/**
 * RAII span. Disarmed with no histogram: the constructor is one
 * relaxed load, the destructor one branch. With a histogram the span
 * always times itself and observes the duration (metrics stay on
 * even when tracing is off); the trace event is only recorded when
 * armed. end() closes the span early (before non-scoped work).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name,
                       Histogram *hist = nullptr);
    ~TraceSpan() { end(); }

    void end();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_;
    Histogram *hist_;
    std::int64_t startNs_ = 0;
    bool active_;
};

#define TREEVQA_TRACE_CAT2(a, b) a##b
#define TREEVQA_TRACE_CAT(a, b) TREEVQA_TRACE_CAT2(a, b)
#define TRACE_SPAN(name)                                             \
    ::treevqa::TraceSpan TREEVQA_TRACE_CAT(treevqa_span_,            \
                                           __LINE__)(name)
#define TRACE_SPAN_TIMED(name, hist)                                 \
    ::treevqa::TraceSpan TREEVQA_TRACE_CAT(treevqa_span_,            \
                                           __LINE__)(name, &(hist))

} // namespace treevqa

#endif // TREEVQA_COMMON_TRACE_H
