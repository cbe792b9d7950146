#ifndef TREEVQA_COMMON_TRACE_H
#define TREEVQA_COMMON_TRACE_H

/**
 * Scoped trace spans. A span with a histogram always times itself
 * and observes its duration (metrics are not optional). When tracing
 * is armed (TREEVQA_TRACE=1, read once at static init, so forked
 * fleets inherit it), a closed span is also journaled as one
 * `trace.span` event with detail {"name", "durUs"} into
 * EventLog::instance(); its HLC wall time is the span's end. Spans
 * reach disk with the journal's own flushes (every beat, commit and
 * job claim), and a span closed while no journal is open is dropped,
 * like any emit.
 *
 * The cost model mirrors fault_injection.h:
 *
 *  - disarmed (the production default): entering a TRACE_SPAN is one
 *    relaxed atomic load and a branch: no clock reads, no
 *    allocation;
 *  - armed: two steady_clock reads plus one journal emit (bench
 *    `trace_overhead_armed`).
 *
 * No span may close while the journal's mutex is held: the emit
 * would deadlock. EventLog's flush path times no span.
 */

#include <cstdint>

namespace treevqa {

class Histogram;

/**
 * RAII span. Disarmed with no histogram: the constructor is one
 * relaxed load, the destructor one branch. end() closes the span
 * early (before non-scoped work).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name,
                       Histogram *hist = nullptr);
    ~TraceSpan() { end(); }

    void end();

    /** Hot-path gate: one relaxed load, like FaultInjection::armed. */
    static bool armed();
    /** Arm or disarm journaling (tests and benches; processes arm
     * through TREEVQA_TRACE). */
    static void setArmed(bool on);

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_;
    Histogram *hist_;
    std::int64_t startNs_ = 0;
    bool journal_;
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
