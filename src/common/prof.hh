/**
 * @file
 * Scoped profiling spans with Chrome trace_event export.
 *
 * Always compiled, env-gated: when WC3D_TRACE_OUT is unset a span is a
 * single relaxed atomic load; when set, every WC3D_PROF_SCOPE records
 * one complete ("ph":"X") event into a per-thread buffer that is only
 * ever written by its owning thread (no locks on the hot path; the
 * global registry mutex is taken once per thread, at buffer creation).
 * At process exit — or on an explicit writeChromeTrace() call — the
 * buffers serialize to Chrome trace JSON: one pid per game (see
 * ScopedProcess, set by the runner fan-out), one tid per thread, so
 * any run opens directly in Perfetto or chrome://tracing.
 *
 * Spans observe, never steer: they touch no statistic, so simulation
 * results are bit-identical with tracing on or off (enforced by
 * tests/test_replay.cc).
 */

#ifndef WC3D_COMMON_PROF_HH
#define WC3D_COMMON_PROF_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace wc3d::json {
class Value;
} // namespace wc3d::json

namespace wc3d::prof {

namespace detail {
extern std::atomic<bool> gEnabled;
} // namespace detail

/** @return true when span recording is on (WC3D_TRACE_OUT set). */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/** Turn recording on/off (tests; normally driven by WC3D_TRACE_OUT). */
void setEnabled(bool on);

/** Name the calling thread in the exported trace ("worker3"). */
void setThreadName(const std::string &name);

/**
 * Tag spans recorded by the calling thread with Chrome process @p pid
 * (named @p name in the trace) until destruction; restores the previous
 * pid then. The runner fan-out wraps each game's run in one of these,
 * giving every game its own swim-lane group in Perfetto.
 */
class ScopedProcess
{
  public:
    ScopedProcess(int pid, const std::string &name);
    ~ScopedProcess();

    ScopedProcess(const ScopedProcess &) = delete;
    ScopedProcess &operator=(const ScopedProcess &) = delete;

  private:
    int _prev;
};

/**
 * RAII span. Use through WC3D_PROF_SCOPE; @p name must outlive the
 * span (string literals). The optional detail is appended to the name
 * (":detail") for per-game / per-frame labelling.
 */
class Span
{
  public:
    explicit Span(const char *name)
    {
        if (enabled())
            begin(name, nullptr);
    }

    Span(const char *name, const std::string &detail)
    {
        if (enabled())
            begin(name, &detail);
    }

    ~Span()
    {
        if (_live)
            end();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void begin(const char *name, const std::string *detail);
    void end();

    bool _live = false;
};

/**
 * Install SIGINT/SIGTERM handlers that flush the Chrome trace to the
 * current WC3D_TRACE_OUT path (cached now) and then re-raise, so a
 * signal-terminated run keeps its trace instead of silently dropping
 * it (the regular writer is std::atexit, which a signal death skips).
 * Armed automatically at startup when WC3D_TRACE_OUT is set; call
 * again after changing the path.
 * No-op when tracing is off. Best-effort and async-signal-safe: the
 * handler serializes with write(2) into fixed buffers (no malloc — a
 * signal landing inside the allocator must not deadlock), writes to a
 * temp file renamed over the target, and skips the flush entirely
 * when the span registry is mid-write rather than deadlock.
 */
void installSignalFlush();

/** Events recorded so far across all threads (tests, sanity checks). */
std::size_t eventCount();

/** Drop all recorded events and process names (tests). */
void reset();

/**
 * Serialize every recorded span to Chrome trace JSON at @p path
 * (atomic write). Call when no spans are in flight.
 * @return false (with a message in @p error when non-null) on IO error.
 */
bool writeChromeTrace(const std::string &path,
                      std::string *error = nullptr);

/**
 * Structural validation of a parsed Chrome trace document: traceEvents
 * present, every "X" event carries pid/tid/ts/name and a non-negative
 * dur, and within each (pid, tid) lane the spans nest properly (no
 * partial overlap — begin/end discipline was balanced).
 * @p events_out (optional) receives the number of "X" events.
 */
bool validateChromeTrace(const json::Value &doc, std::string *error,
                         std::size_t *events_out = nullptr);

} // namespace wc3d::prof

#define WC3D_PROF_CONCAT2(a, b) a##b
#define WC3D_PROF_CONCAT(a, b) WC3D_PROF_CONCAT2(a, b)

/** Record a profiling span covering the rest of the enclosing scope. */
#define WC3D_PROF_SCOPE(...)                                             \
    ::wc3d::prof::Span WC3D_PROF_CONCAT(wc3dProfSpan, __LINE__)(         \
        __VA_ARGS__)

#endif // WC3D_COMMON_PROF_HH
