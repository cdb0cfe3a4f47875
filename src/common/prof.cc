#include "common/prof.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/strutil.hh"

namespace wc3d::prof {

namespace detail {
std::atomic<bool> gEnabled{false};
} // namespace detail

namespace {

/** One completed span. */
struct Event
{
    std::string name;
    int pid = 0;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
};

/** A begun, not yet ended span (per-thread stack). */
struct OpenSpan
{
    std::string name;
    int pid = 0;
    std::uint64_t startNs = 0;
};

/**
 * Per-thread recording buffer. Only the owning thread appends; the
 * writer drains all buffers under the registry mutex while no spans
 * are in flight. Buffers are never destroyed (threads may outlive the
 * buffer registry order), so Event appends stay lock-free.
 */
struct Buffer
{
    int tid = 0;
    std::string threadName;
    int currentPid = 0;
    std::vector<OpenSpan> stack;
    std::vector<Event> events;
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<Buffer>> buffers;
    std::map<int, std::string> processNames;
    std::chrono::steady_clock::time_point base =
        std::chrono::steady_clock::now();
};

Registry &
registry()
{
    static Registry *r = new Registry(); // never destroyed: threads may
                                         // record until process exit
    return *r;
}

thread_local Buffer *tlsBuffer = nullptr;

Buffer &
buffer()
{
    if (!tlsBuffer) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        auto buf = std::make_unique<Buffer>();
        buf->tid = static_cast<int>(r.buffers.size());
        tlsBuffer = buf.get();
        r.buffers.push_back(std::move(buf));
    }
    return *tlsBuffer;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - registry().base)
            .count());
}

/** The WC3D_TRACE_OUT path ("" when unset). */
std::string
tracePath()
{
    const char *v = std::getenv("WC3D_TRACE_OUT");
    return (v && *v) ? std::string(v) : std::string();
}

void
atexitFlush()
{
    std::string path = tracePath();
    if (enabled() && !path.empty())
        writeChromeTrace(path);
}

/** Output path for the signal handler, cached at install time
 *  (getenv/std::string are off-limits inside a handler). */
char gSignalPath[512];

/** Re-entrancy latch: one flush attempt per process, ever. */
volatile std::sig_atomic_t gSignalFlushDone = 0;

/** Set once installSignalFlush() has forced registry() construction;
 *  the handler must never be the first caller (that would `new`). */
volatile std::sig_atomic_t gRegistryReady = 0;

/**
 * Fixed-buffer fd sink for the signal handler: write(2) only, no heap,
 * no stdio. malloc is not async-signal-safe — a signal landing while
 * some thread is inside the allocator would deadlock on the arena lock
 * instead of letting the process die.
 */
struct FdSink
{
    int fd = -1;
    std::size_t len = 0;
    bool ok = true;
    char buf[4096];

    void
    flush()
    {
        std::size_t off = 0;
        while (ok && off < len) {
            ssize_t n = ::write(fd, buf + off, len - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                ok = false;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
        len = 0;
    }

    void
    putRaw(const char *s, std::size_t n)
    {
        while (ok && n > 0) {
            if (len == sizeof(buf))
                flush();
            std::size_t take = sizeof(buf) - len;
            if (take > n)
                take = n;
            std::memcpy(buf + len, s, take);
            len += take;
            s += take;
            n -= take;
        }
    }
};

/** String sink of the exit and explicit writers. */
struct StringSink
{
    std::string out;

    void
    putRaw(const char *s, std::size_t n)
    {
        out.append(s, n);
    }
};

/** @p s onto sink @p w. This and the helpers below format by hand,
 *  without allocating, so the signal handler can use them. */
template <typename Sink>
void
put(Sink &w, const char *s)
{
    w.putRaw(s, std::strlen(s));
}

template <typename Sink>
void
putU64(Sink &w, std::uint64_t v)
{
    char tmp[20];
    std::size_t n = sizeof(tmp);
    do {
        tmp[--n] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    w.putRaw(tmp + n, sizeof(tmp) - n);
}

template <typename Sink>
void
putI64(Sink &w, std::int64_t v)
{
    if (v < 0) {
        w.putRaw("-", 1);
        putU64(w, static_cast<std::uint64_t>(-v));
    } else {
        putU64(w, static_cast<std::uint64_t>(v));
    }
}

/** Nanoseconds as "<microseconds>.<3-digit remainder>". */
template <typename Sink>
void
putTimeUs(Sink &w, std::uint64_t ns)
{
    putU64(w, ns / 1000);
    std::uint64_t r = ns % 1000;
    char frac[4] = {'.', static_cast<char>('0' + r / 100),
                    static_cast<char>('0' + r / 10 % 10),
                    static_cast<char>('0' + r % 10)};
    w.putRaw(frac, 4);
}

/** @p s JSON-escaped exactly as json::escape does it. */
template <typename Sink>
void
putEscaped(Sink &w, const std::string &s)
{
    static const char kHex[] = "0123456789abcdef";
    std::size_t plain = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        char esc[6] = {'\\', static_cast<char>(c)};
        std::size_t n = 2;
        if (c == '\n')
            esc[1] = 'n';
        else if (c == '\r')
            esc[1] = 'r';
        else if (c == '\t')
            esc[1] = 't';
        else if (c < 0x20) {
            esc[1] = 'u';
            esc[2] = esc[3] = '0';
            esc[4] = kHex[c >> 4];
            esc[5] = kHex[c & 15];
            n = 6;
        } else if (c != '"' && c != '\\') {
            continue;
        }
        w.putRaw(s.data() + plain, i - plain);
        w.putRaw(esc, n);
        plain = i + 1;
    }
    w.putRaw(s.data() + plain, s.size() - plain);
}

/**
 * The Chrome trace document of @p r onto @p w: process and thread name
 * metadata, then every complete event, timestamps in microseconds with
 * ns precision. The caller holds the registry mutex. The one owner of
 * the layout: the exit/explicit writer and the signal handler both
 * call it, so they write the same bytes for the same events.
 */
template <typename Sink>
void
serializeTrace(const Registry &r, Sink &w)
{
    bool first = true;
    auto comma = [&] {
        if (!first)
            put(w, ",\n");
        first = false;
    };

    put(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (const auto &kv : r.processNames) {
        comma();
        put(w, "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        putI64(w, kv.first);
        put(w, ",\"tid\":0,\"args\":{\"name\":\"");
        putEscaped(w, kv.second);
        put(w, "\"}}");
    }
    for (const auto &buf : r.buffers) {
        if (buf->threadName.empty())
            continue;
        comma();
        put(w, "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
               "\"tid\":");
        putI64(w, buf->tid);
        put(w, ",\"args\":{\"name\":\"");
        putEscaped(w, buf->threadName);
        put(w, "\"}}");
    }
    for (const auto &buf : r.buffers) {
        for (const Event &ev : buf->events) {
            comma();
            put(w, "{\"ph\":\"X\",\"name\":\"");
            putEscaped(w, ev.name);
            put(w, "\",\"cat\":\"wc3d\",\"pid\":");
            putI64(w, ev.pid);
            put(w, ",\"tid\":");
            putI64(w, buf->tid);
            put(w, ",\"ts\":");
            putTimeUs(w, ev.startNs);
            put(w, ",\"dur\":");
            putTimeUs(w, ev.durNs);
            put(w, "}");
        }
    }
    put(w, "\n]}\n");
}

/**
 * The signal handler's writer: serializeTrace onto an FdSink, with
 * open/write/rename(2) only — zero allocations. Written to
 * "<path>.sig" then renamed so a half-written flush never clobbers a
 * good trace. The caller holds (try_lock'ed) the registry mutex;
 * reading a buffer whose owner thread is mid-append can still tear
 * the newest event — best-effort by design.
 */
bool
writeChromeTraceSignalSafe(Registry &r, const char *path)
{
    char tmp[sizeof(gSignalPath) + 8];
    std::size_t plen = std::strlen(path);
    if (plen + 5 > sizeof(tmp))
        return false;
    std::memcpy(tmp, path, plen);
    std::memcpy(tmp + plen, ".sig", 5);
    int fd = ::open(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;

    FdSink w;
    w.fd = fd;
    serializeTrace(r, w);
    w.flush();
    bool ok = w.ok;
    ::close(fd);
    if (ok && ::rename(tmp, path) != 0)
        ok = false;
    if (!ok)
        ::unlink(tmp);
    return ok;
}

/**
 * SIGINT/SIGTERM: best-effort trace flush, then die by the signal.
 * A signal-terminated run used to lose its whole trace because the
 * only writer was std::atexit. The handler stays inside the
 * async-signal-safe envelope: no malloc (writeChromeTraceSignalSafe
 * formats into fixed buffers), the registry mutex is try_lock'ed —
 * skip the flush rather than deadlock — and the latch keeps a second
 * signal from re-entering. The default disposition is restored and the
 * signal re-raised so the parent still observes death-by-signal.
 */
void
signalFlush(int sig)
{
    if (!gSignalFlushDone) {
        gSignalFlushDone = 1;
        if (enabled() && gSignalPath[0] && gRegistryReady) {
            Registry &r = registry();
            if (r.mutex.try_lock()) {
                writeChromeTraceSignalSafe(r, gSignalPath);
                r.mutex.unlock();
            }
        }
    }
    std::signal(sig, SIG_DFL);
    ::raise(sig);
}

/** Reads WC3D_TRACE_OUT once at startup and arms the exit writers. */
struct EnvInit
{
    EnvInit()
    {
        const char *v = std::getenv("WC3D_TRACE_OUT");
        if (v && *v) {
            detail::gEnabled.store(true, std::memory_order_relaxed);
            std::atexit(atexitFlush);
            installSignalFlush();
        }
    }
};

EnvInit gEnvInit;

} // namespace

void
installSignalFlush()
{
    std::string path = tracePath();
    if (path.empty() || path.size() >= sizeof(gSignalPath))
        return;
    std::memcpy(gSignalPath, path.c_str(), path.size() + 1);
    registry(); // construct now; the handler must never be first
    gRegistryReady = 1;
    gSignalFlushDone = 0;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = signalFlush;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

void
setThreadName(const std::string &name)
{
    buffer().threadName = name;
}

ScopedProcess::ScopedProcess(int pid, const std::string &name)
{
    Buffer &buf = buffer();
    _prev = buf.currentPid;
    buf.currentPid = pid;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.processNames[pid] = name;
}

ScopedProcess::~ScopedProcess()
{
    buffer().currentPid = _prev;
}

void
Span::begin(const char *name, const std::string *detail)
{
    Buffer &buf = buffer();
    OpenSpan open;
    open.name = name;
    if (detail) {
        open.name += ':';
        open.name += *detail;
    }
    open.pid = buf.currentPid;
    open.startNs = nowNs();
    buf.stack.push_back(std::move(open));
    _live = true;
}

void
Span::end()
{
    Buffer &buf = buffer();
    if (buf.stack.empty())
        return; // reset() raced a live span (tests only); drop it
    OpenSpan open = std::move(buf.stack.back());
    buf.stack.pop_back();
    Event ev;
    ev.name = std::move(open.name);
    ev.pid = open.pid;
    ev.startNs = open.startNs;
    ev.durNs = nowNs() - open.startNs;
    buf.events.push_back(std::move(ev));
}

std::size_t
eventCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::size_t n = 0;
    for (const auto &buf : r.buffers)
        n += buf->events.size();
    return n;
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto &buf : r.buffers) {
        buf->events.clear();
        buf->stack.clear();
    }
    r.processNames.clear();
}

bool
writeChromeTrace(const std::string &path, std::string *error)
{
    StringSink sink;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        serializeTrace(r, sink);
    }
    return json::writeFileAtomic(path, sink.out, error);
}

bool
validateChromeTrace(const json::Value &doc, std::string *error,
                    std::size_t *events_out)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "chrome trace: " + why;
        return false;
    };

    if (!doc.isObject())
        return fail("document is not an object");
    const json::Value *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return fail("missing traceEvents array");

    struct Lane
    {
        // (start, end) pairs in recorded order.
        std::vector<std::pair<double, double>> spans;
    };
    std::map<std::pair<int, int>, Lane> lanes;

    std::size_t count = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const json::Value &ev = events->at(i);
        if (!ev.isObject())
            return fail(format("event %zu is not an object", i));
        const json::Value *ph = ev.find("name");
        const json::Value *phase = ev.find("ph");
        if (!ph || !ph->isString() || ph->asString().empty())
            return fail(format("event %zu has no name", i));
        if (!phase || !phase->isString())
            return fail(format("event %zu has no phase", i));
        if (phase->asString() == "M")
            continue;
        if (phase->asString() != "X")
            return fail(format("event %zu: unexpected phase '%s'", i,
                               phase->asString().c_str()));
        const json::Value *pid = ev.find("pid");
        const json::Value *tid = ev.find("tid");
        const json::Value *ts = ev.find("ts");
        const json::Value *dur = ev.find("dur");
        if (!pid || !pid->isNumber() || !tid || !tid->isNumber())
            return fail(format("event %zu lacks pid/tid", i));
        if (!ts || !ts->isNumber() || !dur || !dur->isNumber())
            return fail(format("event %zu lacks ts/dur", i));
        if (ts->asDouble() < 0.0)
            return fail(format("event %zu has negative ts", i));
        if (dur->asDouble() < 0.0)
            return fail(format("event %zu has negative duration", i));
        ++count;
        auto key = std::make_pair(static_cast<int>(pid->asI64()),
                                  static_cast<int>(tid->asI64()));
        lanes[key].spans.emplace_back(
            ts->asDouble(), ts->asDouble() + dur->asDouble());
    }

    // Within a lane, spans came from one thread's begin/end stack, so
    // any two either nest or are disjoint; partial overlap means an
    // unbalanced begin/end sequence.
    for (auto &kv : lanes) {
        auto &spans = kv.second.spans;
        std::sort(spans.begin(), spans.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second > b.second; // parents first
                  });
        std::vector<double> stack; // enclosing span end times
        for (const auto &span : spans) {
            while (!stack.empty() && stack.back() <= span.first)
                stack.pop_back();
            if (!stack.empty() && span.second > stack.back()) {
                return fail(format(
                    "lane pid=%d tid=%d: span [%f, %f] partially "
                    "overlaps an enclosing span ending at %f",
                    kv.first.first, kv.first.second, span.first,
                    span.second, stack.back()));
            }
            stack.push_back(span.second);
        }
    }

    if (events_out)
        *events_out = count;
    return true;
}

} // namespace wc3d::prof
