/**
 * @file
 * Span recorder implementation.
 */

#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <utility>

namespace perfbench {

namespace {

unsigned
threadNumber()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned mine = next.fetch_add(1);
    return mine;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // anonymous namespace

double
wallMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
        static_cast<double>(ts.tv_nsec) * 1e-6;
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
        static_cast<double>(ts.tv_nsec) * 1e-6;
}

uint64_t
Tracer::begin(std::string name, std::string detail, uint64_t parent)
{
    SpanRecord r;
    r.parent = parent;
    r.name = std::move(name);
    r.detail = std::move(detail);
    r.thread = threadNumber();
    std::lock_guard<std::mutex> lock(mu);
    r.id = nextId++;
    r.startMs = wallMs();
    open.push_back(std::move(r));
    return open.back().id;
}

void
Tracer::end(uint64_t id, double cpu_ms)
{
    double now = wallMs();
    std::lock_guard<std::mutex> lock(mu);
    auto it = std::find_if(open.begin(), open.end(),
                           [id](const SpanRecord &r) { return r.id == id; });
    if (it == open.end())
        return;
    it->endMs = now;
    it->cpuMs = cpu_ms;
    closed.push_back(std::move(*it));
    open.erase(it);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return closed;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    open.clear();
    closed.clear();
}

Span::Span(Tracer *tracer, std::string name, std::string detail,
           uint64_t parent)
    : tracer_(tracer)
{
    if (tracer_) {
        id_ = tracer_->begin(std::move(name), std::move(detail), parent);
        cpu0 = threadCpuMs();
    }
}

Span::~Span()
{
    if (tracer_)
        tracer_->end(id_, threadCpuMs() - cpu0);
}

std::string
spansJson(const std::vector<SpanRecord> &spans)
{
    std::string out = "[";
    char buf[160];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"id\":%llu,\"parent\":%llu,\"thread\":%u,"
                      "\"start_ms\":%.4f,\"end_ms\":%.4f,\"cpu_ms\":%.4f,",
                      i ? "," : "", static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent), s.thread,
                      s.startMs, s.endMs, s.cpuMs);
        out += buf;
        out += "\"name\":\"" + jsonEscape(s.name) + "\",\"detail\":\"" +
            jsonEscape(s.detail) + "\"}";
    }
    out += "\n]";
    return out;
}

} // namespace perfbench
