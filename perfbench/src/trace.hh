/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are
 * opened around the public calls an op makes into each layer (name,
 * start, end, parent, thread) and written out once the run ends.
 * With tracing off no Tracer exists and every Span is a no-op, so
 * the end-to-end runs pay one null check per call site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in milliseconds. */
double wallMs();

/** CPU time of the whole process (all threads) in milliseconds. */
double cpuMs();

/** CPU time of the calling thread in milliseconds. */
double threadCpuMs();

/** One finished span. */
struct SpanRecord {
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span.
    std::string name;    ///< "<layer>.<call>", e.g. "models.make".
    std::string detail;  ///< Workload, configuration or SL set.
    unsigned thread = 0; ///< Small per-run thread number.
    double startMs = 0.0;
    double endMs = 0.0;
    double cpuMs = 0.0;  ///< CPU time of its thread inside the span.

    double durMs() const { return endMs - startMs; }
};

/** Thread-safe span store. */
class Tracer
{
  public:
    /** Open a span; returns its id (parent 0 = root). */
    uint64_t begin(std::string name, std::string detail,
                   uint64_t parent);

    /** Close span `id`, whose thread spent `cpu_ms` of CPU in it. */
    void end(uint64_t id, double cpu_ms);

    /**
     * The span new spans on other threads attach to when their
     * caller cannot pass a parent (factory calls made by the
     * scheduler's or the service's worker threads).
     */
    void setAmbient(uint64_t id) { ambient_.store(id); }
    uint64_t ambient() const { return ambient_.load(); }

    /** @return Every closed span, in closing order. */
    std::vector<SpanRecord> spans() const;

    /** Drop every span recorded so far. */
    void clear();

  private:
    mutable std::mutex mu;
    std::vector<SpanRecord> open;   ///< Guarded by mu.
    std::vector<SpanRecord> closed; ///< Guarded by mu.
    uint64_t nextId = 1;            ///< Guarded by mu.
    std::atomic<uint64_t> ambient_{0};
};

/** RAII span; a null tracer makes it a no-op. */
class Span
{
  public:
    Span(Tracer *tracer, std::string name, std::string detail = "",
         uint64_t parent = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    uint64_t id_ = 0;
    double cpu0 = 0.0;
};

/** Render spans as a JSON array. */
std::string spansJson(const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
