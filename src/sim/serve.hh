/**
 * @file
 * The simulation service: one long-lived engine, many concurrent
 * clients, newline-delimited JSON in both directions (DESIGN.md §13).
 *
 * The batch CLI pays workload synthesis and hint compilation once per
 * *process*; a service pays them once per *deployment*. ServeEngine
 * wraps one ExperimentRunner — whose workload/compiled-program caches
 * are already thread-safe and
 * persist across run() calls — and runs each client request as one
 * sweep on its own thread, streaming per-cell records back the moment
 * CellHooks::onCellDone fires.
 *
 * Request envelope (one JSON object per line):
 *
 *     {"id": "r1", "spec": { ...writeSpecJson schema... }}
 *     {"cancel": "r1"}
 *
 * Response records (one JSON object per line, tagged with the id):
 *
 *     {"id":"r1","event":"accepted","cells":N,"seeds":S}
 *     {"id":"r1","event":"cell","checkpoint":{...toJson(CellCheckpoint)}}
 *     {"id":"r1","event":"done","cells":N,"cellsSimulated":a,
 *      "cellsShared":b,"cellsCached":c,"cellsCancelled":d,
 *      "cancelled":false,"export":"<canonical writeJson text>"}
 *     {"id":"r1","event":"error","error":"message"}   (terminal)
 *
 * Cell records reuse the checkpoint payload schema, canonicalized
 * (timing zeroed), so a client that collects them holds exactly what
 * a checkpoint directory would; the done record of an uncancelled,
 * fully successful request additionally embeds the complete canonical
 * export, byte-identical to `siqsim run --json` of the same spec.
 *
 * Cross-request dedupe: every cell has a canonical identity — the
 * spec JSON of its own 1×1 sub-grid with jobs forced to 0 — and
 * the engine keeps (a) an in-flight table mapping identities to the
 * request currently simulating them and (b) a bounded LRU of
 * completed cell payloads. A request whose cell is
 * already in flight attaches as a waiter and receives the fan-out of
 * the one simulation; a cell in the completed cache is answered
 * immediately without simulating. Counters in the done record prove
 * which path each cell took.
 *
 * Malformed requests — bad JSON, schema violations, unknown
 * workloads/techniques, duplicate ids — produce an error record on
 * the offending client's stream and nothing else: ingestion runs
 * through the recoverable Result-based entry points (tryReadSpecJson
 * and friends), so one tenant's garbage never unwinds another
 * tenant's run.
 *
 * Backpressure: each client owns a bounded record queue. A request's
 * own producers block when it is full, so a slow reader throttles its
 * own simulations rather than ballooning memory. Cross-client fan-out
 * (another request's worker delivering a shared cell) waits at most
 * Options::fanoutWaitMs before hard-closing the laggard, so one
 * tenant that stops reading can never stall another tenant's workers.
 * hardClose() (reader hung up or chronically slow) discards the
 * queue, unblocks producers, and cancels the client's requests.
 *
 * Cancellation rides CellHooks::shouldRun's execution-time
 * re-consult: cells not yet started are drained, cells mid-simulation
 * finish, and a claimed cell with attached waiters from other
 * requests runs to completion anyway — cancelling a request never
 * steals a result some other tenant is waiting on.
 */

#ifndef SIQ_SIM_SERVE_HH
#define SIQ_SIM_SERVE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/result.hh"
#include "sim/sweep.hh"

namespace siq::sim
{

/** Multi-client simulation service over one shared ExperimentRunner. */
class ServeEngine
{
  public:
    struct Options
    {
        /** Worker threads per request sweep (0 = hardware). */
        int jobs = 0;
        /** Per-client output queue capacity, in records. */
        std::size_t queueCap = 256;
        /** Completed-cell LRU capacity, in cells (0 disables). */
        std::size_t resultCacheCap = 1024;
        /** Max milliseconds a simulating worker waits to fan a
         *  shared cell out to a waiter's full queue before treating
         *  that client as dead and hard-closing it (0 = wait
         *  forever). Backpressure on a request's *own* stream is
         *  always unbounded — a slow reader throttles only its own
         *  simulations. */
        std::size_t fanoutWaitMs = 10000;
    };

    /** Options from SIQSIM_SERVE_QUEUE / SIQSIM_SERVE_RESULT_CACHE /
     *  SIQSIM_SERVE_FANOUT_MS (validated up front — a daemon
     *  should refuse a malformed environment at startup, not die on
     *  request one). */
    static Result<Options> optionsFromEnv();

    explicit ServeEngine(const Options &opts);
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * One connected client: feed request lines in, pop response
     * records out. Thread-safe: a transport typically runs one
     * reader thread calling submitLine()/endOfInput() and one writer
     * thread looping on nextRecord().
     */
    class Client
    {
      public:
        ~Client();

        /** Parse and dispatch one request line. Malformed input
         *  yields an error record, never a throw. */
        void submitLine(const std::string &line);

        /** No more requests: once in-flight ones finish, nextRecord
         *  returns false. */
        void endOfInput();

        /** Reader hung up: cancel this client's requests, discard
         *  queued records, unblock producers. */
        void hardClose();

        /** Block for the next response record (no trailing newline).
         *  False once the stream is finished. */
        bool nextRecord(std::string &out);

        struct State; ///< implementation detail (serve.cc)

      private:
        friend class ServeEngine;
        explicit Client(std::shared_ptr<State> s);
        std::shared_ptr<State> state;
    };

    /** Register a new client session. */
    std::shared_ptr<Client> connect();

    /**
     * Aggregate dedupe accounting across all accepted requests. A
     * cell is counted the moment its path (simulated, shared, cached,
     * cancelled) is decided — before any record reports it — so once
     * a client has read a done record, stats() already includes that
     * request's counts.
     */
    struct Stats
    {
        std::uint64_t requests = 0;      ///< accepted requests
        std::uint64_t errors = 0;        ///< error records emitted
        std::uint64_t cellsSimulated = 0;
        std::uint64_t cellsShared = 0;   ///< served by in-flight fan-out
        std::uint64_t cellsCached = 0;   ///< served from the LRU
        std::uint64_t cellsCancelled = 0;
    };
    Stats stats() const;

    /** The shared runner's cache counters (workloads/compile). */
    SweepCacheStats cacheStats() const;

  private:
    struct Impl;
    std::shared_ptr<Impl> impl;
};

/**
 * Drive an engine over stdio: requests from @p in, records to @p out
 * (flushed per line). Returns when @p in hits EOF and every accepted
 * request has drained. The single-process transport used by tests
 * and by `siqsim serve --stdio`.
 */
void serveStdio(ServeEngine &engine, std::istream &in,
                std::ostream &out);

/**
 * Listen on a unix domain socket at @p path (unlinking any stale
 * socket first) and serve each connection on its own reader/writer
 * thread pair until the process is signalled. @p ready, when
 * non-null, is written once the socket is listening (the CLI prints
 * a line so scripts can wait for startup).
 */
void serveUnixSocket(ServeEngine &engine, const std::string &path,
                     std::ostream *ready);

} // namespace siq::sim

#endif // SIQ_SIM_SERVE_HH
