#include "compiler/loop_analysis.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace siq::compiler
{

namespace
{

constexpr double eps = 1e-9;
constexpr double negInf = -std::numeric_limits<double>::infinity();

/**
 * True when the body DDG has a cycle whose weight
 * sum(latency) - period * sum(distance) is positive, i.e. when the
 * candidate period is smaller than the critical CDS's cycles per
 * iteration. Standard Bellman-Ford positive-cycle detection with all
 * nodes as sources; optionally reports one node on such a cycle.
 */
bool
hasPositiveCycle(const Ddg &ddg, double period, int *cycleNode)
{
    const int n = ddg.size();
    std::vector<double> dist(static_cast<std::size_t>(n), 0.0);
    std::vector<int> pred(static_cast<std::size_t>(n), -1);
    int improvedNode = -1;
    for (int round = 0; round <= n; round++) {
        improvedNode = -1;
        for (const auto &edge : ddg.edges) {
            const double w =
                edge.latency - period * edge.distance;
            if (dist[edge.from] + w > dist[edge.to] + eps) {
                dist[edge.to] = dist[edge.from] + w;
                pred[edge.to] = edge.from;
                improvedNode = edge.to;
            }
        }
        if (improvedNode < 0)
            return false;
    }
    if (cycleNode != nullptr) {
        // walk predecessors n times to land on the cycle itself
        int v = improvedNode;
        for (int i = 0; i < n; i++)
            v = pred[v];
        *cycleNode = v;
    }
    return true;
}

/**
 * Longest path distances (weights latency - period * distance) from
 * @p source. At the critical period the graph has no positive cycle,
 * so the distances are finite; unreachable nodes get -inf.
 */
std::vector<double>
longestFrom(const Ddg &ddg, int source, double period)
{
    const int n = ddg.size();
    std::vector<double> dist(static_cast<std::size_t>(n), negInf);
    dist[source] = 0.0;
    for (int round = 0; round < n + 1; round++) {
        bool changed = false;
        for (const auto &edge : ddg.edges) {
            if (dist[edge.from] == negInf)
                continue;
            const double w =
                edge.latency - period * edge.distance;
            if (dist[edge.from] + w > dist[edge.to] + eps) {
                dist[edge.to] = dist[edge.from] + w;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return dist;
}

} // namespace

std::optional<CdsAnalysis>
analyzeCds(const Ddg &body)
{
    if (body.size() == 0)
        return std::nullopt;
    const auto cdsList = cyclicDependenceSets(body);
    if (cdsList.empty())
        return std::nullopt;

    // critical period = max cycle ratio latency/distance, found by
    // binary search on the positive-cycle predicate
    double lo = 0.0;
    double hi = 1.0;
    for (const auto &edge : body.edges)
        hi += edge.latency;
    while (hasPositiveCycle(body, hi, nullptr))
        hi *= 2.0;
    for (int it = 0; it < 60 && hi - lo > 1e-7; it++) {
        const double mid = (lo + hi) / 2.0;
        if (hasPositiveCycle(body, mid, nullptr))
            lo = mid;
        else
            hi = mid;
    }
    const double period = std::max(hi, 1e-6);

    // anchor: a node on the critical cycle (search just below the
    // critical period where the cycle is still positive)
    int anchor = -1;
    if (!hasPositiveCycle(body, lo - 1e-6 > 0 ? lo - 1e-6 : 0.0,
                          &anchor) ||
        anchor < 0) {
        // degenerate (all cycles ~zero ratio); anchor on any CDS
        anchor = cdsList.front().front();
    }

    CdsAnalysis res;
    res.period = period;
    res.anchor = anchor;

    const int n = body.size();
    const int bodyLen = n;
    const std::vector<double> dist = longestFrom(body, anchor, period);
    res.iterationOffset.assign(static_cast<std::size_t>(n),
                               std::numeric_limits<int>::min());

    int entries = 1;
    for (int j = 0; j < n; j++) {
        if (dist[j] == negInf)
            continue;
        const int k = static_cast<int>(
            std::ceil(dist[j] / period - 1e-6));
        res.iterationOffset[j] = k;
        // span in program order between inst j of iteration i and the
        // anchor of iteration i + k (positions are 1-based)
        const long span =
            std::labs(static_cast<long>(k) * bodyLen +
                      (anchor + 1) - (j + 1)) + 1;
        entries = std::max(entries, static_cast<int>(span));
    }
    res.entries = entries;
    return res;
}

LoopAnalysis
analyzeLoop(const Ddg &body, const PseudoIqConfig &cfg,
            int unrollFactor, double slackFraction)
{
    LoopAnalysis res;
    if (body.size() == 0) {
        res.entries = 1;
        return res;
    }

    // unroll far enough that the simulated window can exceed the IQ
    // itself, or small bodies would cap their own estimates
    const int len = body.size();
    const int copies = std::clamp(
        (cfg.iqSize * 6 / 5 + len - 1) / len, std::max(2, unrollFactor),
        maxLoopCopies);
    std::vector<PseudoInst> insts;
    std::vector<PseudoDep> deps;
    expandLoopDdg(body, copies, cfg, insts, deps);
    res.unrolledEntries =
        PseudoIqSequence(std::move(insts), deps, cfg)
            .minimalRange(slackFraction)
            .range;

    // the emitted value is the minimal non-degrading range over the
    // unrolled steady state; the CDS equations (analyzeCds) are the
    // paper's derivation and agree on its example, but are blind to
    // resource limits for disconnected side chains
    res.entries = std::clamp(res.unrolledEntries, 1, cfg.iqSize);
    return res;
}

} // namespace siq::compiler
