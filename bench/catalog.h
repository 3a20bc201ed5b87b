/**
 * @file
 * The figure catalog: every table and figure of the paper's evaluation
 * (plus the design-choice ablation) as a list of sweep points and a
 * render function over their Reports.
 *
 * The figures are slices of one matrix (apps x FTQ depth x technique x
 * BTB size), so they share most of their points. The `figures` driver
 * (figuresMain) takes the union of the selected figures' points, runs
 * each distinct point once through runBenchSweep(), hands every figure
 * its own points' results under its own labels, and renders the tables.
 */

#ifndef UDP_BENCH_CATALOG_H
#define UDP_BENCH_CATALOG_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace udp::bench {

/** Renders a table from one JobResult per point of a figure. */
using Render = std::function<std::string(const std::vector<JobResult>&)>;

/** One paper table or figure. */
struct Figure
{
    /** Selects the figure on the command line and names its artifacts. */
    std::string name;
    /** Banner: "Figure 13" and what the table shows. */
    const char* title = "";
    const char* what = "";
    /** The points the table needs, in render order. */
    std::vector<SweepJob> points;
    /** The table from one result per point (point order, the figure's
     *  labels); a failed point carries an all-zero Report. */
    Render render;
    /** The Reports written to "<name>.jsonl/.csv"; empty = every point
     *  that succeeded. */
    std::function<std::vector<Report>(const std::vector<JobResult>&)>
        artifacts = {};
};

/** All figures, in the order the driver runs them, at window @p o. */
std::vector<Figure> figureCatalog(const RunOptions& o);

/** The distinct points of a set of figures. */
struct PointUnion
{
    /** Each distinct (profile, config, window), labelled by the first
     *  figure that asks for it. */
    std::vector<SweepJob> jobs;
    /** jobOf[f][k]: index in jobs of figure f's point k. */
    std::vector<std::vector<std::size_t>> jobOf;
};

/**
 * Dedupes the points of @p figures by member-wise equality of profile,
 * config and window (the defaulted operator== of each), keeping first
 * appearance order.
 */
PointUnion unionOf(const std::vector<Figure>& figures);

/**
 * @p figure's view of the union's @p results: one copy per point, in
 * point order, with the Report relabelled to the point's workload and
 * label. @p jobOf is the figure's row of PointUnion::jobOf.
 */
std::vector<JobResult> figureResults(const Figure& figure,
                                     const std::vector<std::size_t>& jobOf,
                                     const std::vector<JobResult>& results);

/**
 * The `figures` command: `figures [FIGURE...] [flags]` (see SinkArgs).
 * Returns the process exit code: 0, 1 when a point failed or a requested
 * file (table, Report, telemetry or profile artifact) could not be
 * written, 130 when interrupted, 2 on a malformed command line.
 */
int figuresMain(int argc, char** argv);

} // namespace udp::bench

#endif // UDP_BENCH_CATALOG_H
