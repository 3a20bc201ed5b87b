/**
 * @file
 * `figures`: regenerates the paper's tables and figures from one
 * deduplicated sweep (catalog.h).
 *
 * Usage: figures [FIGURE...] [--out-dir DIR] [--isolate] [--resume] ...
 */

#include "catalog.h"

int
main(int argc, char** argv)
{
    return udp::bench::figuresMain(argc, argv);
}
