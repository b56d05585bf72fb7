// The three workloads. Each is a stream of schedule solves entering the
// program by one path; each reports the same end-to-end metrics in an
// untraced run and its per-layer ledger in a traced one.
#pragma once

#include "common.h"

namespace perfbench {

/// SE solves through run_search on the paper's large classes.
void run_se_paper(const Args& args, Report& report);

/// Equal-evaluation-budget campaigns through run_campaign at 2 threads.
void run_campaign_mix(const Args& args, Report& report);

/// Open-loop requests to an in-process Server over its Unix socket.
void run_serve_open(const Args& args, Report& report);

}  // namespace perfbench
