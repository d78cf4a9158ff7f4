#pragma once

// `kosha_bench compare A.json B.json [--benchmark BENCHMARK.json]`: judge
// run B against run A, metric by metric and workload by workload, with the
// regression bounds BENCHMARK.json fixes for the end-to-end metrics.

namespace kosha::bench {

/// argv[0] is "compare". Prints one verdict line per (metric, workload):
/// ok, worse, or unresolved. Returns 1 if anything is worse, 2 on a usage
/// or input error, 0 otherwise.
int compare_main(int argc, char** argv);

}  // namespace kosha::bench
