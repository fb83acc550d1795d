// One workload of the two-clock benchmark in one process: set-up, a timed
// closed-loop phase on the serial executor, an end-of-run power cut with
// recovery, and a RESULT line with every metric. run.py drives repeated
// processes and aggregates them; see README.md.
//
//   perfbench --workload device_gc --seed 7 [--samples lat.json]
//             [--trace --spans spans.tsv]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  const int64_t process_start = perfbench::WallNs();
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--spans" && has_value) {
      args.spans_path = argv[++i];
    } else if (a == "--samples" && has_value) {
      args.samples_path = argv[++i];
    } else {
      fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }

  perfbench::Report rep;
  int rc = 0;
  if (args.workload == "linkbench_inpool") {
    rc = perfbench::RunLinkbenchInPool(args, process_start, &rep);
  } else if (args.workload == "linkbench_offoff") {
    rc = perfbench::RunLinkbenchOffOff(args, process_start, &rep);
  } else if (args.workload == "ycsb_barrier") {
    rc = perfbench::RunYcsbBarrier(args, process_start, &rep);
  } else if (args.workload == "device_gc") {
    rc = perfbench::RunDeviceGc(args, process_start, &rep);
  } else {
    fprintf(stderr,
            "unknown workload '%s' (linkbench_inpool, linkbench_offoff, "
            "ycsb_barrier, device_gc)\n",
            args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  rep.Set("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  rep.Print(args);
  return rep.ok() ? 0 : 1;
}
